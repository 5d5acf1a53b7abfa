package proto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"
)

// The wire codec: a hand-rolled length-prefixed binary encoding for the
// whole Message vocabulary — the only encoding, on sockets and in the
// simulator's byte accounting. Layout is positional — every field of
// Message in declaration order — with varints for integers (zigzag for
// signed), 8-byte little-endian IEEE 754 for floats and
// uvarint-length-prefixed bytes for strings. Slices are uvarint counts
// followed by elements.
//
// A frame is a 4-byte little-endian payload length followed by the
// payload. The codec is allocation-disciplined: encoding
// appends into a caller-supplied (pooled) buffer, EncodedSize prices a
// message exactly without encoding it, and decoding allocates one
// backing array per sample-carrying field group instead of one slice
// per series. Decoded sample subslices share that backing array with
// their capacity pinned, so appending to one can never clobber a
// neighbor — but handlers must still copy anything they retain past the
// request (see the wire-format notes in the README).

// Typed decode errors, matched with errors.Is.
var (
	// ErrTruncated: the payload ended before the encoded fields did (or
	// a length prefix points past the end of the frame).
	ErrTruncated = errors.New("proto: truncated V3 frame")
	// ErrFrameTooLarge: a frame header announced a payload larger than
	// MaxFrameSize. The connection is poisoned and must be dropped.
	ErrFrameTooLarge = errors.New("proto: V3 frame exceeds size limit")
	// ErrTrailingBytes: a payload decoded cleanly but left unconsumed
	// bytes, meaning sender and receiver disagree about the layout.
	ErrTrailingBytes = errors.New("proto: trailing bytes after V3 message")
)

// MaxFrameSize bounds one V3 frame's payload. Batch replies carry whole
// retained sample windows, so the cap is generous; anything larger is a
// corrupt or hostile stream, not a query.
const MaxFrameSize = 64 << 20

// frameHeaderSize is the length prefix in front of each V3 payload.
const frameHeaderSize = 4

// ---- encode ----

func appendUvarint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

// appendVarint zigzag-encodes signed integers so small negatives stay
// small on the wire.
func appendVarint(b []byte, v int64) []byte {
	return binary.AppendUvarint(b, uint64(v<<1)^uint64(v>>63))
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendFloat(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

func appendReg(b []byte, r *Registration) []byte {
	b = appendString(b, r.Name)
	b = appendString(b, r.Kind)
	b = appendString(b, r.Host)
	b = appendString(b, r.Owner)
	b = appendVarint(b, int64(r.TTL))
	b = appendVarint(b, int64(r.Expires))
	b = appendUvarint(b, uint64(len(r.Replicas)))
	for _, h := range r.Replicas {
		b = appendString(b, h)
	}
	return b
}

func appendSamples(b []byte, ss []Sample) []byte {
	b = appendUvarint(b, uint64(len(ss)))
	for i := range ss {
		b = appendVarint(b, int64(ss[i].At))
		b = appendFloat(b, ss[i].Value)
	}
	return b
}

// AppendEncode appends the V3 payload of m to buf (which may be nil or
// a pooled scratch buffer) and returns the extended slice. The frame
// length prefix is the transport's job, so the same bytes price simnet
// transfers and frame real sockets.
func AppendEncode(buf []byte, m *Message) []byte {
	b := buf
	b = appendUvarint(b, uint64(m.Type))
	b = appendUvarint(b, uint64(m.Version))
	b = appendString(b, m.From)
	b = appendVarint(b, m.ID)
	b = appendVarint(b, m.ReplyTo)
	b = appendString(b, m.Error)
	b = appendReg(b, &m.Reg)
	b = appendString(b, m.Kind)
	b = appendString(b, m.Name)
	b = appendUvarint(b, uint64(len(m.Regs)))
	for i := range m.Regs {
		b = appendReg(b, &m.Regs[i])
	}
	b = appendString(b, m.Series)
	b = appendSamples(b, m.Samples)
	b = appendVarint(b, int64(m.Count))
	b = appendUvarint(b, uint64(len(m.Queries)))
	for i := range m.Queries {
		b = appendString(b, m.Queries[i].Series)
		b = appendVarint(b, int64(m.Queries[i].Count))
	}
	b = appendUvarint(b, uint64(len(m.Results)))
	for i := range m.Results {
		r := &m.Results[i]
		b = appendString(b, r.Series)
		b = appendSamples(b, r.Samples)
		b = appendString(b, r.Error)
		b = appendString(b, r.Code)
		if r.Replica {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
		b = appendVarint(b, r.Lag)
	}
	b = appendUvarint(b, uint64(len(m.Forecasts)))
	for i := range m.Forecasts {
		f := &m.Forecasts[i]
		b = appendString(b, f.Series)
		b = appendFloat(b, f.Value)
		b = appendFloat(b, f.MAE)
		b = appendFloat(b, f.MSE)
		b = appendString(b, f.Method)
		b = appendVarint(b, int64(f.Count))
		b = appendString(b, f.Error)
		b = appendString(b, f.Code)
		if f.Replica {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
		b = appendVarint(b, f.Lag)
	}
	b = appendFloat(b, m.Value)
	b = appendFloat(b, m.MAE)
	b = appendFloat(b, m.MSE)
	b = appendString(b, m.Method)
	b = appendString(b, m.Clique)
	b = appendVarint(b, m.TokenSeq)
	b = appendVarint(b, m.Epoch)
	b = appendVarint(b, m.Total)
	b = appendString(b, m.Code)
	b = appendVarint(b, int64(m.RetryAfter))
	return b
}

// ---- exact sizing ----

func sizeUvarint(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

func sizeVarint(v int64) int {
	return sizeUvarint(uint64(v<<1) ^ uint64(v>>63))
}

func sizeString(s string) int { return sizeUvarint(uint64(len(s))) + len(s) }

func sizeReg(r *Registration) int {
	n := sizeString(r.Name) + sizeString(r.Kind) + sizeString(r.Host) +
		sizeString(r.Owner) + sizeVarint(int64(r.TTL)) + sizeVarint(int64(r.Expires))
	n += sizeUvarint(uint64(len(r.Replicas)))
	for _, h := range r.Replicas {
		n += sizeString(h)
	}
	return n
}

func sizeSamples(ss []Sample) int {
	n := sizeUvarint(uint64(len(ss)))
	for i := range ss {
		n += sizeVarint(int64(ss[i].At)) + 8
	}
	return n
}

// EncodedSize returns the exact V3 payload length of m without encoding
// it: the sizing pass WireSize and buffer preallocation use, mirroring
// AppendEncode field for field.
func EncodedSize(m *Message) int {
	n := sizeUvarint(uint64(m.Type)) + sizeUvarint(uint64(m.Version)) +
		sizeString(m.From) + sizeVarint(m.ID) + sizeVarint(m.ReplyTo) +
		sizeString(m.Error) + sizeReg(&m.Reg) + sizeString(m.Kind) + sizeString(m.Name)
	n += sizeUvarint(uint64(len(m.Regs)))
	for i := range m.Regs {
		n += sizeReg(&m.Regs[i])
	}
	n += sizeString(m.Series) + sizeSamples(m.Samples) + sizeVarint(int64(m.Count))
	n += sizeUvarint(uint64(len(m.Queries)))
	for i := range m.Queries {
		n += sizeString(m.Queries[i].Series) + sizeVarint(int64(m.Queries[i].Count))
	}
	n += sizeUvarint(uint64(len(m.Results)))
	for i := range m.Results {
		r := &m.Results[i]
		n += sizeString(r.Series) + sizeSamples(r.Samples) + sizeString(r.Error) + sizeString(r.Code)
		n += 1 + sizeVarint(r.Lag)
	}
	n += sizeUvarint(uint64(len(m.Forecasts)))
	for i := range m.Forecasts {
		f := &m.Forecasts[i]
		n += sizeString(f.Series) + 24 + sizeString(f.Method) +
			sizeVarint(int64(f.Count)) + sizeString(f.Error) + sizeString(f.Code) +
			1 + sizeVarint(f.Lag)
	}
	n += 24 + sizeString(m.Method) + sizeString(m.Clique) +
		sizeVarint(m.TokenSeq) + sizeVarint(m.Epoch) + sizeVarint(m.Total) +
		sizeString(m.Code) + sizeVarint(int64(m.RetryAfter))
	return n
}

// ---- decode ----

type decoder struct {
	b   []byte
	pos int
}

func (d *decoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.b[d.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: varint at offset %d", ErrTruncated, d.pos)
	}
	d.pos += n
	return v, nil
}

func (d *decoder) varint() (int64, error) {
	u, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	return int64(u>>1) ^ -int64(u&1), nil
}

func (d *decoder) str() (string, error) {
	n, err := d.uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(len(d.b)-d.pos) {
		return "", fmt.Errorf("%w: string of %d bytes at offset %d", ErrTruncated, n, d.pos)
	}
	s := string(d.b[d.pos : d.pos+int(n)])
	d.pos += int(n)
	return s, nil
}

func (d *decoder) float() (float64, error) {
	if len(d.b)-d.pos < 8 {
		return 0, fmt.Errorf("%w: float at offset %d", ErrTruncated, d.pos)
	}
	f := math.Float64frombits(binary.LittleEndian.Uint64(d.b[d.pos:]))
	d.pos += 8
	return f, nil
}

// count reads a slice length and sanity-checks it against the bytes
// actually left in the payload (each element costs at least minBytes),
// so a hostile length prefix cannot drive a huge allocation.
func (d *decoder) count(minBytes int) (int, error) {
	n, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if n > uint64((len(d.b)-d.pos)/minBytes+1) {
		return 0, fmt.Errorf("%w: %d elements announced with %d bytes left", ErrTruncated, n, len(d.b)-d.pos)
	}
	return int(n), nil
}

func (d *decoder) reg(r *Registration) error {
	var err error
	if r.Name, err = d.str(); err != nil {
		return err
	}
	if r.Kind, err = d.str(); err != nil {
		return err
	}
	if r.Host, err = d.str(); err != nil {
		return err
	}
	if r.Owner, err = d.str(); err != nil {
		return err
	}
	ttl, err := d.varint()
	if err != nil {
		return err
	}
	exp, err := d.varint()
	if err != nil {
		return err
	}
	r.TTL, r.Expires = time.Duration(ttl), time.Duration(exp)
	nRep, err := d.count(1)
	if err != nil {
		return err
	}
	r.Replicas = nil
	if nRep > 0 {
		r.Replicas = make([]string, nRep)
		for i := range r.Replicas {
			if r.Replicas[i], err = d.str(); err != nil {
				return err
			}
		}
	}
	return nil
}

// boolByte reads a single 0/1 byte.
func (d *decoder) boolByte() (bool, error) {
	if d.pos >= len(d.b) {
		return false, fmt.Errorf("%w: bool at offset %d", ErrTruncated, d.pos)
	}
	v := d.b[d.pos]
	d.pos++
	return v != 0, nil
}

// samples decodes one sample run into a subslice of the shared backing
// array. The first non-empty run sizes the array for every sample the
// unread bytes could still hold (9 bytes each at least, as count
// assumes), so later runs never regrow it and a hostile count cannot
// allocate more than the frame justifies. The returned subslice has its
// capacity pinned so append never bleeds into a neighbor's samples.
func (d *decoder) samples(backing []Sample) ([]Sample, []Sample, error) {
	n, err := d.count(9)
	if err != nil {
		return nil, backing, err
	}
	if n == 0 {
		return nil, backing, nil
	}
	if backing == nil {
		backing = make([]Sample, 0, (len(d.b)-d.pos)/9)
	}
	start := len(backing)
	for i := 0; i < n; i++ {
		at, err := d.varint()
		if err != nil {
			return nil, backing, err
		}
		v, err := d.float()
		if err != nil {
			return nil, backing, err
		}
		backing = append(backing, Sample{At: time.Duration(at), Value: v})
	}
	return backing[start:len(backing):len(backing)], backing, nil
}

// Decode parses one V3 payload into m, overwriting every field. On error
// m may be partially filled and must not be used. All sample slices of
// one message share a single backing array (capacities pinned).
func Decode(data []byte, m *Message) error {
	if len(data) > MaxFrameSize {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, len(data))
	}
	d := decoder{b: data}
	*m = Message{}
	t, err := d.uvarint()
	if err != nil {
		return err
	}
	m.Type = MsgType(t)
	v, err := d.uvarint()
	if err != nil {
		return err
	}
	m.Version = int(v)
	if m.From, err = d.str(); err != nil {
		return err
	}
	if m.ID, err = d.varint(); err != nil {
		return err
	}
	if m.ReplyTo, err = d.varint(); err != nil {
		return err
	}
	if m.Error, err = d.str(); err != nil {
		return err
	}
	if err = d.reg(&m.Reg); err != nil {
		return err
	}
	if m.Kind, err = d.str(); err != nil {
		return err
	}
	if m.Name, err = d.str(); err != nil {
		return err
	}
	nRegs, err := d.count(7)
	if err != nil {
		return err
	}
	if nRegs > 0 {
		m.Regs = make([]Registration, nRegs)
		for i := range m.Regs {
			if err = d.reg(&m.Regs[i]); err != nil {
				return err
			}
		}
	}
	if m.Series, err = d.str(); err != nil {
		return err
	}
	// One backing array for every sample in the message: Samples plus
	// each Results[i].Samples; starting nil keeps messages without
	// samples allocation-free.
	var backing []Sample
	if m.Samples, backing, err = d.samples(nil); err != nil {
		return err
	}
	cnt, err := d.varint()
	if err != nil {
		return err
	}
	m.Count = int(cnt)
	nQ, err := d.count(2)
	if err != nil {
		return err
	}
	if nQ > 0 {
		m.Queries = make([]SeriesRequest, nQ)
		for i := range m.Queries {
			if m.Queries[i].Series, err = d.str(); err != nil {
				return err
			}
			c, err := d.varint()
			if err != nil {
				return err
			}
			m.Queries[i].Count = int(c)
		}
	}
	nR, err := d.count(6)
	if err != nil {
		return err
	}
	if nR > 0 {
		m.Results = make([]SeriesResult, nR)
		for i := range m.Results {
			r := &m.Results[i]
			if r.Series, err = d.str(); err != nil {
				return err
			}
			if r.Samples, backing, err = d.samples(backing); err != nil {
				return err
			}
			if r.Error, err = d.str(); err != nil {
				return err
			}
			if r.Code, err = d.str(); err != nil {
				return err
			}
			if r.Replica, err = d.boolByte(); err != nil {
				return err
			}
			if r.Lag, err = d.varint(); err != nil {
				return err
			}
		}
	}
	nF, err := d.count(30)
	if err != nil {
		return err
	}
	if nF > 0 {
		m.Forecasts = make([]ForecastResult, nF)
		for i := range m.Forecasts {
			f := &m.Forecasts[i]
			if f.Series, err = d.str(); err != nil {
				return err
			}
			if f.Value, err = d.float(); err != nil {
				return err
			}
			if f.MAE, err = d.float(); err != nil {
				return err
			}
			if f.MSE, err = d.float(); err != nil {
				return err
			}
			if f.Method, err = d.str(); err != nil {
				return err
			}
			c, err := d.varint()
			if err != nil {
				return err
			}
			f.Count = int(c)
			if f.Error, err = d.str(); err != nil {
				return err
			}
			if f.Code, err = d.str(); err != nil {
				return err
			}
			if f.Replica, err = d.boolByte(); err != nil {
				return err
			}
			if f.Lag, err = d.varint(); err != nil {
				return err
			}
		}
	}
	if m.Value, err = d.float(); err != nil {
		return err
	}
	if m.MAE, err = d.float(); err != nil {
		return err
	}
	if m.MSE, err = d.float(); err != nil {
		return err
	}
	if m.Method, err = d.str(); err != nil {
		return err
	}
	if m.Clique, err = d.str(); err != nil {
		return err
	}
	if m.TokenSeq, err = d.varint(); err != nil {
		return err
	}
	if m.Epoch, err = d.varint(); err != nil {
		return err
	}
	if m.Total, err = d.varint(); err != nil {
		return err
	}
	if m.Code, err = d.str(); err != nil {
		return err
	}
	ra, err := d.varint()
	if err != nil {
		return err
	}
	m.RetryAfter = time.Duration(ra)
	if d.pos != len(d.b) {
		return fmt.Errorf("%w: %d of %d bytes consumed", ErrTrailingBytes, d.pos, len(d.b))
	}
	return nil
}
