package proto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"time"
)

// The wire codec: a hand-rolled length-prefixed binary encoding for the
// whole Message vocabulary — the only encoding, on sockets and in the
// simulator's byte accounting. A frame is a 4-byte little-endian payload
// length, then the payload: Type, Version and the frame's total sample
// count, then Message's other fields in declaration order, with zigzag
// varints for signed integers, 8-byte little-endian IEEE 754 for floats,
// uvarint-length-prefixed strings and uvarint-counted slices. Each query
// and each result ends its fixed part with a flags byte (a result's
// Replica, and whether a window token follows); a token is 8 fixed
// bytes, so a frame's length depends on which entries carry a token,
// never on a token's value.
//
// Three straight-line passes walk that layout, one line per field:
// AppendEncode writes it into a caller-supplied (pooled) buffer,
// EncodedSize prices it without writing, and Decode reads it back. The
// decoder keeps its first error and reads zeros after it, so Decode
// checks once and a bad frame allocates nothing more. The sample runs of
// one decoded message share one backing array, sized by the header's
// count and each run's capacity pinned so an append cannot clobber a
// neighbor; handlers still copy what they keep past the request (see the
// README's wire formats).

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

// The flags byte of a query or a result.
const (
	flagReplica = 1 << iota // SeriesResult.Replica
	flagToken               // a WindowToken follows: 8 bytes, little-endian
)

// tokenSize is one WindowToken on the wire.
const tokenSize = 8

// ---- encode ----

func appendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

// appendVarint zigzag-encodes signed integers so small negatives stay
// small on the wire.
func appendVarint(b []byte, v int64) []byte { return appendUvarint(b, uint64(v<<1)^uint64(v>>63)) }

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendFloat(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
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

// appendFlags writes an entry's flags byte and then t, unless t is the
// zero token.
func appendFlags(b []byte, replica bool, t WindowToken) []byte {
	var f byte
	if replica {
		f = flagReplica
	}
	if t == 0 {
		return append(b, f)
	}
	return binary.LittleEndian.AppendUint64(append(b, f|flagToken), uint64(t))
}

// tokenAt is ts[i], or the zero token past its end (ResultTokens is nil
// in a reply that carries none).
func tokenAt(ts []WindowToken, i int) WindowToken {
	if i < len(ts) {
		return ts[i]
	}
	return 0
}

// sampleCount is the header's count: every sample the frame carries.
func sampleCount(m *Message) int {
	n := len(m.Samples)
	for i := range m.Results {
		n += len(m.Results[i].Samples)
	}
	return n
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
	b = appendUvarint(b, uint64(sampleCount(m)))
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
		b = appendFlags(b, false, m.Queries[i].Token)
	}
	b = appendUvarint(b, uint64(len(m.Results)))
	for i := range m.Results {
		r := &m.Results[i]
		b = appendString(b, r.Series)
		b = appendSamples(b, r.Samples)
		b = appendString(b, r.Error)
		b = appendString(b, r.Code)
		b = appendFlags(b, r.Replica, tokenAt(m.ResultTokens, i))
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
		b = appendBool(b, f.Replica)
		b = appendVarint(b, f.Lag)
	}
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

func sizeVarint(v int64) int { return sizeUvarint(uint64(v<<1) ^ uint64(v>>63)) }

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

// sizeFlags prices a flags byte and the token behind it, if any.
func sizeFlags(t WindowToken) int {
	if t == 0 {
		return 1
	}
	return 1 + tokenSize
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
		sizeUvarint(uint64(sampleCount(m))) + sizeString(m.From) + sizeVarint(m.ID) +
		sizeVarint(m.ReplyTo) + sizeString(m.Error) + sizeReg(&m.Reg) + sizeString(m.Kind) +
		sizeString(m.Name)
	n += sizeUvarint(uint64(len(m.Regs)))
	for i := range m.Regs {
		n += sizeReg(&m.Regs[i])
	}
	n += sizeString(m.Series) + sizeSamples(m.Samples) + sizeVarint(int64(m.Count))
	n += sizeUvarint(uint64(len(m.Queries)))
	for i := range m.Queries {
		n += sizeString(m.Queries[i].Series) + sizeVarint(int64(m.Queries[i].Count)) +
			sizeFlags(m.Queries[i].Token)
	}
	n += sizeUvarint(uint64(len(m.Results)))
	for i := range m.Results {
		r := &m.Results[i]
		n += sizeString(r.Series) + sizeSamples(r.Samples) + sizeString(r.Error) + sizeString(r.Code)
		n += sizeFlags(tokenAt(m.ResultTokens, i)) + sizeVarint(r.Lag)
	}
	n += sizeUvarint(uint64(len(m.Forecasts)))
	for i := range m.Forecasts {
		f := &m.Forecasts[i]
		n += sizeString(f.Series) + 24 + sizeString(f.Method) +
			sizeVarint(int64(f.Count)) + sizeString(f.Error) + sizeString(f.Code) +
			1 + sizeVarint(f.Lag)
	}
	n += sizeString(m.Clique) + sizeVarint(m.TokenSeq) + sizeVarint(m.Epoch) +
		sizeVarint(m.Total) + sizeString(m.Code) + sizeVarint(int64(m.RetryAfter))
	return n
}

// ---- decode ----

// decoder reads a payload field by field. Its first failure sticks in
// err: after it every read returns a zero value and every count 0, so
// the rest of a bad frame is walked without allocating.
type decoder struct {
	b       []byte
	pos     int
	err     error
	backing []Sample // every sample run of the message, see samples
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.pos:])
	if n <= 0 {
		d.err = fmt.Errorf("%w: varint at offset %d", ErrTruncated, d.pos)
		return 0
	}
	d.pos += n
	return v
}

func (d *decoder) varint() int64 {
	u := d.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

var zeros [8]byte // what fixed reads past a failure; never written

// fixed reads n ≤ 8 bytes in place, or zeros once the frame has failed.
func (d *decoder) fixed(n int, what string) []byte {
	if d.err == nil && len(d.b)-d.pos < n {
		d.err = fmt.Errorf("%w: %s at offset %d", ErrTruncated, what, d.pos)
	}
	if d.err != nil {
		return zeros[:n]
	}
	d.pos += n
	return d.b[d.pos-n : d.pos]
}

func (d *decoder) float() float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(d.fixed(8, "float")))
}

// flags reads a flags byte and the token it announces (zero for none).
func (d *decoder) flags() (byte, WindowToken) {
	f := d.fixed(1, "flags")[0]
	if f&flagToken == 0 {
		return f, 0
	}
	return f, WindowToken(binary.LittleEndian.Uint64(d.fixed(tokenSize, "token")))
}

func (d *decoder) boolByte() bool { return d.fixed(1, "bool")[0] != 0 }

// str reads a length-prefixed string (empty past a failure).
func (d *decoder) str() string {
	n := d.uvarint()
	if n > uint64(len(d.b)-d.pos) {
		d.err = fmt.Errorf("%w: string of %d bytes at offset %d", ErrTruncated, n, d.pos)
		return ""
	}
	d.pos += int(n)
	return string(d.b[d.pos-int(n) : d.pos])
}

// count reads a slice length and sanity-checks it against the bytes
// actually left in the payload (each element costs at least minBytes),
// so a hostile length prefix cannot drive a huge allocation.
func (d *decoder) count(minBytes int) int {
	n := d.uvarint()
	if n > uint64((len(d.b)-d.pos)/minBytes+1) {
		d.err = fmt.Errorf("%w: %d elements announced with %d bytes left", ErrTruncated, n, len(d.b)-d.pos)
		return 0
	}
	return int(n)
}

// slice reads a count and makes that many elements (nil for none); the
// callers fill them in loops, since a func-valued filler moves d to the heap.
func slice[T any](d *decoder, minBytes int) []T {
	if n := d.count(minBytes); n > 0 {
		return make([]T, n)
	}
	return nil
}

func (d *decoder) strs() []string {
	ss := slice[string](d, 1)
	for i := range ss {
		ss[i] = d.str()
	}
	return ss
}

func (d *decoder) reg() Registration {
	return Registration{Name: d.str(), Kind: d.str(), Host: d.str(), Owner: d.str(),
		TTL: time.Duration(d.varint()), Expires: time.Duration(d.varint()), Replicas: d.strs()}
}

func (d *decoder) regs() []Registration {
	rs := slice[Registration](d, 7)
	for i := range rs {
		rs[i] = d.reg()
	}
	return rs
}

// samples decodes one sample run into a subslice of the shared backing
// array, which the header made for every sample the frame announced: a
// run longer than what is left of it fails the frame, so the array is
// never regrown, and a run stops at a failure. The subslice's capacity
// is pinned so append never bleeds into a neighbor's samples.
//
// While 16 bytes remain, a sample whose timestamp varint ends within
// its first 8 bytes is read from one 8-byte load: the stop bit is the
// lowest clear high bit, and the 7-bit groups below it are packed by
// three mask-and-shift steps. Longer varints and a frame's last bytes
// take varint and float, whose errors stay the only ones a run reports.
func (d *decoder) samples() []Sample {
	n := d.count(9)
	if left := cap(d.backing) - len(d.backing); n > left {
		d.err = fmt.Errorf("%w: run of %d samples with %d of the announced left", ErrTruncated, n, left)
		return nil
	}
	if n == 0 {
		return nil
	}
	backing, start := d.backing, len(d.backing)
	for i := 0; i < n && d.err == nil; i++ {
		if b := d.b[d.pos:]; len(b) >= 16 {
			u := binary.LittleEndian.Uint64(b)
			if stop := ^u & 0x8080808080808080; stop != 0 {
				end := bits.TrailingZeros64(stop) + 1 // bits up to the stop bit
				x := u & (1<<end - 1) & 0x7f7f7f7f7f7f7f7f
				x = x&0x007f007f007f007f | x&0x7f007f007f007f00>>1
				x = x&0x00003fff00003fff | x&0x3fff00003fff0000>>2
				x = x&0x000000000fffffff | x&0x0fffffff00000000>>4
				k := end / 8
				backing = append(backing, Sample{At: time.Duration(int64(x>>1) ^ -int64(x&1)),
					Value: math.Float64frombits(binary.LittleEndian.Uint64(b[k:]))})
				d.pos += k + 8
				continue
			}
		}
		s := Sample{At: time.Duration(d.varint()), Value: d.float()}
		if d.err != nil {
			break
		}
		backing = append(backing, s)
	}
	d.backing = backing
	return backing[start:len(backing):len(backing)]
}

func (d *decoder) queries() []SeriesRequest {
	qs := slice[SeriesRequest](d, 3)
	for i := range qs {
		q := &qs[i]
		q.Series, q.Count = d.str(), int(d.varint())
		_, q.Token = d.flags()
	}
	return qs
}

// results reads the Results and their ResultTokens, which stay nil
// unless a result carries a token.
func (d *decoder) results() ([]SeriesResult, []WindowToken) {
	rs := slice[SeriesResult](d, 6)
	var ts []WindowToken
	for i := range rs {
		r := &rs[i]
		r.Series, r.Samples, r.Error, r.Code = d.str(), d.samples(), d.str(), d.str()
		f, t := d.flags()
		r.Replica, r.Lag = f&flagReplica != 0, d.varint()
		if t != 0 {
			if ts == nil {
				ts = make([]WindowToken, len(rs))
			}
			ts[i] = t
		}
	}
	return rs, ts
}

func (d *decoder) forecasts() []ForecastResult {
	fs := slice[ForecastResult](d, 30)
	for i := range fs {
		fs[i] = ForecastResult{Series: d.str(), Value: d.float(), MAE: d.float(), MSE: d.float(),
			Method: d.str(), Count: int(d.varint()), Error: d.str(), Code: d.str(),
			Replica: d.boolByte(), Lag: d.varint()}
	}
	return fs
}

// Decode parses one V3 payload into m, overwriting every field. On error
// m may be partially filled and must not be used. All sample slices of
// one message share a single backing array (capacities pinned), made
// once for the header's count after checking the frame could hold it;
// runs that do not add up to that count are ErrTruncated, and bytes
// after the last field ErrTrailingBytes.
func Decode(data []byte, m *Message) error {
	if len(data) > MaxFrameSize {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, len(data))
	}
	d := decoder{b: data}
	m.Type = MsgType(d.uvarint())
	m.Version = int(d.uvarint())
	if n := d.count(9); n > 0 {
		d.backing = make([]Sample, 0, n)
	}
	m.From = d.str()
	m.ID = d.varint()
	m.ReplyTo = d.varint()
	m.Error = d.str()
	m.Reg = d.reg()
	m.Kind = d.str()
	m.Name = d.str()
	m.Regs = d.regs()
	m.Series = d.str()
	m.Samples = d.samples()
	m.Count = int(d.varint())
	m.Queries = d.queries()
	m.Results, m.ResultTokens = d.results()
	m.Forecasts = d.forecasts()
	m.Clique = d.str()
	m.TokenSeq = d.varint()
	m.Epoch = d.varint()
	m.Total = d.varint()
	m.Code = d.str()
	m.RetryAfter = time.Duration(d.varint())
	if d.err == nil && len(d.backing) != cap(d.backing) {
		d.err = fmt.Errorf("%w: runs hold %d of the %d samples announced", ErrTruncated, len(d.backing), cap(d.backing))
	}
	if d.err == nil && d.pos != len(d.b) {
		d.err = fmt.Errorf("%w: %d of %d bytes consumed", ErrTrailingBytes, d.pos, len(d.b))
	}
	return d.err
}
