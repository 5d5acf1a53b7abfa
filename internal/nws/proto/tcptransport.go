package proto

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"time"

	"nwsenv/internal/telemetry"
)

// Handshake. A dialer opens every connection with the 5-byte hello —
// the 4-byte magic followed by the wire version — and the acceptor
// answers with the one version byte. There is one version, V3: length-
// prefixed codec frames (codec.go) for the life of the connection. The
// magic's last byte is the frame layout's revision: 2 since tokens went
// inline and the header began counting samples, so a peer built for the
// earlier layout ("NWS\x01") is refused like any other stranger. An
// acceptor that reads anything but the hello closes the connection
// without answering; a dialer that is answered anything but V3 fails the
// Send with an error naming the version.
const wireHello = "NWS\x02" + string(rune(V3))

// handshakeTimeout bounds the dial and each side's half of the
// handshake, so a peer that accepts (or connects) and then stays silent
// costs one timeout instead of wedging the connection's sender or an
// acceptor goroutine. Endpoints are loopback sockets: a healthy
// handshake takes microseconds.
const handshakeTimeout = 2 * time.Second

// TCPTransport delivers messages between hosts over real TCP sockets on
// the local machine. Host names are mapped to listen addresses by an
// internal registry filled as endpoints open. It is the deployment path
// proving the NWS components run on the plain standard library network
// stack, not only in simulation.
type TCPTransport struct {
	rt *RealRuntime

	mu    sync.Mutex
	addrs map[string]string // host -> "127.0.0.1:port"
	eps   map[string]*tcpEndpoint
	stats wireStats
}

// NewTCPTransport returns a transport using real time.
func NewTCPTransport() *TCPTransport {
	return &TCPTransport{
		rt:    NewRealRuntime(),
		addrs: map[string]string{},
		eps:   map[string]*tcpEndpoint{},
	}
}

// SetTelemetry implements Transport.
func (t *TCPTransport) SetTelemetry(reg *telemetry.Registry) {
	t.mu.Lock()
	t.stats = newWireStats(reg)
	t.mu.Unlock()
}

func (t *TCPTransport) statsRef() wireStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stats
}

// Runtime implements Transport.
func (t *TCPTransport) Runtime() Runtime { return t.rt }

// Open implements Transport: it binds a loopback listener for host. The
// endpoint accepts connections once a handler is registered (Handle);
// a peer dialing before then waits in the listen backlog.
func (t *TCPTransport) Open(host string) (Endpoint, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, busy := t.eps[host]; busy {
		return nil, fmt.Errorf("proto: endpoint %q already open", host)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ep := &tcpEndpoint{
		t:        t,
		host:     host,
		ln:       ln,
		conns:    map[string]*outConn{},
		accepted: map[net.Conn]struct{}{},
	}
	t.addrs[host] = ln.Addr().String()
	t.eps[host] = ep
	return ep, nil
}

// Addr returns the listen address registered for host.
func (t *TCPTransport) Addr(host string) (string, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	a, ok := t.addrs[host]
	return a, ok
}

// Active reports whether host currently has an open endpoint (its agent
// process is up). The liveness signal behind TCPPlatform.Alive.
func (t *TCPTransport) Active(host string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	_, ok := t.eps[host]
	return ok
}

// frameRetain is the largest frame buffer (in bytes) a connection keeps
// for its next frame; a larger one is given back to the collector once
// its frame is decoded or written. It holds the ≈72 KB replies of a
// 20-series batch over 256-sample windows.
const frameRetain = 128 << 10

// frameGrowStep is the least a frame buffer grows by while its payload
// arrives.
const frameGrowStep = 4 << 10

type outConn struct {
	mu   sync.Mutex
	conn net.Conn // nil until dialed, and again after a failed write
	buf  []byte   // reusable frame buffer
}

type tcpEndpoint struct {
	t    *TCPTransport
	host string
	ln   net.Listener

	// handler receives every message arriving here. Set once, by
	// Handle, before the accept loop starts.
	handler func(*Message)

	mu       sync.Mutex
	conns    map[string]*outConn
	accepted map[net.Conn]struct{}
	closed   bool
}

func (e *tcpEndpoint) Host() string { return e.host }

// Handle registers the message handler and starts accepting
// connections; it must be called once.
func (e *tcpEndpoint) Handle(h func(*Message)) {
	e.handler = h
	go e.acceptLoop()
}

func (e *tcpEndpoint) acceptLoop() {
	for {
		c, err := e.ln.Accept()
		if err != nil {
			return
		}
		e.mu.Lock()
		if e.closed {
			e.mu.Unlock()
			c.Close()
			return
		}
		e.accepted[c] = struct{}{}
		e.mu.Unlock()
		go e.serveConn(c)
	}
}

// serveConn answers the dialer's hello and then hands each frame's
// message to the handler until the connection fails. The handshake runs
// under a deadline; the frame loop does not (an idle peer is a healthy
// peer).
func (e *tcpEndpoint) serveConn(c net.Conn) {
	defer func() {
		c.Close()
		e.mu.Lock()
		delete(e.accepted, c)
		e.mu.Unlock()
	}()
	c.SetDeadline(time.Now().Add(handshakeTimeout))
	br := bufio.NewReaderSize(c, 32<<10)
	var hello [len(wireHello)]byte
	if _, err := io.ReadFull(br, hello[:]); err != nil || string(hello[:]) != wireHello {
		return
	}
	if _, err := c.Write([]byte{V3}); err != nil {
		return
	}
	c.SetDeadline(time.Time{})
	e.readFrames(br)
}

// readFrames reads frames — a 4-byte little-endian payload length, then
// the codec payload — and hands each decoded message, taken from the
// runtime's free list, to the handler. The payload buffer is reused
// across frames; Decode copies strings and gives samples fresh backing,
// so nothing in a delivered Message aliases it.
func (e *tcpEndpoint) readFrames(r io.Reader) {
	stats := e.t.statsRef()
	msgs := &e.t.rt.msgs
	var hdr [frameHeaderSize]byte
	var buf []byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return
		}
		n := binary.LittleEndian.Uint32(hdr[:])
		if int64(n) > MaxFrameSize {
			return
		}
		var err error
		if buf, err = readPayload(r, buf[:0], int(n)); err != nil {
			return
		}
		m := msgs.get()
		if err := Decode(buf, m); err != nil {
			msgs.put(m)
			return
		}
		if cap(buf) > frameRetain {
			buf = nil
		}
		stats.received(int64(n) + frameHeaderSize)
		e.handler(m)
	}
}

// readPayload reads n bytes onto buf, growing it with the bytes that
// actually arrive: a length prefix alone never allocates what it
// claims.
func readPayload(r io.Reader, buf []byte, n int) ([]byte, error) {
	for len(buf) < n {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, min(n-len(buf), max(len(buf), frameGrowStep)))
		}
		k, err := io.ReadFull(r, buf[len(buf):min(n, cap(buf))])
		buf = buf[:len(buf)+k]
		if err != nil {
			return buf, err
		}
	}
	return buf, nil
}

// Send writes m's frame and gives m back to the free list: the frame
// is all that leaves the host.
func (e *tcpEndpoint) Send(to string, m *Message) error {
	if to == e.host {
		e.handler(m)
		return nil
	}
	defer e.t.rt.msgs.put(m)
	e.t.mu.Lock()
	addr, ok := e.t.addrs[to]
	stats := e.t.stats
	e.t.mu.Unlock()
	if !ok {
		return fmt.Errorf("proto: unknown host %q", to)
	}

	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return fmt.Errorf("proto: endpoint %s closed", e.host)
	}
	oc := e.conns[to]
	if oc == nil {
		oc = &outConn{}
		e.conns[to] = oc
	}
	e.mu.Unlock()

	oc.mu.Lock()
	defer oc.mu.Unlock()
	if oc.conn == nil {
		if err := e.dial(oc, addr); err != nil {
			return err
		}
	}
	b := append(oc.buf[:0], 0, 0, 0, 0)
	b = AppendEncode(b, m)
	oc.buf = b
	if cap(b) > frameRetain {
		oc.buf = nil
	}
	payload := len(b) - frameHeaderSize
	if int64(payload) > MaxFrameSize {
		return fmt.Errorf("proto: %w (%d bytes)", ErrFrameTooLarge, payload)
	}
	binary.LittleEndian.PutUint32(b[:frameHeaderSize], uint32(payload))
	if _, err := oc.conn.Write(b); err != nil {
		// Drop the failed connection so the next Send re-dials.
		oc.conn.Close()
		oc.conn = nil
		return err
	}
	stats.encoded(int64(len(b)))
	return nil
}

// dial connects and runs the handshake, both under handshakeTimeout.
// Called with oc.mu held.
func (e *tcpEndpoint) dial(oc *outConn, addr string) error {
	c, err := net.DialTimeout("tcp", addr, handshakeTimeout)
	if err != nil {
		return err
	}
	c.SetDeadline(time.Now().Add(handshakeTimeout))
	var vb [1]byte
	if _, err = io.WriteString(c, wireHello); err == nil {
		_, err = io.ReadFull(c, vb[:])
	}
	if err == nil && vb[0] != V3 {
		err = fmt.Errorf("peer answered wire version %d, want %d", vb[0], V3)
	}
	if err != nil {
		c.Close()
		return fmt.Errorf("proto: handshake with %s: %w", addr, err)
	}
	c.SetDeadline(time.Time{})
	oc.conn = c
	return nil
}

func (e *tcpEndpoint) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	conns := e.conns
	e.conns = map[string]*outConn{}
	// Closing accepted connections makes peers' cached outbound
	// connections fail fast, so they re-dial the host's next incarnation
	// instead of writing into a zombie socket.
	for c := range e.accepted {
		c.Close()
	}
	e.accepted = map[net.Conn]struct{}{}
	e.mu.Unlock()

	e.t.mu.Lock()
	delete(e.t.eps, e.host)
	delete(e.t.addrs, e.host)
	e.t.mu.Unlock()

	err := e.ln.Close()
	for _, oc := range conns {
		oc.mu.Lock()
		if oc.conn != nil {
			oc.conn.Close()
		}
		oc.mu.Unlock()
	}
	return err
}
