package proto

import (
	"encoding/binary"
	"encoding/gob"
	"errors"
	"io"
	"net"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"nwsenv/internal/telemetry"
)

// crossRegister copies listen addresses between two transports so
// endpoints opened on one can dial endpoints opened on the other —
// two transports stand in for two separately-built binaries.
func crossRegister(a, b *TCPTransport) {
	a.mu.Lock()
	b.mu.Lock()
	for h, addr := range b.addrs {
		a.addrs[h] = addr
	}
	for h, addr := range a.addrs {
		b.addrs[h] = addr
	}
	b.mu.Unlock()
	a.mu.Unlock()
}

// batchEchoServer answers every BatchFetch with a fixed two-series
// reply, so tests can verify payload fidelity across the connection.
func batchEchoServer(st *Station) {
	for {
		req, ok := st.Recv()
		if !ok {
			return
		}
		st.Reply(req, Message{
			Type: MsgBatchFetchReply, Version: req.Version,
			Results: []SeriesResult{
				{Series: "cpu.a", Samples: []Sample{{At: time.Second, Value: 1.5}, {At: 2 * time.Second, Value: -2.25}}},
				{Series: "cpu.b", Error: "gone", Code: CodeUnknownSeries},
			},
		})
	}
}

func wantResults() []SeriesResult {
	return []SeriesResult{
		{Series: "cpu.a", Samples: []Sample{{At: time.Second, Value: 1.5}, {At: 2 * time.Second, Value: -2.25}}},
		{Series: "cpu.b", Error: "gone", Code: CodeUnknownSeries},
	}
}

func interopCall(t *testing.T, from *Station, to string) {
	t.Helper()
	reply, err := from.Call(to, Message{Type: MsgBatchFetch, Version: V3,
		Queries: []SeriesRequest{{Series: "cpu.a", Count: 2}, {Series: "cpu.b"}}}, 5*time.Second)
	if err != nil {
		t.Fatalf("call %s: %v", to, err)
	}
	if !reflect.DeepEqual(reply.Results, wantResults()) {
		t.Fatalf("call %s: results %+v", to, reply.Results)
	}
}

// TestInteropV3BothEnds: two transports complete the handshake and the
// telemetry counters record the encodes with byte accounting in both
// directions.
func TestInteropV3BothEnds(t *testing.T) {
	reg := telemetry.New(nil)
	trA, trB := NewTCPTransport(), NewTCPTransport()
	trA.SetTelemetry(reg)
	trB.SetTelemetry(reg)
	epA, err := trA.Open("a")
	if err != nil {
		t.Fatal(err)
	}
	epB, err := trB.Open("b")
	if err != nil {
		t.Fatal(err)
	}
	crossRegister(trA, trB)
	sa, sb := NewStation(trA.Runtime(), epA), NewStation(trB.Runtime(), epB)
	defer sa.Close()
	defer sb.Close()
	go batchEchoServer(sb)

	interopCall(t, sa, "b")

	// The replier counts its encode after the write returns, which can be
	// after the caller already holds the reply: wait for it.
	flat := reg.Snapshot().Flatten()
	deadline := time.Now().Add(2 * time.Second)
	for flat["proto/encode_total"] < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
		flat = reg.Snapshot().Flatten()
	}
	if flat["proto/encode_total"] < 2 { // request + reply
		t.Fatalf("want >=2 encodes, metrics %v", flat)
	}
	if flat["proto/bytes_out"] <= 0 || flat["proto/bytes_in"] <= 0 {
		t.Fatalf("byte counters not moving: %v", flat)
	}
}

// The refusal table. There is one wire version, so a peer speaking
// anything else is refused at the handshake: nothing it sent is
// delivered, nothing panics, the connection is closed, and the endpoint
// keeps serving proper peers.

// refusalRig opens the endpoint under test, "srv", with a station nobody
// serves: whatever the transport delivers stays in its inbox for
// stillServesV3 to find.
func refusalRig(t *testing.T) (*TCPTransport, *Station) {
	t.Helper()
	tr := NewTCPTransport()
	ep, err := tr.Open("srv")
	if err != nil {
		t.Fatal(err)
	}
	st := NewStation(tr.Runtime(), ep)
	t.Cleanup(func() { st.Close() })
	return tr, st
}

// stillServesV3 sends srv one message from a proper peer and requires it
// to be the first thing srv's station ever received — the inbox is FIFO,
// so that is both "the endpoint still serves" and "the refused
// connection delivered nothing".
func stillServesV3(t *testing.T, tr *TCPTransport, srv *Station) {
	t.Helper()
	ep, err := tr.Open("peer")
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	if err := ep.Send(srv.Host(), &Message{Type: MsgPing, From: "peer", ID: 99}); err != nil {
		t.Fatalf("proper peer refused after the bad one: %v", err)
	}
	got, ok := srv.RecvTimeout(5 * time.Second)
	if !ok || got.Type != MsgPing || got.From != "peer" || got.ID != 99 {
		t.Fatalf("first delivery to srv: %+v ok=%v, want the proper peer's ping", got, ok)
	}
}

// closedByPeer requires that the other side closed conn without sending
// a byte: a read fails with something other than our own deadline.
func closedByPeer(t *testing.T, conn net.Conn) {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(2 * handshakeTimeout))
	var b [1]byte
	n, err := conn.Read(b[:])
	if n != 0 || err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("connection not closed by the endpoint: read n=%d err=%v", n, err)
	}
}

// rawDial connects to srv's listener without the transport, as a
// foreign binary would.
func rawDial(t *testing.T, tr *TCPTransport) net.Conn {
	t.Helper()
	addr, _ := tr.Addr("srv")
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

// TestInteropV3DialsV2CappedPeer: the dialer meets an acceptor that
// answers the hello with version 2. Send fails with an error naming the
// version, the dialer hangs up without writing a frame, and its own
// endpoint keeps serving.
func TestInteropV3DialsV2CappedPeer(t *testing.T) {
	tr, srv := refusalRig(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	tr.mu.Lock()
	tr.addrs["old"] = ln.Addr().String()
	tr.mu.Unlock()

	afterAnswer := make(chan error, 1) // what the old acceptor read after answering "2"
	go func() {
		c, err := ln.Accept()
		if err != nil {
			afterAnswer <- err
			return
		}
		defer c.Close()
		var hello [len(wireHello)]byte
		if _, err := io.ReadFull(c, hello[:]); err != nil || string(hello[:]) != wireHello {
			afterAnswer <- errors.New("dialer did not open with the hello")
			return
		}
		c.Write([]byte{2})
		c.SetReadDeadline(time.Now().Add(2 * handshakeTimeout))
		rest, err := io.ReadAll(c)
		if err == nil && len(rest) != 0 {
			err = errors.New("dialer wrote a frame to a version-2 peer")
		}
		afterAnswer <- err
	}()

	err = srv.Send("old", Message{Type: MsgPing})
	if err == nil || !strings.Contains(err.Error(), "wire version 2") {
		t.Fatalf("Send to a version-2 acceptor: err=%v, want one naming wire version 2", err)
	}
	if err := <-afterAnswer; err != nil {
		t.Fatalf("old acceptor: %v", err)
	}
	stillServesV3(t, tr, srv)
}

// TestInteropV2CappedDialsV3Peer: a dialer whose hello is not this
// build's is refused — closed without an answer byte: one announcing
// version 2, and one built for the frame layout before tokens went
// inline (magic revision 1, version 3).
func TestInteropV2CappedDialsV3Peer(t *testing.T) {
	for name, hello := range map[string]string{
		"version 2":         "NWS\x01\x02",
		"pre-inline layout": "NWS\x01\x03",
	} {
		t.Run(name, func(t *testing.T) {
			tr, srv := refusalRig(t)
			conn := rawDial(t, tr)
			if _, err := conn.Write([]byte(hello)); err != nil {
				t.Fatal(err)
			}
			closedByPeer(t, conn)
			stillServesV3(t, tr, srv)
		})
	}
}

// TestInteropLegacyRawGobDialer: a dialer that writes gob from byte zero
// (no magic) is closed, and its message goes nowhere.
func TestInteropLegacyRawGobDialer(t *testing.T) {
	tr, srv := refusalRig(t)
	conn := rawDial(t, tr)
	// The endpoint may hang up mid-write; only its side of the story is
	// asserted.
	_ = gob.NewEncoder(conn).Encode(&Message{Type: MsgStore, From: "legacy", ID: 7, Series: "cpu.x",
		Samples: []Sample{{At: 3 * time.Second, Value: 9.5}}})
	closedByPeer(t, conn)
	stillServesV3(t, tr, srv)
}

// TestTCPPeerSendsReleasedType: a peer may put any type in a frame,
// poisoned messages' type -1 (a Type varint of 2^64-1) among them.
// Outside poison mode the station serves it like any other message: the
// receiver gets it, its reply goes back, and nothing panics.
func TestTCPPeerSendsReleasedType(t *testing.T) {
	tr, srv := refusalRig(t)
	ep, err := tr.Open("peer")
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	replies := make(chan Message, 1)
	ep.Handle(func(m *Message) { replies <- *m })

	payload := AppendEncode(nil, &Message{Type: msgReleased, From: "peer", ID: 7})
	if typ := "\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01"; !strings.HasPrefix(string(payload), typ) {
		t.Fatalf("payload % x does not open with the varint of 2^64-1", payload)
	}
	conn := rawDial(t, tr)
	frame := binary.LittleEndian.AppendUint32([]byte(wireHello), uint32(len(payload)))
	if _, err := conn.Write(append(frame, payload...)); err != nil {
		t.Fatal(err)
	}

	req, ok := srv.RecvTimeout(5 * time.Second)
	if !ok || req.Type != msgReleased || req.ID != 7 {
		t.Fatalf("delivery to srv: %+v ok=%v, want the type -1 request", req, ok)
	}
	if err := srv.ReplyError(req, "no role for %v", req.Type); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-replies:
		if r.ReplyTo != 7 || !strings.Contains(r.Error, "no role") {
			t.Fatalf("reply %+v, want an error answering ID 7", r)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no reply to the type -1 request")
	}
}

// TestTCPSilentDialerIsHungUpOn: a peer that connects and never sends
// the hello does not hold an acceptor goroutine forever.
func TestTCPSilentDialerIsHungUpOn(t *testing.T) {
	t.Parallel()
	tr, srv := refusalRig(t)
	closedByPeer(t, rawDial(t, tr))
	stillServesV3(t, tr, srv)
}

// TestTCPSendBoundedBySilentAcceptor: a peer that accepts and never
// answers the hello fails the Send within the handshake bound instead of
// wedging every later Send to that host, and once the peer is replaced
// the next Send goes through.
func TestTCPSendBoundedBySilentAcceptor(t *testing.T) {
	t.Parallel()
	tr, srv := refusalRig(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	tr.mu.Lock()
	tr.addrs["mute"] = ln.Addr().String()
	tr.mu.Unlock()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			defer c.Close() // held open and silent until the test ends
		}
	}()

	start := time.Now()
	err = srv.Send("mute", Message{Type: MsgPing})
	if took := time.Since(start); err == nil || took > 2*handshakeTimeout {
		t.Fatalf("Send to a silent acceptor: err=%v after %v, want an error within %v", err, took, 2*handshakeTimeout)
	}

	ep, err := tr.Open("mute") // the replacement registers its own address
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	in := tap(tr.Runtime(), ep)
	if err := srv.Send("mute", Message{Type: MsgPing, ID: 5}); err != nil {
		t.Fatalf("Send after the peer was replaced: %v", err)
	}
	if got, ok := in.RecvTimeout(5 * time.Second); !ok || got.Type != MsgPing {
		t.Fatalf("replacement peer got %+v ok=%v", got, ok)
	}
}

// FuzzTCPServeConn feeds arbitrary bytes to the acceptor side of a
// connection: the handshake and frame reader must refuse or consume them
// and return — never panic, never outlive the handshake bound once the
// peer has hung up.
func FuzzTCPServeConn(f *testing.F) {
	ping := AppendEncode(nil, &Message{Type: MsgPing, From: "h0", ID: 7})
	frame := append([]byte{byte(len(ping)), 0, 0, 0}, ping...)
	f.Add([]byte(wireHello + string(frame)))                // a proper peer
	f.Add([]byte(wireHello + string(frame[:len(frame)/2]))) // truncated frame
	f.Add([]byte(wireHello + "\xff\xff\xff\xff"))           // header over MaxFrameSize
	f.Add([]byte(wireHello + hostileHeader))                // header just under it, no payload
	f.Add([]byte("NWS\x01\x02"))                            // wrong version
	f.Add([]byte("\x3f\xff\x81\x03\x01\x01\x07Message"))    // raw gob from byte zero
	f.Add([]byte{})
	f.Add([]byte("NWS\x01\x03" + string(frame))) // the pre-inline layout's hello

	tr := NewTCPTransport()
	ep, err := tr.Open("srv")
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { ep.Close() })
	in := tap(tr.Runtime(), ep)
	e := ep.(*tcpEndpoint)

	f.Fuzz(func(t *testing.T, data []byte) {
		client, server := net.Pipe()
		done := make(chan struct{})
		go func() {
			defer close(done)
			e.serveConn(server)
		}()
		go io.Copy(io.Discard, client) // net.Pipe is unbuffered: take the answer byte
		client.SetWriteDeadline(time.Now().Add(2 * handshakeTimeout))
		client.Write(data) // fails early when serveConn refuses and closes
		client.Close()
		select {
		case <-done:
		case <-time.After(2 * handshakeTimeout):
			t.Fatal("serveConn still running after the peer hung up")
		}
		for { // whatever decoded was delivered; drain it for the next input
			if _, ok := in.TryRecv(); !ok {
				break
			}
		}
	})
}
