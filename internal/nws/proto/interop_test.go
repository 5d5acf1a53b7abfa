package proto

import (
	"encoding/gob"
	"net"
	"reflect"
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
// reply at the request's version, so tests can verify payload fidelity
// across whatever encoding the connection negotiated.
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

func interopCall(t *testing.T, from *Station, to string, version int) {
	t.Helper()
	reply, err := from.Call(to, Message{Type: MsgBatchFetch, Version: version,
		Queries: []SeriesRequest{{Series: "cpu.a", Count: 2}, {Series: "cpu.b"}}}, 5*time.Second)
	if err != nil {
		t.Fatalf("call %s: %v", to, err)
	}
	if !reflect.DeepEqual(reply.Results, wantResults()) {
		t.Fatalf("call %s: results %+v", to, reply.Results)
	}
}

// TestInteropV3BothEnds: two V3 transports negotiate the compact codec
// and the telemetry counters record version-3 encodes with byte
// accounting on both directions.
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

	interopCall(t, sa, "b", V3)

	// The replier counts its encode after the write returns, which can be
	// after the caller already holds the reply: wait for it.
	flat := reg.Snapshot().Flatten()
	deadline := time.Now().Add(2 * time.Second)
	for flat["proto/encode_total{version=3}"] < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
		flat = reg.Snapshot().Flatten()
	}
	if flat["proto/encode_total{version=3}"] < 2 { // request + reply
		t.Fatalf("want >=2 v3 encodes, metrics %v", flat)
	}
	if flat["proto/bytes_out"] <= 0 || flat["proto/bytes_in"] <= 0 {
		t.Fatalf("byte counters not moving: %v", flat)
	}
}

// TestInteropV3DialsV2CappedPeer: a current transport calling a peer
// capped at V2 falls back to gob on that connection and the batch
// round-trip is payload-identical.
func TestInteropV3DialsV2CappedPeer(t *testing.T) {
	reg := telemetry.New(nil)
	trA, trB := NewTCPTransport(), NewTCPTransportMaxVersion(V2)
	trA.SetTelemetry(reg)
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

	interopCall(t, sa, "b", V3)

	flat := reg.Snapshot().Flatten()
	if flat["proto/encode_total{version=2}"] < 1 {
		t.Fatalf("dialer should have fallen back to the v2 gob stream, metrics %v", flat)
	}
	if flat["proto/encode_total{version=3}"] != 0 {
		t.Fatalf("no v3 frames should exist on a v2-capped link, metrics %v", flat)
	}
}

// TestInteropV2CappedDialsV3Peer: the reverse direction — an old-wire
// dialer reaching a current acceptor negotiates down and completes the
// same round-trip.
func TestInteropV2CappedDialsV3Peer(t *testing.T) {
	trA, trB := NewTCPTransportMaxVersion(V2), NewTCPTransport()
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

	interopCall(t, sa, "b", V2)
}

// TestInteropLegacyRawGobDialer: a peer that predates the handshake
// writes gob from byte zero; the acceptor must sniff the missing magic
// and serve the connection as a legacy gob stream.
func TestInteropLegacyRawGobDialer(t *testing.T) {
	tr := NewTCPTransport()
	ep, err := tr.Open("srv")
	if err != nil {
		t.Fatal(err)
	}
	st := NewStation(tr.Runtime(), ep)
	defer st.Close()

	addr, _ := tr.Addr("srv")
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	enc := gob.NewEncoder(conn)
	want := Message{Type: MsgStore, From: "legacy", ID: 7, Series: "cpu.x",
		Samples: []Sample{{At: 3 * time.Second, Value: 9.5}}}
	if err := enc.Encode(&want); err != nil {
		t.Fatal(err)
	}

	got, ok := st.Recv()
	if !ok {
		t.Fatal("station closed before delivery")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("legacy gob message mangled:\n got %+v\nwant %+v", got, want)
	}
}
