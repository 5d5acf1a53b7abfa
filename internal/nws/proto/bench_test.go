package proto

import (
	"fmt"
	"testing"
	"time"
)

// BenchmarkRealInboxLifecycle is what a Station pays per timed-out
// call: make a mailbox, pass one message through it, drop it.
func BenchmarkRealInboxLifecycle(b *testing.B) {
	rt := NewRealRuntime()
	m := Message{Type: MsgPing}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		box := rt.NewInbox("bench")
		box.Send(m)
		if _, ok := box.Recv(); !ok {
			b.Fatal("message lost")
		}
		box.Close()
	}
}

// BenchmarkRealInboxPingPong is the steady-state hand-off between two
// goroutines through two long-lived mailboxes (one op = there and
// back): the cost a message pays between the socket reader and the
// caller, and the one number a mailbox change must not let grow.
func BenchmarkRealInboxPingPong(b *testing.B) {
	rt := NewRealRuntime()
	ping, pong := rt.NewInbox("ping"), rt.NewInbox("pong")
	go func() {
		for {
			m, ok := ping.Recv()
			if !ok {
				return
			}
			pong.Send(m)
		}
	}()
	m := Message{Type: MsgPing}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ping.Send(m)
		if _, ok := pong.Recv(); !ok {
			b.Fatal("message lost")
		}
	}
	b.StopTimer()
	ping.Close()
}

// BenchmarkStationCallTCP is one ping round trip between two stations on
// loopback TCP: encode, write, read, decode, then straight into the app
// inbox or the call box — each way.
func BenchmarkStationCallTCP(b *testing.B) {
	sa, sb := tcpStationPair(b)
	go pongServer(sb)
	call := func() {
		if _, err := sa.Call("b", Message{Type: MsgPing}, 5*time.Second); err != nil {
			b.Fatal(err)
		}
	}
	call() // dial both directions before timing
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		call()
	}
}

// BenchmarkSimDelivery is one simulated message from endpoint a to
// endpoint b's handler: the route lookup, the pooled delivery record
// and its pooled kernel event. It allocates nothing.
func BenchmarkSimDelivery(b *testing.B) {
	sim, tr := pair(b)
	epA, err := tr.Open("a")
	if err != nil {
		b.Fatal(err)
	}
	epB, err := tr.Open("b")
	if err != nil {
		b.Fatal(err)
	}
	got := 0
	epB.Handle(func(Message) { got++ })
	m := Message{Type: MsgPing, Queries: []SeriesRequest{{Series: "s", Count: 1}}}
	deliver := func() {
		if err := epA.Send("b", m); err != nil {
			b.Fatal(err)
		}
		if err := sim.Run(); err != nil {
			b.Fatal(err)
		}
	}
	deliver() // route cache and pools warm
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		deliver()
	}
	b.StopTimer()
	if got != b.N+1 {
		b.Fatalf("%d messages delivered, want %d", got, b.N+1)
	}
}

// codecSink keeps the sizing benchmarks' results live.
var codecSink int

// BenchmarkCodec is the wire codec alone: a 20-series fetch request
// encoded into a reused buffer, a clique token and that request priced
// (the simulator sizes every delivery), and 20-series replies of 8 and
// 256 samples a series decoded. Encoding and sizing allocate nothing; a
// decode allocates From, the Results slice, one string per series and
// one sample array, whatever the sample count (23).
func BenchmarkCodec(b *testing.B) {
	req := Message{Type: MsgQueryFetch, Version: V3, From: "client0", ID: 1 << 20}
	for i := 0; i < 20; i++ {
		req.Queries = append(req.Queries, SeriesRequest{Series: fmt.Sprintf("cpu.host-%03d", i), Count: 8})
	}
	token := Message{Type: MsgToken, From: "h3", ID: 10, Clique: "cl0", TokenSeq: 41, Epoch: 1 << 20}
	b.Run("encode_req20", func(b *testing.B) {
		buf := make([]byte, 0, 1<<12)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = AppendEncode(buf[:0], &req)
		}
	})
	for _, c := range []struct {
		name string
		m    *Message
	}{{"size_token", &token}, {"size_req20", &req}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				codecSink += EncodedSize(c.m)
			}
		})
	}
	for _, per := range []int{8, 256} {
		m := batchReply(20, per)
		enc := AppendEncode(nil, &m)
		b.Run(fmt.Sprintf("decode_reply20x%d", per), func(b *testing.B) {
			var out Message
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := Decode(enc, &out); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
