package proto

import (
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
