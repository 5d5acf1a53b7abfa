package proto

import (
	"testing"
	"time"

	"nwsenv/internal/simnet"
	"nwsenv/internal/vclock"
)

func pair(t testing.TB) (*vclock.Sim, *SimTransport) {
	t.Helper()
	topo := simnet.NewTopology()
	topo.AddHost("a", "10.0.0.1", "a", "x")
	topo.AddHost("b", "10.0.0.2", "b", "x")
	topo.AddRouter("r", "10.0.0.254", "r")
	topo.Connect("a", "r", simnet.LinkLatency(time.Millisecond))
	topo.Connect("r", "b", simnet.LinkLatency(time.Millisecond))
	sim := vclock.New()
	return sim, NewSimTransport(simnet.NewNetwork(sim, topo))
}

// tap registers an inbox as ep's handler, for tests that read a bare
// endpoint's arrivals.
func tap(rt Runtime, ep Endpoint) Inbox {
	in := rt.NewInbox("tap:" + ep.Host())
	ep.Handle(in.Send)
	return in
}

func TestSimCallRoundTrip(t *testing.T) {
	sim, tr := pair(t)
	epA, err := tr.Open("a")
	if err != nil {
		t.Fatal(err)
	}
	epB, err := tr.Open("b")
	if err != nil {
		t.Fatal(err)
	}
	sa := NewStation(tr.Runtime(), epA)
	sb := NewStation(tr.Runtime(), epB)

	sim.Go("server", func() {
		for {
			req, ok := sa.Recv()
			if !ok {
				return
			}
			sa.Reply(req, Message{Type: MsgPong, Count: req.Count * 2})
		}
	})
	var got Message
	var callErr error
	sim.Go("client", func() {
		got, callErr = sb.Call("a", Message{Type: MsgPing, Count: 21}, time.Second)
		sa.Close()
		sb.Close()
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if callErr != nil {
		t.Fatal(callErr)
	}
	if got.Type != MsgPong || got.Count != 42 {
		t.Fatalf("reply %+v", got)
	}
	// Round trip over 2×1ms latency each way: at least 4ms of virtual time.
	if sim.Now() < 4*time.Millisecond {
		t.Fatalf("virtual time %v, want >= 4ms", sim.Now())
	}
}

func TestSimCallTimeoutOnDeadHost(t *testing.T) {
	sim, tr := pair(t)
	epB, _ := tr.Open("b")
	sb := NewStation(tr.Runtime(), epB)
	tr.SetDown("a", true)
	var callErr error
	sim.Go("client", func() {
		_, callErr = sb.Call("a", Message{Type: MsgPing}, 500*time.Millisecond)
		sb.Close()
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if callErr == nil {
		t.Fatal("expected timeout calling a dead host")
	}
	if sim.Now() < 500*time.Millisecond {
		t.Fatalf("timed out early at %v", sim.Now())
	}
}

func TestSimSendToDownHostDropsSilently(t *testing.T) {
	sim, tr := pair(t)
	epA, _ := tr.Open("a")
	epB, _ := tr.Open("b")
	sa := NewStation(tr.Runtime(), epA)
	sb := NewStation(tr.Runtime(), epB)
	tr.SetDown("b", true)
	sim.Go("p", func() {
		if err := sa.Send("b", Message{Type: MsgPing}); err != nil {
			t.Errorf("send to down host should not error: %v", err)
		}
		sim.Sleep(100 * time.Millisecond)
		if _, ok := sb.RecvTimeout(time.Millisecond); ok {
			t.Error("down host received a message")
		}
		sa.Close()
		sb.Close()
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSimHostRecovery(t *testing.T) {
	sim, tr := pair(t)
	epA, _ := tr.Open("a")
	epB, _ := tr.Open("b")
	sa := NewStation(tr.Runtime(), epA)
	sb := NewStation(tr.Runtime(), epB)
	tr.SetDown("b", true)
	var gotAfterRecovery bool
	sim.Go("p", func() {
		sa.Send("b", Message{Type: MsgPing})
		sim.Sleep(time.Second)
		tr.SetDown("b", false)
		sa.Send("b", Message{Type: MsgPing})
		sim.Sleep(time.Second)
		_, gotAfterRecovery = sb.RecvTimeout(time.Millisecond)
		sa.Close()
		sb.Close()
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if !gotAfterRecovery {
		t.Fatal("recovered host did not receive")
	}
}

func TestSimDoubleOpenRejected(t *testing.T) {
	_, tr := pair(t)
	if _, err := tr.Open("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Open("a"); err == nil {
		t.Fatal("double open should fail")
	}
	if _, err := tr.Open("nope"); err == nil {
		t.Fatal("unknown host should fail")
	}
	if _, err := tr.Open("r"); err == nil {
		t.Fatal("router endpoint should fail")
	}
}

func TestLateReplyDropped(t *testing.T) {
	sim, tr := pair(t)
	epA, _ := tr.Open("a")
	epB, _ := tr.Open("b")
	sa := NewStation(tr.Runtime(), epA)
	sb := NewStation(tr.Runtime(), epB)
	sim.Go("server", func() {
		req, ok := sa.Recv()
		if !ok {
			return
		}
		// Reply far later than the client's timeout.
		tr.Runtime().Sleep(2 * time.Second)
		sa.Reply(req, Message{Type: MsgPong})
	})
	sim.Go("client", func() {
		if _, err := sb.Call("a", Message{Type: MsgPing}, 100*time.Millisecond); err == nil {
			t.Error("expected timeout")
		}
		// The late reply must not surface as an application message.
		if m, ok := sb.RecvTimeout(3 * time.Second); ok {
			t.Errorf("late reply leaked to app inbox: %+v", m)
		}
		sa.Close()
		sb.Close()
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestTCPTransportRoundTrip(t *testing.T) {
	tr := NewTCPTransport()
	epA, err := tr.Open("alpha")
	if err != nil {
		t.Fatal(err)
	}
	epB, err := tr.Open("beta")
	if err != nil {
		t.Fatal(err)
	}
	sa := NewStation(tr.Runtime(), epA)
	sb := NewStation(tr.Runtime(), epB)
	defer sa.Close()
	defer sb.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			req, ok := sa.Recv()
			if !ok {
				return
			}
			if req.Type == MsgBatchFetch {
				sa.Reply(req, Message{Type: MsgBatchFetchReply, Samples: []Sample{{At: time.Second, Value: 3.5}}})
			}
		}
	}()
	reply, err := sb.Call("alpha", Message{Type: MsgBatchFetch, Series: "bw.a.b"}, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(reply.Samples) != 1 || reply.Samples[0].Value != 3.5 {
		t.Fatalf("reply %+v", reply)
	}
	sa.Close()
	<-done
}

func TestTCPUnknownHost(t *testing.T) {
	tr := NewTCPTransport()
	ep, err := tr.Open("solo")
	if err != nil {
		t.Fatal(err)
	}
	st := NewStation(tr.Runtime(), ep)
	defer st.Close()
	if err := st.Send("ghost", Message{Type: MsgPing}); err == nil {
		t.Fatal("send to unregistered host should fail")
	}
}

func TestWireSizeGrowsWithSamples(t *testing.T) {
	small := (&Message{Type: MsgBatchFetchReply}).WireSize()
	big := (&Message{Type: MsgBatchFetchReply, Samples: make([]Sample, 100)}).WireSize()
	if big <= small {
		t.Fatalf("wire size small=%d big=%d", small, big)
	}
}

// pongServer answers every request st receives with a Pong until st
// closes.
func pongServer(st *Station) {
	for {
		req, ok := st.Recv()
		if !ok {
			return
		}
		st.Reply(req, Message{Type: MsgPong})
	}
}

// tcpStationPair opens stations "a" and "b" on one loopback TCP
// transport, closed when the test or benchmark ends.
func tcpStationPair(tb testing.TB) (sa, sb *Station) {
	tb.Helper()
	tr := NewTCPTransport()
	var st [2]*Station
	for i, host := range []string{"a", "b"} {
		ep, err := tr.Open(host)
		if err != nil {
			tb.Fatal(err)
		}
		st[i] = NewStation(tr.Runtime(), ep)
		tb.Cleanup(func() { st[i].Close() })
	}
	return st[0], st[1]
}

func TestTCPPeerRestartReconnects(t *testing.T) {
	tr := NewTCPTransport()
	epA, err := tr.Open("a")
	if err != nil {
		t.Fatal(err)
	}
	sa := NewStation(tr.Runtime(), epA)
	defer sa.Close()

	epB, err := tr.Open("b")
	if err != nil {
		t.Fatal(err)
	}
	sb := NewStation(tr.Runtime(), epB)
	go pongServer(sb)
	if _, err := sa.Call("b", Message{Type: MsgPing}, 2*time.Second); err != nil {
		t.Fatal(err)
	}

	// Restart b: the old listener dies, a new endpoint (new port) opens
	// under the same name; a's cached connection must be replaced.
	sb.Close()
	if _, err := sa.Call("b", Message{Type: MsgPing}, 500*time.Millisecond); err == nil {
		t.Fatal("call to closed peer should fail")
	}
	epB2, err := tr.Open("b")
	if err != nil {
		t.Fatal(err)
	}
	sb2 := NewStation(tr.Runtime(), epB2)
	defer sb2.Close()
	go pongServer(sb2)
	// The first call after restart may hit the stale cached conn; the
	// transport drops it and the retry succeeds.
	var callErr error
	for i := 0; i < 3; i++ {
		if _, callErr = sa.Call("b", Message{Type: MsgPing}, 2*time.Second); callErr == nil {
			break
		}
	}
	if callErr != nil {
		t.Fatalf("reconnect failed: %v", callErr)
	}
}

func TestSimTransportBlockedPairs(t *testing.T) {
	sim, tr := pair(t)
	epA, _ := tr.Open("a")
	epB, _ := tr.Open("b")
	sa := NewStation(tr.Runtime(), epA)
	sb := NewStation(tr.Runtime(), epB)
	tr.SetBlocked("a", "b", true)
	sim.Go("p", func() {
		if _, err := sa.Call("b", Message{Type: MsgPing}, 500*time.Millisecond); err == nil {
			t.Error("partitioned call should time out")
		}
		tr.SetBlocked("a", "b", false)
		if _, err := sa.Call("b", Message{Type: MsgPing}, 2*time.Second); err != nil {
			t.Errorf("healed call failed: %v", err)
		}
		sa.Close()
		sb.Close()
	})
	sim.Go("echo", func() {
		for {
			req, ok := sb.Recv()
			if !ok {
				return
			}
			sb.Reply(req, Message{Type: MsgPong})
		}
	})
	if err := sim.RunUntil(time.Minute); err != nil {
		t.Fatal(err)
	}
}

// TestTCPCallSurvivesUnservedBacklog: a station that is not serving its
// application inbox must still get the replies to its own calls. The
// peer floods it with one-way messages and then answers its ping on the
// same connection, so the reply sits behind the whole backlog; a bounded
// application mailbox wedges the socket reader before the reply is
// routed.
func TestTCPCallSurvivesUnservedBacklog(t *testing.T) {
	const backlog = 3000
	sa, sb := tcpStationPair(t)
	for i := 0; i < backlog; i++ {
		if err := sb.Send("a", Message{Type: MsgStore, Count: i}); err != nil {
			t.Fatal(err)
		}
	}
	go pongServer(sb)
	if _, err := sa.Call("b", Message{Type: MsgPing}, 2*time.Second); err != nil {
		t.Fatalf("call from a station with %d unserved messages: %v", backlog, err)
	}
	for i := 0; i < backlog; i++ {
		m, ok := sa.RecvTimeout(2 * time.Second)
		if !ok || m.Count != i {
			t.Fatalf("backlog message %d: got Count %d ok=%v", i, m.Count, ok)
		}
	}
}
