package proto

import (
	"testing"
	"time"

	"nwsenv/internal/vclock"
)

// inboxRuntimes runs body once per Runtime implementation. Under the
// simulator body is a process and the run ends when every process it
// spawned has; on the real runtime body must itself wait (through an
// inbox) for whatever it spawns.
var inboxRuntimes = []struct {
	name string
	run  func(t *testing.T, body func(rt Runtime))
}{
	{"sim", func(t *testing.T, body func(rt Runtime)) {
		sim := vclock.New()
		sim.Go("conformance", func() { body(NewSimRuntime(sim)) })
		if err := sim.Run(); err != nil {
			t.Fatal(err)
		}
	}},
	{"real", func(t *testing.T, body func(rt Runtime)) { body(NewRealRuntime()) }},
}

func numbered(i int) *Message { return &Message{Type: MsgPing, ID: int64(i)} }

// wantNext reports whether the next message of box, taken by one of the
// three receive calls in rotation, is number i. The helpers and cases
// use t.Errorf and return: what a case spawns with rt.Go is, on the
// real runtime, a goroutine other than the test's. (Under the simulator
// t.Fatal in a process would do the right thing — vclock carries a
// process's Goexit to the goroutine that called Run — but the cases are
// written once for both runtimes.)
func wantNext(t *testing.T, box Inbox, i int) bool {
	t.Helper()
	var m *Message
	var ok bool
	switch i % 3 {
	case 0:
		m, ok = box.Recv()
	case 1:
		m, ok = box.TryRecv()
	default:
		m, ok = box.RecvTimeout(time.Hour)
	}
	if !ok || m.ID != int64(i) {
		t.Errorf("message %d: got %+v ok=%v", i, m, ok)
		return false
	}
	return true
}

func wantEmptyAndClosed(t *testing.T, box Inbox) {
	t.Helper()
	if m, ok := box.TryRecv(); ok {
		t.Errorf("TryRecv on a drained closed box delivered %+v", m)
	}
	if m, ok := box.Recv(); ok {
		t.Errorf("Recv on a drained closed box delivered %+v", m)
	}
	if m, ok := box.RecvTimeout(time.Hour); ok {
		t.Errorf("RecvTimeout on a drained closed box delivered %+v", m)
	}
}

// inboxContract is the Inbox contract both runtimes implement; every
// case runs against a fresh inbox on each.
var inboxContract = []struct {
	name string
	body func(t *testing.T, rt Runtime, box Inbox)
}{
	{"fifo across interleaved sends and receives", func(t *testing.T, rt Runtime, box Inbox) {
		// Partial drains between bursts make a ring wrap and grow with
		// its head off zero.
		sent, got := 0, 0
		for _, step := range []struct{ send, recv int }{{3, 2}, {6, 1}, {20, 25}, {1, 0}, {100, 102}} {
			for i := 0; i < step.send; i++ {
				box.Send(numbered(sent))
				sent++
			}
			for i := 0; i < step.recv; i++ {
				if !wantNext(t, box, got) {
					return
				}
				got++
			}
		}
		if _, ok := box.TryRecv(); ok || got != sent {
			t.Errorf("sent %d, received %d, box still non-empty=%v", sent, got, ok)
		}
	}},
	{"residual messages are delivered after Close, then ok=false", func(t *testing.T, rt Runtime, box Inbox) {
		for i := 0; i < 3; i++ {
			box.Send(numbered(i))
		}
		box.Close()
		box.Close() // idempotent
		for i := 0; i < 3; i++ {
			if !wantNext(t, box, i) {
				return
			}
		}
		wantEmptyAndClosed(t, box)
	}},
	{"Send after Close neither blocks nor delivers", func(t *testing.T, rt Runtime, box Inbox) {
		box.Close()
		for i := 0; i < 2000; i++ {
			box.Send(numbered(i))
		}
		wantEmptyAndClosed(t, box)
	}},
	{"RecvTimeout expires on an empty box", func(t *testing.T, rt Runtime, box Inbox) {
		start := rt.Now()
		if m, ok := box.RecvTimeout(20 * time.Millisecond); ok {
			t.Errorf("empty box delivered %+v", m)
			return
		}
		if waited := rt.Now() - start; waited < 20*time.Millisecond {
			t.Errorf("timed out after %v, want >= 20ms", waited)
		}
	}},
	{"RecvTimeout returns at once on a non-empty box", func(t *testing.T, rt Runtime, box Inbox) {
		box.Send(numbered(7))
		start := rt.Now()
		if m, ok := box.RecvTimeout(time.Hour); !ok || m.ID != 7 {
			t.Errorf("got %+v ok=%v", m, ok)
			return
		}
		if waited := rt.Now() - start; waited > time.Minute {
			t.Errorf("a queued message took %v", waited)
		}
	}},
	{"Close releases a parked receiver", func(t *testing.T, rt Runtime, box Inbox) {
		released := rt.NewInbox("released")
		rt.Go("parked", func() {
			if _, ok := box.Recv(); !ok {
				released.Send(&Message{})
			}
			released.Close()
		})
		rt.Sleep(5 * time.Millisecond)
		box.Close()
		if _, ok := released.RecvTimeout(5 * time.Second); !ok {
			t.Error("receiver parked in Recv was not released with ok=false")
		}
	}},
	{"N tokens and N concurrent receivers each get exactly one", func(t *testing.T, rt Runtime, box Inbox) {
		// The gateway's admission semaphore: every receiver that takes a
		// token while others remain must pass the wake-up on.
		const n = 8
		for round := 0; round < 50; round++ {
			took := rt.NewInbox("took")
			for r := 0; r < n; r++ {
				rt.Go("receiver", func() {
					if m, ok := box.Recv(); ok {
						took.Send(m)
					}
				})
			}
			if round%2 == 1 {
				rt.Sleep(time.Millisecond) // let them park first
			}
			for i := 0; i < n; i++ {
				box.Send(numbered(i))
			}
			seen := [n]bool{}
			for i := 0; i < n; i++ {
				m, ok := took.RecvTimeout(5 * time.Second)
				if !ok {
					t.Errorf("round %d: %d of %d receivers got a token: a wake-up was lost", round, i, n)
					return
				}
				if seen[m.ID] {
					t.Errorf("round %d: token %d delivered twice", round, m.ID)
					return
				}
				seen[m.ID] = true
			}
			if m, ok := box.TryRecv(); ok {
				t.Errorf("round %d: a token was left over: %+v", round, m)
				return
			}
			took.Close()
		}
	}},
	{"Close under concurrent senders and receivers releases everyone", func(t *testing.T, rt Runtime, box Inbox) {
		const senders, receivers, each = 4, 3, 500
		finished := rt.NewInbox("finished")
		for s := 0; s < senders; s++ {
			rt.Go("sender", func() {
				for i := 0; i < each; i++ {
					box.Send(&Message{Type: MsgPing, From: string(rune('a' + s)), ID: int64(i)})
					if i%50 == 0 {
						rt.Sleep(time.Microsecond)
					}
				}
				finished.Send(&Message{})
			})
		}
		for r := 0; r < receivers; r++ {
			rt.Go("receiver", func() {
				got := 0
				for {
					if _, ok := box.Recv(); !ok {
						break
					}
					got++
				}
				finished.Send(&Message{Count: got})
			})
		}
		rt.Sleep(20 * time.Microsecond)
		box.Close()
		total := 0
		for i := 0; i < senders+receivers; i++ {
			m, ok := finished.RecvTimeout(5 * time.Second)
			if !ok {
				t.Errorf("%d of %d senders and receivers finished after Close", i, senders+receivers)
				return
			}
			total += m.Count
		}
		if total > senders*each {
			t.Errorf("received %d messages, only %d were sent", total, senders*each)
		}
	}},
	{"5000 Sends with no receiver return and come out in order", func(t *testing.T, rt Runtime, box Inbox) {
		for i := 0; i < 5000; i++ {
			box.Send(numbered(i))
		}
		for i := 0; i < 5000; i++ {
			if !wantNext(t, box, i) {
				return
			}
		}
		if m, ok := box.TryRecv(); ok {
			t.Errorf("box delivered a 5001st message: %+v", m)
		}
	}},
}

func TestInboxConformance(t *testing.T) {
	for _, rtc := range inboxRuntimes {
		for _, c := range inboxContract {
			t.Run(rtc.name+"/"+c.name, func(t *testing.T) {
				rtc.run(t, func(rt Runtime) { c.body(t, rt, rt.NewInbox("box")) })
			})
		}
	}
}

// TestRealInboxPopRearmsWake pins the hand-off the shared-receiver case
// above only hits by scheduling luck: sends coalesce into one wake token
// while nobody is parked, so a receiver woken by it that leaves a
// message behind must put a token back for the next parked receiver.
func TestRealInboxPopRearmsWake(t *testing.T) {
	box := NewRealRuntime().NewInbox("box").(*realInbox)
	box.Send(numbered(0))
	box.Send(numbered(1))
	for i := 0; i < 2; i++ {
		select {
		case <-box.wake:
		default:
			t.Fatalf("no wake token with %d messages queued", 2-i)
		}
		var m *Message
		if !box.pop(&m) || m.ID != int64(i) {
			t.Fatalf("pop %d: got %+v", i, m)
		}
	}
}

// TestRealInboxGivesBurstCapacityBack: a mailbox that grew in a burst
// returns its ring once drained, and a small one keeps its ring so the
// steady state does not allocate.
func TestRealInboxGivesBurstCapacityBack(t *testing.T) {
	box := NewRealRuntime().NewInbox("box").(*realInbox)
	for i := 0; i < 5000; i++ {
		box.Send(numbered(i))
	}
	if len(box.buf) < 5000 {
		t.Fatalf("ring of %d slots holds 5000 messages", len(box.buf))
	}
	for i := 0; i < 5000; i++ {
		if !wantNext(t, box, i) {
			t.FailNow()
		}
	}
	if len(box.buf) > inboxRetain {
		t.Fatalf("drained box retains %d slots, want <= %d", len(box.buf), inboxRetain)
	}

	for i := 0; i < inboxRetain; i++ {
		box.Send(numbered(i))
	}
	for i := 0; i < inboxRetain; i++ {
		if !wantNext(t, box, i) {
			t.FailNow()
		}
	}
	if len(box.buf) != inboxRetain {
		t.Fatalf("box drained from %d messages retains %d slots, want them kept", inboxRetain, len(box.buf))
	}
	m := &Message{}
	if allocs := testing.AllocsPerRun(100, func() {
		box.Send(m)
		box.Recv()
	}); allocs != 0 {
		t.Fatalf("steady-state Send+Recv allocates %v times", allocs)
	}
}
