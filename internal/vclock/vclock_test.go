package vclock

import (
	"fmt"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestSleepAdvancesClock(t *testing.T) {
	s := New()
	var at time.Duration
	s.Go("p", func() {
		s.Sleep(5 * time.Second)
		at = s.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 5*time.Second {
		t.Fatalf("woke at %v, want 5s", at)
	}
	if s.Now() != 5*time.Second {
		t.Fatalf("final clock %v, want 5s", s.Now())
	}
}

func TestZeroSleepRunsImmediately(t *testing.T) {
	s := New()
	ran := false
	s.Go("p", func() {
		s.Sleep(0)
		ran = true
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("process did not run")
	}
	if s.Now() != 0 {
		t.Fatalf("clock advanced to %v on zero sleep", s.Now())
	}
}

func TestNegativeSleepClamped(t *testing.T) {
	s := New()
	s.Go("p", func() { s.Sleep(-time.Second) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if s.Now() != 0 {
		t.Fatalf("clock %v, want 0", s.Now())
	}
}

func TestEventOrderingDeterministic(t *testing.T) {
	// Events at the same timestamp fire in scheduling order.
	for trial := 0; trial < 10; trial++ {
		s := New()
		var order []int
		for i := 0; i < 20; i++ {
			i := i
			s.At(time.Second, func() { order = append(order, i) })
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		for i, v := range order {
			if v != i {
				t.Fatalf("trial %d: order[%d] = %d", trial, i, v)
			}
		}
	}
}

func TestInterleavedSleepers(t *testing.T) {
	s := New()
	var order []string
	add := func(tag string) { order = append(order, tag) }
	s.Go("a", func() {
		s.Sleep(2 * time.Second)
		add("a2")
		s.Sleep(2 * time.Second)
		add("a4")
	})
	s.Go("b", func() {
		s.Sleep(1 * time.Second)
		add("b1")
		s.Sleep(2 * time.Second)
		add("b3")
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"b1", "a2", "b3", "a4"}
	if len(order) != len(want) {
		t.Fatalf("order %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
}

func TestEventCancel(t *testing.T) {
	s := New()
	fired := false
	ev := s.At(time.Second, func() { fired = true })
	if !ev.Cancel() {
		t.Fatal("Cancel returned false on pending event")
	}
	if ev.Cancel() {
		t.Fatal("second Cancel returned true")
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("canceled event fired")
	}
}

func TestRunUntilStopsAtDeadline(t *testing.T) {
	s := New()
	var fired []time.Duration
	for _, d := range []time.Duration{time.Second, 2 * time.Second, 5 * time.Second} {
		d := d
		s.At(d, func() { fired = append(fired, d) })
	}
	if err := s.RunUntil(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 2 {
		t.Fatalf("fired %v, want first two", fired)
	}
	if s.Now() != 3*time.Second {
		t.Fatalf("clock %v, want 3s", s.Now())
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 3 {
		t.Fatalf("fired %v after resume, want three", fired)
	}
}

func TestChanSendRecv(t *testing.T) {
	s := New()
	ch := NewChan[int](s, "test")
	var got []int
	s.Go("recv", func() {
		for i := 0; i < 3; i++ {
			v, ok := ch.Recv()
			if !ok {
				t.Error("unexpected close")
				return
			}
			got = append(got, v)
		}
	})
	s.Go("send", func() {
		for i := 1; i <= 3; i++ {
			s.Sleep(time.Second)
			ch.Send(i * 10)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 10 || got[1] != 20 || got[2] != 30 {
		t.Fatalf("got %v", got)
	}
}

func TestChanBuffersWhenNoReceiver(t *testing.T) {
	s := New()
	ch := NewChan[string](s, "buf")
	ch.Send("early")
	var got string
	s.Go("p", func() { got, _ = ch.Recv() })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got != "early" {
		t.Fatalf("got %q", got)
	}
}

func TestChanClose(t *testing.T) {
	s := New()
	ch := NewChan[int](s, "c")
	ch.Send(7)
	var vals []int
	var oks []bool
	s.Go("p", func() {
		for i := 0; i < 2; i++ {
			v, ok := ch.Recv()
			vals = append(vals, v)
			oks = append(oks, ok)
		}
	})
	s.Go("closer", func() {
		s.Sleep(time.Second)
		ch.Close()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !oks[0] || vals[0] != 7 {
		t.Fatalf("first recv %v %v", vals[0], oks[0])
	}
	if oks[1] {
		t.Fatal("second recv should report closed")
	}
}

func TestChanRecvTimeout(t *testing.T) {
	s := New()
	ch := NewChan[int](s, "t")
	var ok bool
	var when time.Duration
	s.Go("p", func() {
		_, ok = ch.RecvTimeout(3 * time.Second)
		when = s.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("expected timeout")
	}
	if when != 3*time.Second {
		t.Fatalf("timed out at %v", when)
	}
}

func TestChanRecvTimeoutDelivery(t *testing.T) {
	s := New()
	ch := NewChan[int](s, "t")
	var got int
	var ok bool
	s.Go("p", func() { got, ok = ch.RecvTimeout(10 * time.Second) })
	s.Go("send", func() {
		s.Sleep(time.Second)
		ch.Send(42)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !ok || got != 42 {
		t.Fatalf("got %v ok=%v", got, ok)
	}
	if s.Now() != time.Second {
		t.Fatalf("clock %v: timeout event should be inert after delivery", s.Now())
	}
}

func TestTryRecv(t *testing.T) {
	s := New()
	ch := NewChan[int](s, "t")
	if _, ok := ch.TryRecv(); ok {
		t.Fatal("TryRecv on empty chan returned ok")
	}
	ch.Send(1)
	if v, ok := ch.TryRecv(); !ok || v != 1 {
		t.Fatalf("TryRecv = %v %v", v, ok)
	}
}

func TestDeadlockDetection(t *testing.T) {
	s := New()
	ch := NewChan[int](s, "never")
	s.Go("stuck", func() { ch.Recv() })
	err := s.Run()
	if err == nil {
		t.Fatal("expected deadlock error")
	}
}

func TestGoBeforeRunDoesNotStart(t *testing.T) {
	s := New()
	var started atomic.Bool
	s.Go("p", func() { started.Store(true) })
	time.Sleep(10 * time.Millisecond)
	if started.Load() {
		t.Fatal("process started before Run")
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !started.Load() {
		t.Fatal("process never ran")
	}
}

func TestNestedGo(t *testing.T) {
	s := New()
	depth := 0
	var spawn func(n int)
	spawn = func(n int) {
		if n == 0 {
			return
		}
		s.Go("child", func() {
			s.Sleep(time.Second)
			depth++
			spawn(n - 1)
		})
	}
	spawn(5)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if depth != 5 {
		t.Fatalf("depth %d", depth)
	}
	if s.Now() != 5*time.Second {
		t.Fatalf("clock %v", s.Now())
	}
}

func TestStop(t *testing.T) {
	s := New()
	count := 0
	s.Go("p", func() {
		for i := 0; i < 100; i++ {
			s.Sleep(time.Second)
			count++
			if count == 10 {
				s.Stop()
			}
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if count != 10 {
		t.Fatalf("count %d, want 10", count)
	}
}

func TestManyProcessesFIFOFairness(t *testing.T) {
	// All processes sleeping until the same instant wake in spawn order.
	s := New()
	var order []int
	for i := 0; i < 50; i++ {
		i := i
		s.Go("p", func() {
			s.Sleep(time.Second)
			order = append(order, i)
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d", i, v)
		}
	}
}

// TestPropertyClockMonotonic checks with random workloads that observed
// time never goes backwards and every sleeper wakes exactly on schedule.
func TestPropertyClockMonotonic(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		okAll := true
		var last time.Duration
		n := 5 + rng.Intn(20)
		for i := 0; i < n; i++ {
			delays := make([]time.Duration, 1+rng.Intn(5))
			for j := range delays {
				delays[j] = time.Duration(rng.Intn(1000)) * time.Millisecond
			}
			s.Go("p", func() {
				start := s.Now()
				var total time.Duration
				for _, d := range delays {
					s.Sleep(d)
					total += d
					if s.Now() != start+total {
						okAll = false
					}
					if s.Now() < last {
						okAll = false
					}
					last = s.Now()
				}
			})
		}
		if err := s.Run(); err != nil {
			return false
		}
		return okAll
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyChanFIFO checks that values arrive in send order for random
// send/recv schedules.
func TestPropertyChanFIFO(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		ch := NewChan[int](s, "fifo")
		n := 1 + rng.Intn(100)
		var got []int
		s.Go("recv", func() {
			for i := 0; i < n; i++ {
				v, ok := ch.Recv()
				if !ok {
					return
				}
				got = append(got, v)
			}
		})
		s.Go("send", func() {
			for i := 0; i < n; i++ {
				if rng.Intn(2) == 0 {
					s.Sleep(time.Duration(rng.Intn(50)) * time.Millisecond)
				}
				ch.Send(i)
			}
		})
		if err := s.Run(); err != nil {
			return false
		}
		if len(got) != n {
			return false
		}
		for i, v := range got {
			if v != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSleepEvents(b *testing.B) {
	s := New()
	s.Go("p", func() {
		for i := 0; i < b.N; i++ {
			s.Sleep(time.Millisecond)
		}
	})
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkChanRoundTrip(b *testing.B) {
	s := New()
	req := NewChan[int](s, "req")
	resp := NewChan[int](s, "resp")
	s.Go("server", func() {
		for {
			v, ok := req.Recv()
			if !ok {
				return
			}
			resp.Send(v + 1)
		}
	})
	s.Go("client", func() {
		for i := 0; i < b.N; i++ {
			req.Send(i)
			resp.Recv()
		}
		req.Close()
	})
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}

func TestEventWhenAndPending(t *testing.T) {
	s := New()
	ev := s.At(3*time.Second, func() {})
	if ev.When() != 3*time.Second {
		t.Fatalf("When %v", ev.When())
	}
	s.After(5*time.Second, func() {})
	if n := s.pendingEvents(); n != 2 {
		t.Fatalf("pending %d", n)
	}
	ev.Cancel()
	if n := s.pendingEvents(); n != 1 {
		t.Fatalf("pending after cancel %d", n)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestProcessesCount(t *testing.T) {
	s := New()
	ch := NewChan[int](s, "gate")
	for i := 0; i < 3; i++ {
		s.Go("p", func() { ch.Recv() })
	}
	if n := s.Processes(); n != 3 {
		t.Fatalf("processes %d", n)
	}
	s.Go("release", func() {
		for i := 0; i < 3; i++ {
			ch.Send(i)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if n := s.Processes(); n != 0 {
		t.Fatalf("processes after run %d", n)
	}
}

func TestStopFromEventCallback(t *testing.T) {
	s := New()
	fired := 0
	s.At(time.Second, func() { fired++; s.Stop() })
	s.At(2*time.Second, func() { fired++ })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("fired %d, want 1 (Stop should halt the schedule)", fired)
	}
	// Resume afterwards processes the remaining event.
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 2 {
		t.Fatalf("fired %d after resume", fired)
	}
}

func TestChanCloseIdempotentAndSendPanics(t *testing.T) {
	s := New()
	ch := NewChan[int](s, "c")
	ch.Close()
	ch.Close() // no panic
	defer func() {
		if recover() == nil {
			t.Fatal("send on closed chan should panic")
		}
	}()
	ch.Send(1)
}

// TestSettleWaitsOutTheInstant: a settling process resumes only once
// nothing else is due at its instant, events and wakes scheduled for
// that instant after it settled included, without moving the clock;
// two settlers resume one at a time, in the order they settled.
func TestSettleWaitsOutTheInstant(t *testing.T) {
	sim := New()
	var log []string
	note := func(s string) { log = append(log, fmt.Sprintf("%s@%v", s, sim.Now())) }
	sim.At(time.Second, func() {
		sim.Go("settler", func() {
			sim.Settle()
			note("settled")
			sim.At(sim.Now(), func() { note("after-settled") })
		})
		sim.Go("second", func() {
			sim.Settle()
			note("second")
		})
		sim.Go("chain", func() {
			note("chain")
			sim.Go("spawned", func() {
				sim.Sleep(0)
				note("spawned")
				sim.At(sim.Now(), func() { note("at-now") })
			})
		})
	})
	sim.At(time.Second, func() { note("event") })
	sim.At(2*time.Second, func() { note("later") })
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"event@1s", "chain@1s", "spawned@1s", "at-now@1s", "settled@1s", "after-settled@1s", "second@1s", "later@2s"}
	if !slices.Equal(log, want) {
		t.Fatalf("order %v, want %v", log, want)
	}
}

// TestSettleOutsideProcessPanics: only a process can wait out an instant.
func TestSettleOutsideProcessPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Settle outside a process did not panic")
		}
	}()
	New().Settle()
}

// TestResetOrdersAsCancelAndAt: re-arming one event with Reset fires the
// callbacks in exactly the order that canceling it and scheduling a
// fresh one with At gives, among other events at the same instants,
// whether the event was pending, fired or canceled when re-armed, and
// with enough re-arms to sweep the dead slots they leave.
func TestResetOrdersAsCancelAndAt(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		run := func(reset bool) []string {
			s := New()
			rng := rand.New(rand.NewSource(seed))
			var log []string
			var ev *Event
			armed := false
			fire := func() { armed = false; log = append(log, fmt.Sprintf("%d armed", s.Now())) }
			for i := 0; i < 300; i++ {
				at := time.Duration(rng.Intn(40)) * time.Millisecond
				s.At(at, func() { log = append(log, fmt.Sprintf("%d e%d", s.Now(), i)) })
				switch due := time.Duration(rng.Intn(40)) * time.Millisecond; {
				case rng.Intn(5) == 0 && armed:
					ev.Cancel()
					armed = false
				case reset && ev != nil:
					ev.Reset(due)
					armed = true
				default:
					if armed {
						ev.Cancel()
					}
					ev, armed = s.At(due, fire), true
				}
				if rng.Intn(7) == 0 {
					if err := s.RunUntil(s.Now() + time.Duration(rng.Intn(10))*time.Millisecond); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := s.Run(); err != nil {
				t.Fatal(err)
			}
			return log
		}
		want, got := run(false), run(true)
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d: Reset fires in another order than Cancel and At:\n got %v\nwant %v", seed, got, want)
		}
	}
}
