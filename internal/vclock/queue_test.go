package vclock

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// pendingEvents returns the number of queued (non-canceled) events.
func (s *Sim) pendingEvents() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.events) - s.dead + len(s.ready) - s.head
}

// TestCanceledTimersLeaveQueue: a timed receive answered long before its
// timeout cancels its timer, and the canceled timers are swept out of
// the heap instead of waiting there until they are due. Over 10k
// answered receives the heap stays within twice the live events plus
// the sweep floor, and the pool keeps no more events than that bound at
// the peak, plus slack for the events out of the heap while they fire.
func TestCanceledTimersLeaveQueue(t *testing.T) {
	s := New()
	req := NewChan[int](s, "req")
	resp := NewChan[int](s, "resp")
	const calls = 10000
	peakLen, peakLive, answered := 0, 0, 0
	check := func() {
		live := len(s.events) - s.dead
		peakLen, peakLive = max(peakLen, len(s.events)), max(peakLive, live)
		if len(s.events) > 2*live+sweepFloor {
			t.Fatalf("heap holds %d events, %d of them live", len(s.events), live)
		}
		if live != s.pendingEvents() {
			t.Fatalf("%d live events, pendingEvents %d", live, s.pendingEvents())
		}
	}
	s.Go("server", func() {
		for {
			v, ok := req.Recv()
			if !ok {
				return
			}
			s.Sleep(time.Millisecond)
			check()
			resp.Send(v)
		}
	})
	// A ticker keeps a live event ahead of the canceled timers, as the
	// other processes of a busy simulation do, so they are not simply
	// popped off the top of the heap.
	finished := false
	s.Go("ticker", func() {
		for !finished {
			s.Sleep(time.Millisecond / 2)
		}
	})
	s.Go("client", func() {
		for i := 0; i < calls; i++ {
			req.Send(i)
			if v, ok := resp.RecvTimeout(10 * time.Second); ok && v == i {
				answered++
			}
			check()
		}
		req.Close()
		finished = true
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if answered != calls {
		t.Fatalf("%d of %d receives answered", answered, calls)
	}
	if peakLen > 2*peakLive+sweepFloor {
		t.Fatalf("heap peaked at %d events with at most %d live", peakLen, peakLive)
	}
	if n := len(s.evFree); n > 2*peakLive+sweepFloor+2 {
		t.Fatalf("%d pooled events with at most %d live", n, peakLive)
	}
	if len(s.events) != 0 || s.dead != 0 {
		t.Fatalf("drained run left %d queued, %d dead", len(s.events), s.dead)
	}
}

// TestSweepKeepsEventOrder: sweeping canceled events out of the heap
// never reorders the live ones, user callbacks included.
func TestSweepKeepsEventOrder(t *testing.T) {
	s := New()
	var got []int
	var doomed []*Event
	for i := 0; i < 10*sweepFloor; i++ {
		at := time.Duration(i%7) * time.Millisecond
		if i%3 == 0 {
			s.At(at, func() { got = append(got, i) })
		} else {
			doomed = append(doomed, s.At(at, func() { t.Errorf("canceled event %d fired", i) }))
		}
	}
	for _, e := range doomed {
		e.Cancel()
	}
	if s.dead >= len(doomed) {
		t.Fatalf("%d of %d canceled events still queued: no sweep", s.dead, len(doomed))
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for k := 1; k < len(got); k++ {
		a, b := got[k-1], got[k]
		if a%7 > b%7 || (a%7 == b%7 && a > b) {
			t.Fatalf("event %d fired before %d", a, b)
		}
	}
	if len(got) != (10*sweepFloor+2)/3 {
		t.Fatalf("%d live events fired", len(got))
	}
}

// unlocked reports whether s.mu is free.
func unlocked(s *Sim) bool {
	if !s.mu.TryLock() {
		return false
	}
	s.mu.Unlock()
	return true
}

// A process that panics or exits at once after a resume — from a sleep
// or from a receive, where it holds the lock the switch handed it until
// its bookkeeping is done — leaves the Sim unlocked and runnable.
func TestLockHandoffPanicAndGoexitAfterResume(t *testing.T) {
	for _, tc := range []struct {
		name  string
		block func(s *Sim, c *Chan[int])
		end   func()
	}{
		{"sleep/panic", func(s *Sim, _ *Chan[int]) { s.Sleep(time.Second) }, func() { panic("after resume") }},
		{"recv/panic", func(_ *Sim, c *Chan[int]) { c.Recv() }, func() { panic("after resume") }},
		{"timed-recv/panic", func(_ *Sim, c *Chan[int]) { c.RecvTimeout(time.Minute) }, func() { panic("after resume") }},
		{"sleep/goexit", func(s *Sim, _ *Chan[int]) { s.Sleep(time.Second) }, runtime.Goexit},
		{"recv/goexit", func(_ *Sim, c *Chan[int]) { c.Recv() }, runtime.Goexit},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New()
			c := NewChan[int](s, "c")
			s.Go("dies", func() {
				tc.block(s, c)
				tc.end()
			})
			s.After(time.Second, func() { c.Send(1) })
			later := false
			s.Go("bystander", func() {
				s.Sleep(time.Hour)
				later = true
			})
			done := make(chan struct{})
			go func() {
				defer close(done)
				defer func() { recover() }()
				s.Run()
			}()
			<-done
			if !unlocked(s) {
				t.Fatal("the Sim is left locked")
			}
			if err := s.Run(); err != nil {
				t.Fatal(err)
			}
			if !later || s.Processes() != 0 {
				t.Fatalf("Sim not runnable: bystander ran %v, %d processes", later, s.Processes())
			}
		})
	}
}

// Stop called by a process takes effect once it blocks, with the lock
// back in the scheduler's hands, and a later Run carries on.
func TestLockHandoffStopFromProcess(t *testing.T) {
	s := New()
	c := NewChan[int](s, "c")
	steps := 0
	s.Go("stopper", func() {
		c.Recv()
		steps++
		s.Stop()
		s.Sleep(time.Second)
		steps++
	})
	s.Go("sender", func() { c.Send(1) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if steps != 1 || !unlocked(s) || s.Now() != 0 {
		t.Fatalf("after Stop: %d steps at %v, unlocked %v", steps, s.Now(), unlocked(s))
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if steps != 2 || s.Processes() != 0 {
		t.Fatalf("resumed run: %d steps, %d processes", steps, s.Processes())
	}
}

// BenchmarkTimedRecvAnswered is a RecvTimeout answered before its
// timeout, the shape of every simulated call: the canceled timer must
// leave the queue, not wait in it for its due time.
func BenchmarkTimedRecvAnswered(b *testing.B) {
	s := New()
	req := NewChan[int](s, "req")
	resp := NewChan[int](s, "resp")
	s.Go("server", func() {
		for {
			v, ok := req.Recv()
			if !ok {
				return
			}
			resp.Send(v)
		}
	})
	queued := 0
	s.Go("client", func() {
		for i := 0; i < b.N; i++ {
			req.Send(i)
			resp.RecvTimeout(10 * time.Second)
			queued += len(s.events)
		}
		req.Close()
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(queued)/float64(b.N), "queued-events")
}

// TestReadyKeepsSeqOrder: a resume due now skips the heap, yet fires in
// sequence order with the heap's events at the same instant — after a
// callback scheduled for now before it, before one scheduled after it.
func TestReadyKeepsSeqOrder(t *testing.T) {
	s := New()
	var got []string
	c := NewChan[int](s, "c")
	s.Go("recv", func() {
		c.Recv()
		got = append(got, "woken")
	})
	s.At(time.Second, func() {
		s.At(time.Second, func() { got = append(got, "before") })
		c.Send(1) // the wake is readied here, between the two callbacks
		s.At(time.Second, func() { got = append(got, "after") })
		s.Go("spawned", func() { got = append(got, "spawned") })
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if want := "before woken after spawned"; strings.Join(got, " ") != want {
		t.Fatalf("fired %q, want %q", strings.Join(got, " "), want)
	}
}
