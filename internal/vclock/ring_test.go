package vclock

import (
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// Len returns the number of buffered values.
func (c *Chan[T]) Len() int {
	c.sim.mu.Lock()
	defer c.sim.mu.Unlock()
	return c.n
}

// TestChanRingFIFO: random bursts of sends and receives on a buffered
// channel — wrapping the ring and growing it mid-wrap — deliver in send
// order and report the buffered count.
func TestChanRingFIFO(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := NewChan[int](New(), "ring")
	var want []int
	next := 0
	for step := 0; step < 2000; step++ {
		if rng.Intn(3) > 0 || len(want) == 0 {
			for k := rng.Intn(5); k >= 0; k-- {
				c.Send(next)
				want = append(want, next)
				next++
			}
		} else {
			for k := rng.Intn(5); k >= 0 && len(want) > 0; k-- {
				v, ok := c.TryRecv()
				if !ok || v != want[0] {
					t.Fatalf("step %d: got %d, %v; want %d", step, v, ok, want[0])
				}
				want = want[1:]
			}
		}
		if c.Len() != len(want) {
			t.Fatalf("step %d: Len %d, want %d", step, c.Len(), len(want))
		}
	}
}

// TestChanReleasesReceived: once a value is received — by TryRecv or by
// a blocked process's Recv — the channel keeps nothing of it reachable,
// so a drained mailbox does not pin its last burst.
func TestChanReleasesReceived(t *testing.T) {
	type payload struct{ window [64]float64 }
	for _, via := range []string{"TryRecv", "Recv"} {
		t.Run(via, func(t *testing.T) {
			s := New()
			c := NewChan[*payload](s, "box")
			collected := make(chan struct{})
			p := &payload{}
			runtime.AddCleanup(p, func(done chan struct{}) { close(done) }, collected)
			c.Send(p)
			c.Send(&payload{}) // a neighbour stays buffered
			p = nil
			if via == "TryRecv" {
				if v, ok := c.TryRecv(); !ok || v == nil {
					t.Fatal("nothing received")
				}
			} else {
				s.Go("recv", func() { c.Recv() })
				if err := s.Run(); err != nil {
					t.Fatal(err)
				}
			}
			deadline := time.Now().Add(5 * time.Second)
			for {
				runtime.GC()
				select {
				case <-collected:
					runtime.KeepAlive(c)
					return
				case <-time.After(10 * time.Millisecond):
				}
				if time.Now().After(deadline) {
					t.Fatal("a received value is still reachable from the channel")
				}
			}
		})
	}
}

// TestChanBufferedCyclesAllocateNothing: once the ring has grown to a
// burst's size, buffering and draining that burst again allocates
// nothing.
func TestChanBufferedCyclesAllocateNothing(t *testing.T) {
	type msg struct {
		body []float64
		to   string
	}
	c := NewChan[msg](New(), "box")
	m := msg{body: make([]float64, 8), to: "h"}
	burst := func() {
		for k := 0; k < 12; k++ {
			c.Send(m)
		}
		for k := 0; k < 12; k++ {
			c.TryRecv()
		}
	}
	burst() // warm-up: the ring grows once
	if got := testing.AllocsPerRun(100, burst); got != 0 {
		t.Errorf("a buffered send/receive cycle allocates %.1f objects, want 0", got)
	}
}

// TestPostFiresInOrderAndRecycles: Post callbacks interleave with After
// callbacks in (time, scheduling order) exactly as After's own would,
// and a fired Post event goes back to the pool holding no callback, to
// be taken by the next Post.
func TestPostFiresInOrderAndRecycles(t *testing.T) {
	s := New()
	var got []int
	s.After(2*time.Millisecond, func() { got = append(got, 3) })
	s.Post(time.Millisecond, func() { got = append(got, 1) })
	s.Post(2*time.Millisecond, func() { got = append(got, 4) })
	s.After(time.Millisecond, func() { got = append(got, 2) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []int{1, 2, 3, 4}; len(got) != 4 || got[0] != 1 || got[1] != 2 || got[2] != 3 || got[3] != 4 {
		t.Fatalf("fired %v, want %v", got, want)
	}
	if len(s.evFree) != 2 {
		t.Fatalf("%d events pooled after two Posts, want 2", len(s.evFree))
	}
	for _, e := range s.evFree {
		if e.fn != nil || e.resume != nil || !e.pooled {
			t.Errorf("pooled event keeps a payload: fn %v resume %v pooled %v", e.fn != nil, e.resume != nil, e.pooled)
		}
	}
	top := s.evFree[len(s.evFree)-1]
	s.Post(0, func() {})
	if s.events[0].ev != top {
		t.Error("Post built a new event instead of taking a pooled one")
	}
	if top.canceled || top.fired {
		t.Error("a reused event keeps its last use's state")
	}
}
