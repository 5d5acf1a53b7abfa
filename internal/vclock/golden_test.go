package vclock

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// goldenProgram runs a seeded random program over every kernel
// primitive, under schedule seed sched, and returns a hash of the
// (virtual time, process, op, value) log plus how the timed receives
// ended. The program's choices depend only on the seed and on what the
// kernel delivers, so the hash moves exactly when the kernel's event
// order does.
func goldenProgram(t *testing.T, seed int64, sched uint64) (hash uint64, lines, timeouts, beaten int) {
	t.Helper()
	const (
		nProcs = 60
		nSteps = 40
		nChans = 8
	)
	s := New()
	s.SetScheduleSeed(sched)
	h := fnv.New64a()
	log := func(id int, op string, v int) {
		fmt.Fprintf(h, "%d %d %s %d\n", s.Now(), id, op, v)
		lines++
	}
	chans := make([]*Chan[int], nChans)
	for i := range chans {
		chans[i] = NewChan[int](s, fmt.Sprintf("c%d", i))
	}
	nextID := nProcs
	var body func(id, steps int) func()
	body = func(id, steps int) func() {
		return func() {
			rng := rand.New(rand.NewSource(seed + int64(id)*7919))
			var pending []*Event
			log(id, "start", steps)
			for i := 0; i < steps; i++ {
				c := chans[rng.Intn(nChans)]
				switch rng.Intn(10) {
				case 0, 1:
					d := time.Duration(rng.Intn(4)) * time.Millisecond
					s.Sleep(d)
					log(id, "slept", int(d))
				case 2:
					s.Sleep(0) // yield to everything due now
					log(id, "yielded", 0)
				case 3, 4:
					log(id, "send", b2i(c.TrySend(id*1000+i)))
				case 5:
					v, ok := c.Recv()
					log(id, "recv", v*2+b2i(ok))
				case 6:
					before := s.Now()
					v, ok := c.RecvTimeout(time.Duration(rng.Intn(3)) * time.Millisecond)
					if !ok {
						timeouts++
					} else if s.Now() > before {
						beaten++ // blocked with the timer armed, then a send won
					}
					log(id, "recvT", v*2+b2i(ok))
				case 7:
					v, ok := c.TryRecv()
					log(id, "tryrecv", v*2+b2i(ok))
				case 8:
					if steps > 4 {
						child := nextID
						nextID++
						s.Go("child", body(child, steps/4))
						log(id, "go", child)
					}
				case 9:
					d := time.Duration(rng.Intn(5)) * time.Millisecond
					tag := id*1000 + i
					fire := func() {
						log(-1, "fired", tag)
						c.TrySend(-tag)
					}
					if rng.Intn(2) == 0 {
						pending = append(pending, s.After(d, fire))
					} else {
						pending = append(pending, s.At(s.Now()+d, fire))
					}
					if len(pending) > 1 && rng.Intn(2) == 0 {
						log(id, "cancel", b2i(pending[0].Cancel()))
						pending = pending[1:]
					}
				}
			}
			log(id, "end", 0)
		}
	}
	for id := 0; id < nProcs; id++ {
		s.Go("p", body(id, nSteps))
	}
	// Release every receiver still blocked once the traffic has died.
	s.At(time.Second, func() {
		log(-1, "close", 0)
		for _, c := range chans {
			c.Close()
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if n := s.Processes(); n != 0 {
		t.Fatalf("%d processes left", n)
	}
	fmt.Fprintf(h, "final %d\n", s.Now())
	return h.Sum64(), lines, timeouts, beaten
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestGoldenEventOrder pins the kernel's event order: the hashes were
// recorded on the goroutine-per-process kernel this one replaced and
// must never move, because every virtual-time number in the repo
// (E1–E16, lab-baselines/, the benchmark's _v_ metrics) hangs off it.
func TestGoldenEventOrder(t *testing.T) {
	golden := map[int64]uint64{
		1:        0x7f79b4eecf5eac3e,
		42:       0xeb857439467774f7,
		20040426: 0x7124bc398ea516ee,
	}
	for _, seed := range []int64{1, 42, 20040426} {
		hash, lines, timeouts, beaten := goldenProgram(t, seed, 0)
		if timeouts == 0 || beaten == 0 {
			t.Fatalf("seed %d: program does not cover both RecvTimeout outcomes (%d fired, %d beaten)", seed, timeouts, beaten)
		}
		if again, _, _, _ := goldenProgram(t, seed, 0); again != hash {
			t.Fatalf("seed %d: not deterministic: %#x then %#x", seed, hash, again)
		}
		t.Logf("seed %d: %d lines, %d timeouts, %d beaten, hash %#x", seed, lines, timeouts, beaten, hash)
		if want, ok := golden[seed]; !ok || hash != want {
			t.Errorf("seed %d: event order hash %#x, want %#x", seed, hash, want)
		}
	}
}

// TestScheduleSeedRepeatsAndPermutes: one schedule seed repeats its
// order exactly, and different seeds order the events due at one
// instant differently.
func TestScheduleSeedRepeatsAndPermutes(t *testing.T) {
	golden, _, _, _ := goldenProgram(t, 42, 0)
	hashes := map[uint64]bool{golden: true}
	for sched := uint64(1); sched <= 8; sched++ {
		hash, _, _, _ := goldenProgram(t, 42, sched)
		if again, _, _, _ := goldenProgram(t, 42, sched); again != hash {
			t.Fatalf("schedule seed %d: not deterministic: %#x then %#x", sched, hash, again)
		}
		hashes[hash] = true
	}
	if len(hashes) != 9 {
		t.Fatalf("9 schedule seeds gave %d distinct orders", len(hashes))
	}
}

// causalProgram runs timers that schedule timers, processes that spawn
// processes and sleep, and channel hand-offs to one receiver, under
// schedule seed sched. Each step is named by its causal path; it
// returns the order the steps ran in and when each ran, and fails the
// test if a step runs before the step that caused it.
func causalProgram(t *testing.T, sched uint64) (order []string, at map[string]time.Duration) {
	t.Helper()
	s := New()
	s.SetScheduleSeed(sched)
	at = map[string]time.Duration{}
	step := func(name, cause string) {
		if cause != "" {
			if ct, ok := at[cause]; !ok || ct > s.Now() {
				t.Fatalf("schedule seed %d: %s ran at %v before its cause %s", sched, name, s.Now(), cause)
			}
		}
		at[name] = s.Now()
		order = append(order, name)
	}
	c := NewChan[string](s, "c")
	var timer func(name, cause string, depth int)
	timer = func(name, cause string, depth int) {
		step(name, cause)
		for i := 0; depth > 0 && i < 3; i++ {
			child := fmt.Sprintf("%s.t%d", name, i)
			s.After(time.Duration(i%2)*time.Millisecond, func() { timer(child, name, depth-1) })
		}
	}
	var proc func(name, cause string, depth int) func()
	proc = func(name, cause string, depth int) func() {
		return func() {
			step(name, cause)
			prev := name
			for i := 0; i < 3; i++ {
				s.Sleep(time.Duration(i%2) * time.Millisecond)
				cur := fmt.Sprintf("%s.s%d", name, i)
				step(cur, prev)
				prev = cur
				if depth > 0 {
					child := fmt.Sprintf("%s.g%d", name, i)
					s.Go(child, proc(child, cur, depth-1))
				}
				c.Send(cur)
			}
		}
	}
	for i := 0; i < 4; i++ {
		root := fmt.Sprintf("p%d", i)
		s.Go(root, proc(root, "", 2))
		tick := fmt.Sprintf("t%d", i)
		s.At(0, func() { timer(tick, "", 3) })
	}
	s.Go("recv", func() {
		for {
			v, ok := c.Recv()
			if !ok {
				return
			}
			step("r."+v, v)
		}
	})
	s.At(time.Second, c.Close)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return order, at
}

// TestScheduleSeedKeepsCausality: under any schedule seed every step
// runs after its cause and at the same virtual time as at seed 0; only
// the order within an instant moves.
func TestScheduleSeedKeepsCausality(t *testing.T) {
	base, baseAt := causalProgram(t, 0)
	moved := 0
	for sched := uint64(1); sched <= 20; sched++ {
		order, at := causalProgram(t, sched)
		if len(order) != len(base) {
			t.Fatalf("schedule seed %d: %d steps, want %d", sched, len(order), len(base))
		}
		for name, when := range baseAt {
			if at[name] != when {
				t.Fatalf("schedule seed %d: %s ran at %v, at seed 0 %v", sched, name, at[name], when)
			}
		}
		if !slices.Equal(order, base) {
			moved++
		}
	}
	if moved < 20 {
		t.Fatalf("only %d of 20 schedule seeds reordered the steps", moved)
	}
}
