package vclock

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"
	"time"
)

// goldenProgram runs a seeded random program over every kernel
// primitive and returns a hash of the
// (virtual time, process, op, value) log plus how the timed receives
// ended. The program's choices depend only on the seed and on what the
// kernel delivers, so the hash moves exactly when the kernel's event
// order does.
func goldenProgram(t *testing.T, seed int64) (hash uint64, lines, timeouts, beaten int) {
	t.Helper()
	const (
		nProcs = 60
		nSteps = 40
		nChans = 8
	)
	s := New()
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
		hash, lines, timeouts, beaten := goldenProgram(t, seed)
		if timeouts == 0 || beaten == 0 {
			t.Fatalf("seed %d: program does not cover both RecvTimeout outcomes (%d fired, %d beaten)", seed, timeouts, beaten)
		}
		if again, _, _, _ := goldenProgram(t, seed); again != hash {
			t.Fatalf("seed %d: not deterministic: %#x then %#x", seed, hash, again)
		}
		t.Logf("seed %d: %d lines, %d timeouts, %d beaten, hash %#x", seed, lines, timeouts, beaten, hash)
		if want, ok := golden[seed]; !ok || hash != want {
			t.Errorf("seed %d: event order hash %#x, want %#x", seed, hash, want)
		}
	}
}
