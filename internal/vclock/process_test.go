package vclock

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestProcessPanicSurfacesFromRun(t *testing.T) {
	s := New()
	boom := errors.New("boom")
	s.Go("bystander", func() { s.Sleep(time.Hour) })
	s.Go("faulty", func() {
		s.Sleep(3 * time.Second)
		panic(boom)
	})
	func() {
		defer func() {
			r := recover()
			err, ok := r.(error)
			if !ok {
				t.Fatalf("recovered %v, want an error", r)
			}
			msg := err.Error()
			for _, want := range []string{`"faulty"`, "3s", "boom", "process_test.go"} {
				if !strings.Contains(msg, want) {
					t.Errorf("panic %q does not mention %s", msg, want)
				}
			}
		}()
		s.Run()
		t.Fatal("Run returned")
	}()
	// The dead process is gone and the Sim is not left "running".
	if n := s.Processes(); n != 1 {
		t.Fatalf("%d processes after the panic, want the bystander only", n)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if s.Now() != time.Hour || s.Processes() != 0 {
		t.Fatalf("resumed run ended at %v with %d processes", s.Now(), s.Processes())
	}
}

func TestCallbackPanicLeavesSimRunnable(t *testing.T) {
	s := New()
	s.At(time.Second, func() { panic("callback") })
	fired := false
	s.At(2*time.Second, func() { fired = true })
	func() {
		defer func() {
			if r := recover(); r != "callback" {
				t.Fatalf("recovered %v", r)
			}
		}()
		s.Run()
	}()
	if err := s.Run(); err != nil || !fired {
		t.Fatalf("second Run: err %v, fired %v", err, fired)
	}
}

func TestProcessGoexitEndsRunCaller(t *testing.T) {
	s := New()
	s.Go("quitter", func() {
		s.Sleep(time.Second)
		runtime.Goexit() // what t.FailNow and t.Fatal do
	})
	returned := false
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Run()
		returned = true
	}()
	<-done
	if returned {
		t.Fatal("Run returned to a caller that a process Goexit should have ended")
	}
	if n := s.Processes(); n != 0 {
		t.Fatalf("%d processes", n)
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Sim not runnable after Goexit: %v", err)
	}
}

func TestBlockingOutsideProcessPanics(t *testing.T) {
	for name, block := range map[string]func(*Sim){
		"Sleep": func(s *Sim) { s.Sleep(time.Second) },
		"Recv":  func(s *Sim) { NewChan[int](s, "c").Recv() },
	} {
		s := New()
		s.At(0, func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s in an event callback did not panic", name)
				}
			}()
			block(s)
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
	}
}

// More processes than the idle pool holds finish at one instant; the
// surplus coroutines are ended, the rest are reused, and a reused one
// starts from a clean slate.
func TestIdlePoolBoundAndReuse(t *testing.T) {
	s := New()
	gate := NewChan[int](s, "gate")
	const n = 3 * idleProcs
	finished := 0
	for i := 0; i < n; i++ {
		s.Go("wave1", func() {
			s.Sleep(time.Second)
			finished++
		})
	}
	// Keeps the Sim live so the pool survives RunUntil's return.
	s.Go("server", func() { gate.Recv() })
	if err := s.RunUntil(time.Minute); err != nil {
		t.Fatal(err)
	}
	if finished != n || s.Processes() != 1 {
		t.Fatalf("finished %d of %d, %d processes", finished, n, s.Processes())
	}
	if got := len(s.idle); got != idleProcs {
		t.Fatalf("idle pool holds %d, want its bound %d", got, idleProcs)
	}

	// Go before Run and Go from an event callback both draw from the pool.
	pooled := map[*proc]bool{}
	for _, p := range s.idle {
		pooled[p] = true
	}
	reused, depth := 0, 0
	body := func() {
		if !pooled[s.cur] {
			t.Error("spawn did not reuse an idle coroutine")
		}
		if s.cur.name != "wave2" {
			t.Errorf("recycled coroutine runs as %q", s.cur.name)
		}
		// A fresh frame: the previous body's deferred calls are spent.
		depth++
		defer func() { depth-- }()
		s.Sleep(time.Second)
		reused++
	}
	s.Go("wave2", body)
	s.After(time.Second, func() { s.Go("wave2", body) })
	if got := len(s.idle); got != idleProcs-1 {
		t.Fatalf("Go before Run left %d idle", got)
	}
	if err := s.RunUntil(2 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if reused != 2 || depth != 0 {
		t.Fatalf("reused %d, depth %d", reused, depth)
	}

	// Once every process has finished, the pool is released with the run.
	gate.Send(1)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if s.Processes() != 0 || len(s.idle) != 0 {
		t.Fatalf("%d processes, %d idle coroutines after the last one finished", s.Processes(), len(s.idle))
	}
}

// The drive loop of cli.DeploySim and the scenario lab: RunUntil in
// one-minute steps over parked servers, polling a flag between steps.
func TestRunUntilReenteredWithParkedServers(t *testing.T) {
	s := New()
	const servers = 20
	served := make([]int, servers)
	inbox := make([]*Chan[int], servers)
	for i := range inbox {
		inbox[i] = NewChan[int](s, fmt.Sprintf("srv%d", i))
		s.Go("server", func() {
			for {
				if _, ok := inbox[i].Recv(); !ok {
					return
				}
				served[i]++
			}
		})
	}
	s.Go("client", func() {
		for tick := 0; ; tick++ {
			s.Sleep(7 * time.Second)
			if !inbox[tick%servers].TrySend(tick) {
				return
			}
		}
	})
	const steps = 500
	for step := 1; step <= steps; step++ {
		if err := s.RunUntil(time.Duration(step) * time.Minute); err != nil {
			t.Fatal(err)
		}
		if s.Now() != time.Duration(step)*time.Minute {
			t.Fatalf("step %d left the clock at %v", step, s.Now())
		}
		if s.Processes() != servers+1 {
			t.Fatalf("step %d: %d processes", step, s.Processes())
		}
	}
	total := 0
	for _, n := range served {
		total += n
	}
	if want := steps * 60 / 7; total != want {
		t.Fatalf("served %d requests, want %d", total, want)
	}
	for _, c := range inbox {
		c.Close()
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if s.Processes() != 0 {
		t.Fatalf("%d processes after teardown", s.Processes())
	}
}

// BenchmarkSpawn is Go plus running the process to completion, at
// steady state: each finished coroutine is the next spawn's.
func BenchmarkSpawn(b *testing.B) {
	s := New()
	n := 0
	s.Go("parent", func() {
		for i := 0; i < b.N; i++ {
			s.Go("child", func() { n++ })
			s.Sleep(0) // let the child run
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
	if n != b.N {
		b.Fatalf("%d children ran, want %d", n, b.N)
	}
}
