package simnet

import (
	"math/rand/v2"
	"sync"
	"testing"
	"time"
)

// TestTransferAllocatesNothing: once warm, transfers over resolved
// pairs allocate nothing — not their flows, not their outcome channels,
// not the completion event — while two flows share a link, so each
// arrival and departure re-arms a pending completion, and one of them is
// a tagged probe, so it is checked for collisions.
func TestTransferAllocatesNothing(t *testing.T) {
	sim, net := lan(t)
	transfers := 0
	loop := func(src, dst string, bytes int64, tag string) {
		sim.Go("xfer:"+src+"->"+dst, func() {
			for {
				if _, err := net.Transfer(src, dst, bytes, tag); err != nil {
					t.Error(err)
					return
				}
				transfers++
				sim.Sleep(time.Millisecond)
			}
		})
	}
	loop("a", "b", 64*1024, "")
	loop("c", "b", 100*1024, "clique:x")
	loop("a", "d", 16*1024, "")
	step := func() {
		if err := sim.RunUntil(sim.Now() + time.Second); err != nil {
			t.Fatal(err)
		}
	}
	step() // warm the free lists, scratch slices and pair resolutions
	step()
	before := transfers
	if allocs := testing.AllocsPerRun(20, step); allocs != 0 {
		t.Fatalf("a second of concurrent transfers allocates %v times, want 0", allocs)
	}
	if done := transfers - before; done < 20*50 {
		t.Fatalf("only %d transfers completed in the measured seconds", done)
	}
}

// TestCrashAbortRecyclesNoLiveFlow: host crashes abort flows in mid-flow,
// and the transfers that start at once after them — the aborted
// callers' next ones and others' — take recycled flows. After every
// fault and every transfer the engine's index is consistent: a flow on
// the free list is on no resource, off the completion heap and out of
// the active set, and every active flow is on each resource of its path
// and on the heap.
func TestCrashAbortRecyclesNoLiveFlow(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		sim, net := lan(t)
		hosts := []string{"a", "b", "c", "d"}
		rng := rand.New(rand.NewPCG(seed, 0))
		var aborted, completed int
		for i := 0; i < 6; i++ {
			src := hosts[i%len(hosts)]
			sim.Go("xfer:"+src, func() {
				for sim.Now() < time.Minute {
					dst := hosts[rng.IntN(len(hosts))]
					if dst == src {
						sim.Sleep(time.Duration(rng.IntN(50)) * time.Millisecond)
						continue
					}
					bytes := int64(1+rng.IntN(64)) * 16 * 1024
					st, err := net.Transfer(src, dst, bytes, "")
					checkEngine(t, net)
					switch {
					case err != nil:
						aborted++
						sim.Sleep(time.Duration(rng.IntN(20)) * time.Millisecond)
					case st.Bytes != bytes || st.End < st.Start:
						t.Errorf("seed %d: %s->%s returned %+v for %d bytes", seed, src, dst, st, bytes)
					default:
						completed++
					}
				}
			})
		}
		for at := 50 * time.Millisecond; at < time.Minute; at += time.Duration(20+rng.IntN(400)) * time.Millisecond {
			h := hosts[rng.IntN(len(hosts))]
			sim.At(at, func() {
				net.CrashHost(h)
				checkEngine(t, net)
			})
			sim.At(at+time.Duration(rng.IntN(100))*time.Millisecond, func() { net.RestoreHost(h) })
		}
		if err := sim.RunUntil(2 * time.Minute); err != nil {
			t.Fatal(err)
		}
		if t.Failed() {
			return
		}
		if aborted == 0 || completed == 0 {
			t.Fatalf("seed %d: %d aborted and %d completed transfers, want both", seed, aborted, completed)
		}
		checkEngine(t, net)
	}
}

// TestTransferEngineSnapshotRace: the telemetry registry is snapshotted
// from a wall-clock goroutine while flows are recycled and aborted under
// the network lock (run it with -race).
func TestTransferEngineSnapshotRace(t *testing.T) {
	sim, net := lan(t)
	probeLoop(sim, net, "a", "b", "clique:x", 10*time.Millisecond, time.Minute)
	probeLoop(sim, net, "c", "b", "", 10*time.Millisecond, time.Minute)
	for at := time.Second; at < time.Minute; at += 3 * time.Second {
		sim.At(at, func() { net.CrashHost("c") })
		sim.At(at+time.Second, func() { net.RestoreHost("c") })
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				net.Traffic()
				net.SettleCount()
				net.Collisions()
			}
		}
	}()
	err := sim.RunUntil(2 * time.Minute)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
}

// checkEngine fails t unless the flow⇄resource index, the active set,
// the completion heap and the free list agree.
func checkEngine(t *testing.T, n *Network) {
	t.Helper()
	n.mu.Lock()
	defer n.mu.Unlock()
	for i, f := range n.active {
		if f.activeIdx != i {
			t.Fatalf("active flow %d at %d says %d", f.id, i, f.activeIdx)
		}
		for k, r := range f.res {
			if s := f.slot[k]; s >= len(r.flows) || r.flows[s] != (flowSlot{f, k}) {
				t.Fatalf("active flow %d is not where it says on %s", f.id, r.key)
			}
		}
		if f.heapIdx < 0 || f.heapIdx >= len(n.compHeap) || n.compHeap[f.heapIdx] != f {
			t.Fatalf("active flow %d is not where it says on the completion heap", f.id)
		}
	}
	if len(n.compHeap) != len(n.active) {
		t.Fatalf("%d flows on the completion heap, %d active", len(n.compHeap), len(n.active))
	}
	for _, r := range n.resources {
		for _, s := range r.flows {
			if s.f.activeIdx >= len(n.active) || n.active[s.f.activeIdx] != s.f {
				t.Fatalf("flow %d on %s is not active", s.f.id, r.key)
			}
		}
	}
	for _, f := range n.freeFlows {
		if f.heapIdx != -1 || f.res != nil || f.row != nil {
			t.Fatalf("recycled flow %d still holds its heap slot, path or row", f.id)
		}
		if f.activeIdx < len(n.active) && n.active[f.activeIdx] == f {
			t.Fatalf("recycled flow %d is still active", f.id)
		}
	}
}
