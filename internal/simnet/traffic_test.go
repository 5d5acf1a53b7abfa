package simnet

import (
	"sync"
	"testing"
	"time"

	"nwsenv/internal/telemetry"
	"nwsenv/internal/vclock"
)

// probeLoop starts a process that probes src->dst under tag every
// period until the clock reaches until.
func probeLoop(sim *vclock.Sim, net *Network, src, dst, tag string, period, until time.Duration) {
	sim.Go("probe:"+src+"->"+dst, func() {
		for sim.Now() < until {
			net.Transfer(src, dst, 64*1024, tag)
			sim.Sleep(period)
		}
	})
}

// TestTrafficTableBounded: a steady probe workload run four times as
// long keeps the same rows, one per (source, destination, tag), while
// their counts grow with the run: the table holds what the pairs
// carried, not one entry per transfer.
func TestTrafficTableBounded(t *testing.T) {
	run := func(d time.Duration) []TrafficRow {
		sim, net := lan(t)
		probeLoop(sim, net, "a", "b", "clique:x", time.Second, d)
		probeLoop(sim, net, "b", "a", "clique:x", time.Second, d)
		probeLoop(sim, net, "c", "d", "", 2*time.Second, d)
		if err := sim.RunUntil(d + time.Minute); err != nil {
			t.Fatal(err)
		}
		return net.Traffic()
	}
	short, long := run(5*time.Minute), run(20*time.Minute)
	if len(short) != 3 || len(long) != len(short) {
		t.Fatalf("rows: %d for T, %d for 4T, want 3 each:\n%+v\n%+v", len(short), len(long), short, long)
	}
	for i, s := range short {
		l := long[i]
		if l.Src != s.Src || l.Dst != s.Dst || l.Tag != s.Tag {
			t.Fatalf("row %d: key %s->%s %q for 4T, %s->%s %q for T", i, l.Src, l.Dst, l.Tag, s.Src, s.Dst, s.Tag)
		}
		if s.Done < 100 || l.Done < 4*s.Done-4 || l.Done > 4*s.Done+4 {
			t.Fatalf("row %d: %d transfers for 4T, %d for T: Done does not scale with the run", i, l.Done, s.Done)
		}
	}
}

// TestTrafficTableCountsAbortsAndResets: an aborted flow counts in
// Started only, ProbeTraffic sums the tagged rows' starts, and
// ResetAccounting clears the table while a flow in flight across it
// still counts its completion.
func TestTrafficTableCountsAbortsAndResets(t *testing.T) {
	sim, net := lan(t)
	sim.Go("aborted", func() { net.Transfer("a", "d", 50_000_000, "p") })
	sim.Go("done", func() { net.Transfer("a", "b", 1_000_000, "p") })
	sim.Go("untagged", func() { net.Transfer("b", "c", 2_000_000, "") })
	sim.At(time.Second, func() { net.CutLink("r", "d") })
	if err := sim.RunUntil(time.Minute); err != nil {
		t.Fatal(err)
	}
	// Rows come in first-seen order: a->d starts last, behind the
	// router's extra hop.
	want := []TrafficRow{
		{Src: "a", Dst: "b", Tag: "p", Started: 1, StartedBytes: 1_000_000, Done: 1, DoneBytes: 1_000_000},
		{Src: "b", Dst: "c", Tag: "", Started: 1, StartedBytes: 2_000_000, Done: 1, DoneBytes: 2_000_000},
		{Src: "a", Dst: "d", Tag: "p", Started: 1, StartedBytes: 50_000_000},
	}
	if got := net.Traffic(); len(got) != len(want) || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("table\n%+v\nwant\n%+v", got, want)
	}
	if bytes, count := net.ProbeTraffic(); bytes != 51_000_000 || count != 2 {
		t.Fatalf("probe traffic %d bytes / %d probes, want 51000000 / 2", bytes, count)
	}

	sim.Go("across", func() { net.Transfer("a", "b", 10_000_000, "p") })
	sim.After(100*time.Millisecond, net.ResetAccounting)
	if err := sim.RunUntil(2 * time.Minute); err != nil {
		t.Fatal(err)
	}
	got := net.Traffic()
	if len(got) != 1 || got[0] != (TrafficRow{Src: "a", Dst: "b", Tag: "p", Done: 1, DoneBytes: 10_000_000}) {
		t.Fatalf("after reset: %+v, want only the a->b completion", got)
	}
	if bytes, count := net.ProbeTraffic(); bytes != 0 || count != 0 {
		t.Fatalf("after reset: probe traffic %d bytes / %d probes", bytes, count)
	}
}

// TestTrafficTableTelemetryRace snapshots the network's telemetry from
// a wall-clock goroutine while simulated transfers run: the collectors
// read the table under the network lock. At the end the collectors
// agree with the table.
func TestTrafficTableTelemetryRace(t *testing.T) {
	sim, net := lan(t)
	reg := telemetry.New(sim.Now)
	RegisterTelemetry(reg, net)
	const until = 2 * time.Minute
	probeLoop(sim, net, "a", "b", "clique:x", 100*time.Millisecond, until)
	probeLoop(sim, net, "c", "d", "clique:y", 100*time.Millisecond, until)
	probeLoop(sim, net, "b", "c", "", 50*time.Millisecond, until)

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
				reg.Snapshot()
			}
		}
	}()
	err := sim.RunUntil(until + time.Minute)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}

	var done, started int
	var startedBytes int64
	for _, row := range net.Traffic() {
		done += row.Done
		if row.Tag != "" {
			started += row.Started
			startedBytes += row.StartedBytes
		}
	}
	want := map[string]float64{
		"simnet/transfers":   float64(done),
		"simnet/probe_count": float64(started),
		"simnet/probe_bytes": float64(startedBytes),
	}
	for _, p := range reg.Snapshot().Points {
		if w, ok := want[p.Key]; ok {
			if p.Value != w {
				t.Errorf("%s = %v, want %v", p.Key, p.Value, w)
			}
			delete(want, p.Key)
		}
	}
	if len(want) != 0 || done == 0 {
		t.Fatalf("collectors missing %v, or no transfer completed (%d)", want, done)
	}
}
