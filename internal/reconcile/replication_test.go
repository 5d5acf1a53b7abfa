package reconcile

import (
	"context"
	"testing"
	"time"

	"nwsenv/internal/core"
	"nwsenv/internal/nws/memory"
	"nwsenv/internal/nws/proto"
	"nwsenv/internal/platform"
	"nwsenv/internal/simnet"
	"nwsenv/internal/telemetry"
	"nwsenv/internal/topo"
	"nwsenv/internal/vclock"
)

// deployGrid maps, plans and applies a per-site-domain synthetic grid
// with k-replica memory replication, so the plan has non-master memory
// primaries to kill.
func deployGrid(t *testing.T, seed int64, sites, switches, perSwitch, k int, extra ...core.Option) (*env, *telemetry.Registry) {
	t.Helper()
	tp, _ := topo.SyntheticGrid(topo.GridConfig{
		Sites: sites, SwitchesPerSite: switches, HostsPerSwitch: perSwitch,
		SiteDomains: true, Seed: seed,
	})
	sim := vclock.New()
	net := simnet.NewNetwork(sim, tp)
	tr := proto.NewSimTransport(net)
	plat := platform.NewSimPlatform(net, tr)
	reg := telemetry.New(sim.Now)
	opts := []core.Option{core.WithTokenGap(time.Second),
		core.WithReplication(k), core.WithTelemetry(reg)}
	opts = append(opts, extra...)
	pl := core.NewPipeline(plat, opts...)

	var hosts []string
	for _, h := range tp.HostIDs() {
		if h != tp.ExternalTarget {
			hosts = append(hosts, h)
		}
	}
	run := core.MapRun{Master: hosts[0], Hosts: hosts}

	var out *core.Outcome
	var err error
	done := false
	sim.Go("deploy", func() {
		out, err = pl.Deploy(context.Background(), run)
		done = true
	})
	for at := sim.Now() + time.Minute; !done && at <= 24*time.Hour; at += time.Minute {
		if e := sim.RunUntil(at); e != nil {
			t.Fatal(e)
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("deployment did not finish")
	}
	return (&env{sim: sim, net: net, plat: plat, pl: pl, out: out, run: run, hosts: hosts}).torn(t), reg
}

// inSim runs fn as a simulation process and steps the clock until it
// returns.
func inSim(t *testing.T, sim *vclock.Sim, name string, fn func()) {
	t.Helper()
	done := false
	sim.Go(name, func() { fn(); done = true })
	deadline := sim.Now() + time.Hour
	for at := sim.Now() + time.Second; !done && at <= deadline; at += time.Second {
		if err := sim.RunUntil(at); err != nil {
			t.Fatal(err)
		}
	}
	if !done {
		t.Fatal(name + " did not finish")
	}
}

// TestReplicationBackfillRestoresWindow pins the k=1 recovery
// contract: after a memory primary crashes for good, anti-entropy
// backfill alone restores the retained window — zero sensor
// repopulation. The pinned series is user-stored, so no sensor can
// ever regenerate a single sample of it; every sample retrieved after
// the repair was necessarily carried over from the replica.
func TestReplicationBackfillRestoresWindow(t *testing.T) {
	e, reg := deployGrid(t, 11, 3, 2, 2, 1)
	dep := e.out.Deployment

	// A non-master memory primary to kill.
	var victimName string
	for _, m := range e.out.Plan.MemoryServers {
		if m != e.out.Plan.Master {
			victimName = m
			break
		}
	}
	if victimName == "" {
		t.Fatalf("no non-master memory primary in plan (memories %v)", e.out.Plan.MemoryServers)
	}
	victim := e.out.Resolve[victimName]
	if len(e.out.Plan.Replicas[victimName]) == 0 {
		t.Fatalf("no replicas solved for %s: %v", victimName, e.out.Plan.Replicas)
	}

	// Pin a user series on the victim: 24 samples the sensors cannot
	// regenerate.
	const series = "pinned-window"
	const n = 24
	master := dep.Agents[e.out.Plan.Master]
	inSim(t, e.sim, "seed-pinned", func() {
		mc := memory.NewClient(master.Station(), victim)
		for i := 1; i <= n; i++ {
			if err := mc.Store(series, proto.Sample{At: time.Duration(i) * time.Second, Value: float64(i)}); err != nil {
				t.Errorf("store %d: %v", i, err)
				return
			}
		}
	})
	// Let the asynchronous fan-out drain so the replica holds the full
	// window before the primary dies.
	advance(t, e.sim, e.sim.Now()+time.Minute)

	// Kill the primary for good (no heal: a crash loses the local
	// window) and let the reconcile loop cut it out and backfill.
	base := e.sim.Now()
	rec := e.watch(context.Background(), 2*time.Minute)
	e.crashAt(victim, base+time.Minute, 0)
	advance(t, e.sim, base+10*time.Minute)

	cur := rec.Deployment()
	if containsStr(cur.Plan.Hosts, victimName) {
		t.Fatalf("crashed primary %s still in live plan %v", victimName, cur.Plan.Hosts)
	}

	// The retained window must come back whole through the query plane,
	// though every sensor on the platform has never seen this series.
	var got []proto.Sample
	inSim(t, e.sim, "refetch", func() {
		qc := cur.QueryClient(cur.Agents[cur.Plan.Master].Station())
		res := qc.FetchMany([]proto.SeriesRequest{{Series: series, Count: n + 8}})
		if res[0].Err != nil {
			t.Errorf("fetch after repair: %v", res[0].Err)
			return
		}
		got = res[0].Samples
	})
	if len(got) != n {
		t.Fatalf("restored window has %d samples, want %d", len(got), n)
	}
	for i, s := range got {
		if s.Value != float64(i+1) {
			t.Fatalf("restored sample %d = %g, want %g", i, s.Value, float64(i+1))
		}
	}

	// And the telemetry must attribute the restoration to backfill.
	flat := reg.Snapshot().Flatten()
	if flat["replica/backfill_samples"] < n {
		t.Fatalf("replica/backfill_samples = %g, want >= %d", flat["replica/backfill_samples"], n)
	}
}
