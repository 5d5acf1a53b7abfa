package reconcile

import (
	"context"
	"testing"
	"time"

	"nwsenv/internal/core"
	"nwsenv/internal/nws/proto"
	"nwsenv/internal/platform"
	"nwsenv/internal/simnet"
	"nwsenv/internal/topo"
	"nwsenv/internal/vclock"
)

// benchEnv deploys a seeded LAN for benchmarking (mirrors deployLAN but
// against *testing.B).
func benchEnv(b *testing.B, seed int64, subnets, perSubnet int) *env {
	b.Helper()
	tp, _ := topo.RandomLAN(seed, subnets, perSubnet)
	sim := vclock.New()
	net := simnet.NewNetwork(sim, tp)
	tr := proto.NewSimTransport(net)
	plat := platform.NewSimPlatform(net, tr)
	pl := core.NewPipeline(plat, core.WithTokenGap(time.Second))

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
			b.Fatal(e)
		}
	}
	if err != nil {
		b.Fatal(err)
	}
	return &env{sim: sim, net: net, plat: plat, pl: pl, out: out, run: run, hosts: hosts}
}

// step runs one reconcile pass to completion in virtual time.
func step(b *testing.B, e *env, rec *Reconciler) Round {
	b.Helper()
	var rd Round
	done := false
	e.sim.Go("step", func() {
		rd = rec.Step(context.Background())
		done = true
	})
	for at := e.sim.Now() + 30*time.Second; !done; at += 30 * time.Second {
		if err := e.sim.RunUntil(at); err != nil {
			b.Fatal(err)
		}
	}
	return rd
}

// BenchmarkReconcileSteadyRound measures one drift-free reconcile pass
// (health probes + full ENV re-map + re-plan + diff) over a deployed
// 9-host LAN: the steady-state cost of watching.
func BenchmarkReconcileSteadyRound(b *testing.B) {
	e := benchEnv(b, 42, 3, 3)
	rec := New(e.pl, e.out.Deployment, Config{Runs: []core.MapRun{e.run}})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd := step(b, e, rec)
		if rd.Err != nil {
			b.Fatal(rd.Err)
		}
		if rd.Drifted() {
			b.Fatal("steady platform drifted")
		}
	}
	b.ReportMetric(float64(len(e.out.Plan.Hosts)), "hosts")
}

// BenchmarkReconcileCrashRepair measures a full detect-and-repair cycle:
// crash a sensor host, reconcile it out, restore it, reconcile it back
// in. Reports how many components each repair touched.
func BenchmarkReconcileCrashRepair(b *testing.B) {
	e := benchEnv(b, 42, 3, 3)
	rec := New(e.pl, e.out.Deployment, Config{Runs: []core.MapRun{e.run}})
	victim := e.hosts[len(e.hosts)-1]
	var redeployed, total float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.net.CrashHost(victim)
		out := step(b, e, rec)
		if out.Err != nil || !out.Repaired() {
			b.Fatalf("crash not repaired: %+v", out)
		}
		redeployed += float64(out.Delta.Redeployed())
		total += float64(out.Delta.Redeployed() + len(out.Delta.Kept))
		e.net.RestoreHost(victim)
		back := step(b, e, rec)
		if back.Err != nil || !back.Repaired() {
			b.Fatalf("rejoin not repaired: %+v", back)
		}
		redeployed += float64(back.Delta.Redeployed())
		total += float64(back.Delta.Redeployed() + len(back.Delta.Kept))
	}
	b.ReportMetric(redeployed/float64(2*b.N), "redeployed/repair")
	b.ReportMetric(redeployed/total, "redeploy-fraction")
}

// BenchmarkApplyDeltaNoop measures the fast path: diffing an unchanged
// plan against the live deployment (no agent churn at all).
func BenchmarkApplyDeltaNoop(b *testing.B) {
	e := benchEnv(b, 42, 3, 3)
	dep := e.out.Deployment
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := dep.ApplyDelta(context.Background(), dep.Plan, dep.Resolve)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Redeployed()+len(rep.Stopped) != 0 {
			b.Fatal("noop delta touched agents")
		}
	}
}
