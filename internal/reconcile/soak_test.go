package reconcile

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strconv"
	"testing"
	"time"

	"nwsenv/internal/core"
	"nwsenv/internal/nws/proto"
	"nwsenv/internal/nws/sensor"
	"nwsenv/internal/query"
)

// TestSoakChurnResolutionPlane is the resolution-plane soak: seeded
// crash/restore churn of the memory-server hosts and the forecaster's
// host (the master — its crash re-homes NS, forecaster and gateway)
// under the reconcile loop, asserting that
//
//   - forecasts keep flowing through the unified query plane between
//     repairs and after convergence: every probe round builds a fresh
//     query.Client against the *current* deployment and must get at
//     least one prediction; the final steady-state round must answer
//     every probed pair; and
//   - no resolver process leaks: after the loop is cancelled and the
//     deployment stopped, every process — singleflight flights and
//     the KeepRegistered refresh loops of
//     memory servers, forecaster and gateway (which notice teardown on
//     their next tick) — drains to zero on the virtual-clock scheduler.
//
// CI runs it under the race detector at the default (short) horizon of
// one churn pass per victim; NWSENV_SOAK_PASSES extends the churn for
// longer local soaks.
func TestSoakChurnResolutionPlane(t *testing.T) {
	passes := 1
	if v, err := strconv.Atoi(os.Getenv("NWSENV_SOAK_PASSES")); err == nil && v > 0 {
		passes = v
	}

	e := deployLAN(t, 13, 3, 3)
	base := e.sim.Now()
	plan := e.out.Plan

	// Victims: up to two non-master memory-server hosts, then the
	// forecaster's host (re-homing leg). Node IDs for the fault injector.
	var victims []string
	for _, m := range plan.MemoryServers {
		if m != plan.Master && len(victims) < 2 {
			victims = append(victims, e.out.Resolve[m])
		}
	}
	victims = append(victims, e.out.Resolve[plan.Forecaster])
	onePass := append([]string(nil), victims...)
	for p := 1; p < passes; p++ {
		victims = append(victims, onePass...)
	}

	const (
		churnStart    = 4 * time.Minute
		churnInterval = 8 * time.Minute
		churnDownFor  = 3 * time.Minute
	)
	// Churn: victim i leaves at churnStart + i*churnInterval and
	// rejoins churnDownFor later (one pass: crash h0-0 at +4m, restore
	// at +7m).
	for i, id := range victims {
		e.crashAt(id, base+churnStart+time.Duration(i)*churnInterval, churnDownFor)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rec := New(e.pl, e.out.Deployment, Config{Runs: []core.MapRun{e.run}, Interval: 2 * time.Minute})
	recDone := false
	e.sim.Go("reconcile", func() { rec.Run(ctx); recDone = true })

	// probe forecasts up to four measured pairs of the current plan
	// through a fresh query client on the current master's station,
	// returning how many answered.
	probe := func(label string) (got, want int) {
		dep := rec.Deployment()
		st := dep.Agents[dep.Plan.Master].Station()
		pairs := dep.Plan.MeasuredPairs()
		if len(pairs) > 4 {
			pairs = pairs[:4]
		}
		var reqs []proto.SeriesRequest
		for _, p := range pairs {
			reqs = append(reqs, proto.SeriesRequest{Series: sensor.LatencySeries(dep.Resolve[p[0]], dep.Resolve[p[1]])})
		}
		done := false
		e.sim.Go("probe:"+label, func() {
			defer func() { done = true }()
			qc := dep.QueryClient(st)
			for _, r := range qc.ForecastMany(reqs) {
				// Degraded predictions (replica-served history) count as
				// answered: the advisory is staleness, not failure.
				if (r.Err == nil || errors.Is(r.Err, query.ErrDegraded)) && r.Prediction.N > 0 {
					got++
				}
			}
		})
		deadline := e.sim.Now() + 5*time.Minute
		for at := e.sim.Now() + 10*time.Second; !done && at <= deadline; at += 10 * time.Second {
			advance(t, e.sim, at)
		}
		if !done {
			t.Fatalf("probe %s wedged", label)
		}
		return got, len(reqs)
	}

	// Warm-up: the cliques have measured, the plane must answer.
	advance(t, e.sim, base+3*time.Minute)
	if got, want := probe("warmup"); got == 0 {
		t.Fatalf("no forecasts flowing before churn (0/%d)", want)
	}

	// One probe after each victim's crash+restore cycle has been
	// repaired and folded back (crash at +i*interval, restore +3m,
	// reconcile interval 2m: by +6m the plan is whole again).
	for i := range victims {
		at := base + churnStart + time.Duration(i)*churnInterval + 6*time.Minute
		advance(t, e.sim, at)
		got, want := probe(fmt.Sprintf("churn-%d", i))
		if got == 0 {
			t.Fatalf("forecasts stopped flowing after churn round %d (0/%d)", i, want)
		}
	}

	// Steady state: every probed pair must answer.
	advance(t, e.sim, e.sim.Now()+4*time.Minute)
	if got, want := probe("final"); got < want {
		t.Fatalf("steady-state forecasts incomplete: %d/%d", got, want)
	}
	if e.injected != 2*len(victims) {
		t.Fatalf("injected %d events, want %d", e.injected, 2*len(victims))
	}

	// Teardown + the goroutine-count guard: cancel the loop, stop the
	// current deployment, then advance past a full registration-refresh
	// tick so every KeepRegistered loop wakes, sees ErrClosed and exits.
	cancel()
	advance(t, e.sim, e.sim.Now()+3*time.Minute)
	if !recDone {
		t.Fatal("reconcile loop did not exit after cancel")
	}
	rec.Deployment().Stop()
	advance(t, e.sim, e.sim.Now()+12*time.Minute)
	if n := e.sim.Processes(); n != 0 {
		t.Fatalf("%d processes still alive after Stop: resolver/refresh leak", n)
	}
}

// TestSoakReplicatedPrimaryKill is the replication soak: on a
// three-site grid with k=1 replication, every round crashes the
// primary of a hot series — one that the probe is actively
// forecasting — and asserts the hot series come back WHILE the
// primary is still down, i.e. without waiting for the directory TTL
// or a full reconcile redeploy. The very first forecast after a crash
// may eat one timeout tick (the fetch that discovers the dead primary
// is also the one that rebinds the cache onto the replica — the same
// ≤1-tick answer deficit the replication scenario gates on), so each
// kill phase retries until the answers flow again and requires that
// to happen inside the down window. The failover counter must rise
// across the test, pinning that replicas — not just repair
// re-homing — carried queries through the outages. NWSENV_SOAK_PASSES
// extends the number of kill rounds for longer local soaks; CI runs
// the short default under the race detector.
func TestSoakReplicatedPrimaryKill(t *testing.T) {
	passes := 1
	if v, err := strconv.Atoi(os.Getenv("NWSENV_SOAK_PASSES")); err == nil && v > 0 {
		passes = v
	}
	rounds := passes * 2

	e, reg := deployGrid(t, 17, 3, 2, 2, 1)
	base := e.sim.Now()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rec := e.watch(ctx, 2*time.Minute)

	// probe forecasts the given series through a fresh query client on
	// the current master's station.
	probe := func(label string, series []string) (got, want int) {
		dep := rec.Deployment()
		st := dep.Agents[dep.Plan.Master].Station()
		var reqs []proto.SeriesRequest
		for _, s := range series {
			reqs = append(reqs, proto.SeriesRequest{Series: s})
		}
		done := false
		e.sim.Go("probe:"+label, func() {
			defer func() { done = true }()
			qc := dep.QueryClient(st)
			for _, r := range qc.ForecastMany(reqs) {
				if (r.Err == nil || errors.Is(r.Err, query.ErrDegraded)) && r.Prediction.N > 0 {
					got++
				} else {
					t.Logf("probe %s: %s: err=%v n=%d", label, r.Series, r.Err, r.Prediction.N)
				}
			}
		})
		deadline := e.sim.Now() + 5*time.Minute
		for at := e.sim.Now() + 10*time.Second; !done && at <= deadline; at += 10 * time.Second {
			advance(t, e.sim, at)
		}
		if !done {
			t.Fatalf("probe %s wedged", label)
		}
		return got, len(reqs)
	}

	advance(t, e.sim, base+3*time.Minute)
	for round := 0; round < rounds; round++ {
		dep := rec.Deployment()
		// The hot series of this round: measured pairs homed on the
		// first non-master memory primary of the current plan.
		var victimName string
		var hot []string
		for _, p := range dep.Plan.MeasuredPairs() {
			owner := dep.Plan.MemoryOf[p[0]]
			if owner == dep.Plan.Master {
				continue
			}
			if victimName == "" {
				victimName = owner
			}
			if owner == victimName && len(hot) < 3 {
				hot = append(hot, sensor.LatencySeries(dep.Resolve[p[0]], dep.Resolve[p[1]]))
			}
		}
		if victimName == "" || len(hot) == 0 {
			t.Fatalf("round %d: no hot series on a non-master memory primary", round)
		}
		t.Logf("round %d: victim=%s replicas=%v hot=%v", round, victimName, dep.Plan.Replicas[victimName], hot)
		if got, want := probe(fmt.Sprintf("warm-%d", round), hot); got < want {
			t.Fatalf("round %d: hot series dark before the kill: %d/%d", round, got, want)
		}

		// Kill the hot primary and keep probing: the answers must come
		// back while it is still down.
		now := e.sim.Now()
		const downFor = 5 * time.Minute
		healAt := now + time.Minute + downFor
		e.crashAt(dep.Resolve[victimName], now+time.Minute, downFor)
		advance(t, e.sim, now+90*time.Second)
		recovered := false
		for try := 0; e.sim.Now() < healAt-time.Minute; try++ {
			if got, want := probe(fmt.Sprintf("kill-%d-%d", round, try), hot); got == want {
				recovered = true
				break
			}
		}
		if !recovered {
			t.Fatalf("round %d: hot series still dark with primary %s down (until t=%v, now t=%v)",
				round, victimName, healAt, e.sim.Now())
		}
		// Let the crash be repaired and the healed host folded back.
		advance(t, e.sim, now+14*time.Minute)
	}

	// Steady state: converged plan, and the outages were carried by
	// replica failover, not only by repair re-homing.
	last := rec.Rounds()[len(rec.Rounds())-1]
	if last.Err != nil || last.Drifted() {
		t.Fatalf("loop did not converge after %d kill rounds: %+v", rounds, last)
	}
	flat := reg.Snapshot().Flatten()
	if flat["replica/failovers_total"] < 1 {
		t.Fatalf("replica/failovers_total = %g after %d kill rounds, want >= 1", flat["replica/failovers_total"], rounds)
	}
	if flat["replica/writes_total"] < 1 {
		t.Fatalf("replica/writes_total = %g: no write fan-out during the soak", flat["replica/writes_total"])
	}

	// Teardown + the process-count guard.
	cancel()
	advance(t, e.sim, e.sim.Now()+3*time.Minute)
	rec.Deployment().Stop()
	advance(t, e.sim, e.sim.Now()+12*time.Minute)
	if n := e.sim.Processes(); n != 0 {
		t.Fatalf("%d processes still alive after Stop: resolver/refresh leak", n)
	}
}
