package reconcile

import (
	"context"
	"errors"
	"testing"
	"time"

	"nwsenv/internal/core"
	"nwsenv/internal/nws/gateway"
	"nwsenv/internal/nws/proto"
	"nwsenv/internal/nws/sensor"
	"nwsenv/internal/query"
	"nwsenv/internal/simnet"
)

// TestReconcileGatewayReplicaKilledMidStorm: on a three-site grid with
// three gateway replicas, a balanced client drives a continuous query
// storm while one non-primary replica is crashed. The surviving
// replicas must absorb the load — the client evicts the corpse after a
// single timeout and queries keep answering — the failover must be
// telemetry-observable, and the reconcile loop must re-place the dead
// replica so the deployment converges back to three gateways on live
// hosts, each rebuilt host being exactly the one whose role changed.
func TestReconcileGatewayReplicaKilledMidStorm(t *testing.T) {
	// k=1 memory replication rides along: the gateway victim may also
	// host a site's memory server, and the storm gauges the query edge,
	// not memory durability — replica-served (degraded) answers count.
	e, reg := deployGrid(t, 19, 3, 2, 2, 1, core.WithGateways(3))
	base := e.sim.Now()
	plan := e.out.Plan

	gws := plan.Gateways
	if len(gws) != 3 {
		t.Fatalf("planned %d gateway replicas %v, want 3", len(gws), gws)
	}
	if gws[0] != plan.Master {
		t.Fatalf("primary gateway on %q, want the master %q", gws[0], plan.Master)
	}

	// Victim: the first non-master replica. The storm client lives on
	// the master, so killing a non-primary proves survivors absorb load
	// without the client's own host going anywhere.
	var victimName string
	for _, g := range gws[1:] {
		if g != plan.Master {
			victimName = g
			break
		}
	}
	if victimName == "" {
		t.Fatalf("no non-master gateway replica in %v", gws)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rec := e.watch(ctx, 2*time.Minute)

	// Let the cliques measure before the storm starts.
	advance(t, e.sim, base+3*time.Minute)
	dep := rec.Deployment()

	// Storm series: measured pairs that do not touch the victim (its
	// series die with it; the storm gauges the query plane, not them).
	var series []string
	for _, p := range dep.Plan.MeasuredPairs() {
		if p[0] == victimName || p[1] == victimName {
			continue
		}
		if len(series) < 4 {
			series = append(series, sensor.LatencySeries(dep.Resolve[p[0]], dep.Resolve[p[1]]))
		}
	}
	if len(series) == 0 {
		t.Fatal("no measured pairs clear of the victim")
	}
	var reqs []proto.SeriesRequest
	for _, s := range series {
		reqs = append(reqs, proto.SeriesRequest{Series: s, Count: 1})
	}

	// The balanced client: full replica pool via discovery, instrumented
	// so the failover shows up in the registry.
	var gwc *gateway.Client
	inSim(t, e.sim, "connect", func() {
		c, err := gateway.Connect(dep.Agents[dep.Plan.Master].Station(), dep.Resolve[dep.Plan.NameServer])
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		gwc = c
	})
	if gwc == nil {
		t.FailNow()
	}
	if h := gwc.Hosts(); len(h) != 3 {
		t.Fatalf("discovered pool %v, want all 3 replicas", h)
	}
	gwc.SetTelemetry(reg)

	// The storm: one batch every 15 virtual seconds until stopped. A
	// batch counts as answered when every series returns a sample
	// (degraded is an answer — staleness, not failure). The client is
	// kept across batches so eviction-and-retry is exercised; only when
	// a reconcile repair swaps the deployment (rebuilding agents closes
	// their stations) does the storm rebind through a fresh discovery,
	// exactly as a long-lived user would reconnect.
	var answered, failed, afterKill int
	sawSurvivorPool := false // pool shrunk to the 2 survivors pre-repair
	stop := false
	stormDone := false
	e.sim.Go("storm", func() {
		defer func() { stormDone = true }()
		d := rec.Deployment()
		curPlan := d.Plan
		pause := d.Agents[d.Plan.Master].Station().Runtime().NewInbox("storm-pause")
		for !stop {
			// A repair advances the deployment in place but installs the
			// freshly replanned Plan object: that swap is the rebind cue.
			if p := d.Plan; p != curPlan {
				st := d.Agents[p.Master].Station()
				if nc, err := gateway.Connect(st, d.Resolve[p.NameServer]); err == nil {
					curPlan, gwc = p, nc
					gwc.SetTelemetry(reg)
				}
			}
			res, err := gwc.FetchMany(reqs)
			ok := err == nil
			if ok {
				for _, r := range res {
					if (r.Err != nil && !errors.Is(r.Err, query.ErrDegraded)) || len(r.Samples) == 0 {
						ok = false
					}
				}
			}
			if ok {
				answered++
				afterKill++
				if len(gwc.Hosts()) == 2 {
					sawSurvivorPool = true
				}
			} else {
				failed++
				afterKill = 0
			}
			pause.RecvTimeout(15 * time.Second)
		}
	})

	// Warm the storm, then kill the replica under it — permanently, so
	// only reconcile re-placement restores N=3.
	advance(t, e.sim, base+5*time.Minute)
	if answered == 0 {
		t.Fatalf("storm not answering before the kill (failed %d)", failed)
	}
	simnet.CrashScenario(e.out.Resolve[victimName], e.sim.Now()+30*time.Second, 0).Schedule(e.net)

	// Ride through the crash + repair: the loop replans without the dead
	// host and re-places the replica on a survivor.
	advance(t, e.sim, base+20*time.Minute)
	stop = true
	advance(t, e.sim, e.sim.Now()+time.Minute)
	if !stormDone {
		t.Fatal("storm process did not stop")
	}

	// Survivors absorbed the load: the storm kept answering after the
	// kill (the tail of consecutive answered batches spans well past the
	// client's single eviction timeout).
	if afterKill < 10 {
		t.Fatalf("storm did not settle after the kill: %d consecutive answered batches (answered %d, failed %d)",
			afterKill, answered, failed)
	}
	// The failover is observable: the client evicted the corpse and kept
	// answering on the two survivors before the repair restored N=3.
	if !sawSurvivorPool {
		t.Fatal("storm never answered from the 2-survivor pool after the kill")
	}
	flat := reg.Snapshot().Flatten()
	if flat["gateway/client_failovers"] < 1 {
		t.Fatalf("gateway/client_failovers = %g, want >= 1", flat["gateway/client_failovers"])
	}

	// The control plane re-placed the replica: three gateways again,
	// none on the dead host, primary still the master.
	dep = rec.Deployment()
	ngws := dep.Plan.Gateways
	if len(ngws) != 3 {
		t.Fatalf("repaired plan has %d gateways %v, want 3", len(ngws), ngws)
	}
	for _, g := range ngws {
		if g == victimName {
			t.Fatalf("dead host %s still holds a gateway role: %v", victimName, ngws)
		}
	}
	if ngws[0] != dep.Plan.Master {
		t.Fatalf("primary gateway %q not on the master %q after repair", ngws[0], dep.Plan.Master)
	}
	// And a fresh discovery sees all three live replicas.
	var pool []string
	inSim(t, e.sim, "rediscover", func() {
		c, err := gateway.Connect(dep.Agents[dep.Plan.Master].Station(), dep.Resolve[dep.Plan.NameServer])
		if err != nil {
			t.Errorf("post-repair connect: %v", err)
			return
		}
		pool = c.Hosts()
	})
	if len(pool) != 3 {
		t.Fatalf("post-repair discovery found %d live replicas %v, want 3", len(pool), pool)
	}
	last := rec.Rounds()[len(rec.Rounds())-1]
	if last.Err != nil || last.Drifted() {
		t.Fatalf("loop did not converge after the replica kill: %+v", last)
	}
}
