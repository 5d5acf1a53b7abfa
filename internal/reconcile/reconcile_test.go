package reconcile

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"nwsenv/internal/core"
	"nwsenv/internal/deploy"
	"nwsenv/internal/nws/gateway"
	"nwsenv/internal/nws/proto"
	"nwsenv/internal/nws/proto/prototest"
	"nwsenv/internal/nws/sensor"
	"nwsenv/internal/platform"
	"nwsenv/internal/simnet"
	"nwsenv/internal/topo"
	"nwsenv/internal/vclock"
)

// env is a deployed random LAN with a reconciler-ready pipeline.
type env struct {
	sim   *vclock.Sim
	net   *simnet.Network
	plat  *platform.SimPlatform
	pl    *core.Pipeline
	out   *core.Outcome
	run   core.MapRun
	hosts []string // candidate node IDs (external target excluded)

	injected int // fault events crashAt armed that have fired

	rec  *Reconciler             // the loop watch started, if any
	stop func(stop func() error) // prototest.Teardown's, for what the test started
}

// torn registers e's teardown: when the test ends, the current
// deployment (the loop's, once watch started one) stops, and the test
// fails if any process is left.
func (e *env) torn(t *testing.T) *env {
	t.Helper()
	e.stop = prototest.Teardown(t, proto.NewSimRuntime(e.sim))
	e.stop(func() error {
		if e.rec != nil {
			return e.rec.Deployment().Stop()
		}
		return e.out.Deployment.Stop()
	})
	return e
}

// deployLAN maps, plans and applies a seeded random LAN and returns the
// running system with the virtual clock just past the apply.
func deployLAN(t *testing.T, seed int64, subnets, perSubnet int) *env {
	t.Helper()
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
			t.Fatal(e)
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("deployment did not finish")
	}
	return (&env{sim: sim, net: net, plat: plat, pl: pl, out: out, run: run, hosts: hosts}).torn(t)
}

// watch starts a reconcile loop with the given interval and returns it.
// The loop is canceled, and awaited, before the deployment stops at the
// end of the test.
func (e *env) watch(ctx context.Context, interval time.Duration) *Reconciler {
	ctx, cancel := context.WithCancel(ctx)
	rec := New(e.pl, e.out.Deployment, Config{
		Runs:     []core.MapRun{e.run},
		Interval: interval,
	})
	e.rec = rec
	done := false
	e.sim.Go("reconcile", func() { rec.Run(ctx); done = true })
	e.stop(func() error {
		cancel()
		exited, err := e.sim.Drive(time.Second, time.Hour, func() bool { return done })
		if err == nil && !exited {
			err = errors.New("reconcile loop did not exit after cancel")
		}
		return err
	})
	return rec
}

// nameOf reverse-resolves a node ID to its canonical machine name.
func (e *env) nameOf(t *testing.T, id string) string {
	t.Helper()
	for name, node := range e.out.Resolve {
		if node == id {
			return name
		}
	}
	t.Fatalf("no canonical name for node %s", id)
	return ""
}

// crashAt arms a crash of node id at the virtual time at and, when
// downFor > 0, its restore downFor later.
func (e *env) crashAt(id string, at, downFor time.Duration) {
	e.sim.At(at, func() { e.net.CrashHost(id); e.injected++ })
	if downFor > 0 {
		e.sim.At(at+downFor, func() { e.net.RestoreHost(id); e.injected++ })
	}
}

func advance(t *testing.T, sim *vclock.Sim, until time.Duration) {
	t.Helper()
	if err := sim.RunUntil(until); err != nil {
		t.Fatal(err)
	}
}

// TestReconcileCrashAndRejoin: a crashed sensor host is detected, cut
// out of the deployment incrementally, and folded back in after it
// returns — without ever redeploying the full system.
func TestReconcileCrashAndRejoin(t *testing.T) {
	e := deployLAN(t, 7, 3, 3)
	base := e.sim.Now()
	victim := e.hosts[len(e.hosts)-1] // last subnet's last host: never the master
	victimName := e.nameOf(t, victim)
	total := len(e.out.Plan.Hosts)

	rec := e.watch(context.Background(), 2*time.Minute)
	e.crashAt(victim, base+time.Minute, 14*time.Minute)

	// Phase 1: crash at base+1m; give the loop a few rounds.
	advance(t, e.sim, base+10*time.Minute)
	dep := rec.Deployment()
	if containsStr(dep.Plan.Hosts, victimName) {
		t.Fatalf("crashed host %s still in live plan %v", victimName, dep.Plan.Hosts)
	}
	if v := deploy.ValidateConnectivity(dep.Plan); !v.Complete {
		t.Fatalf("repaired plan incomplete: %v", v.MissingPairs)
	}
	var repaired *Round
	for _, rd := range rec.Rounds() {
		if rd.Repaired() {
			rd := rd
			repaired = &rd
			break
		}
	}
	if repaired == nil {
		t.Fatalf("no repair round after crash; rounds: %+v", rec.Rounds())
	}
	if got := repaired.Delta.Redeployed(); got >= total {
		t.Fatalf("crash repair redeployed %d of %d components: not incremental", got, total)
	}
	if len(repaired.Delta.Kept) == 0 {
		t.Fatal("crash repair kept no agents")
	}
	if !containsStr(repaired.Delta.Stopped, victimName) {
		t.Fatalf("repair did not stop the victim: %s", repaired.Delta)
	}

	// Phase 2: the host rejoins at base+15m; the loop folds it back.
	advance(t, e.sim, base+25*time.Minute)
	dep = rec.Deployment()
	if !containsStr(dep.Plan.Hosts, victimName) {
		t.Fatalf("restored host %s missing from plan %v", victimName, dep.Plan.Hosts)
	}
	if v := deploy.ValidateConnectivity(dep.Plan); !v.Complete {
		t.Fatalf("rejoin plan incomplete: %v", v.MissingPairs)
	}
	last := rec.Rounds()[len(rec.Rounds())-1]
	if last.Err != nil || last.Drifted() {
		t.Fatalf("loop did not converge after rejoin: %+v", last)
	}
	if e.injected != 2 {
		t.Fatalf("injected %d events, want the crash and the restore", e.injected)
	}
}

// TestReconcileMasterFailover: when the machine hosting the name server
// and forecaster dies, the loop re-homes them on a surviving host.
func TestReconcileMasterFailover(t *testing.T) {
	e := deployLAN(t, 11, 2, 3)
	base := e.sim.Now()
	master := e.out.Plan.Master
	masterID := e.out.Resolve[master]
	if masterID == "" {
		t.Fatalf("cannot resolve master %s", master)
	}

	rec := e.watch(context.Background(), 2*time.Minute)
	e.crashAt(masterID, base+time.Minute, 0)

	advance(t, e.sim, base+12*time.Minute)
	dep := rec.Deployment()
	if dep.Plan.NameServer == master {
		t.Fatalf("name server still on dead master %s", master)
	}
	if containsStr(dep.Plan.Hosts, master) {
		t.Fatalf("dead master %s still monitored", master)
	}
	if v := deploy.ValidateConnectivity(dep.Plan); !v.Complete {
		t.Fatalf("failover plan incomplete: %v", v.MissingPairs)
	}
}

// TestReconcileGatewayRehomed: the query gateway rides the master — when
// its host dies, the reconcile loop re-homes it alongside the name
// server, the new gateway re-registers under kind "gateway", and an end
// user on a surviving host can still discover it and fetch live
// measurements through the query plane.
func TestReconcileGatewayRehomed(t *testing.T) {
	e := deployLAN(t, 11, 2, 3)
	base := e.sim.Now()
	master := e.out.Plan.Master
	masterID := e.out.Resolve[master]
	if gws := e.out.Plan.Gateways; len(gws) != 1 || gws[0] != master {
		t.Fatalf("gateways planned on %v, want only the master %q", gws, master)
	}

	rec := e.watch(context.Background(), 2*time.Minute)
	e.crashAt(masterID, base+time.Minute, 0)

	advance(t, e.sim, base+12*time.Minute)
	dep := rec.Deployment()
	gws := dep.Plan.Gateways
	if len(gws) != 1 || gws[0] == master {
		t.Fatalf("gateways %v: want one, off the dead master %s", gws, master)
	}
	if gws[0] != dep.Plan.Master {
		t.Fatalf("gateway %q re-homed away from the new master %q", gws[0], dep.Plan.Master)
	}

	// Give the rebuilt cliques a few rounds to measure, then query.
	advance(t, e.sim, e.sim.Now()+5*time.Minute)
	nsID := dep.Resolve[dep.Plan.NameServer]
	gwID := dep.Resolve[gws[0]]
	pairs := dep.Plan.MeasuredPairs()
	if len(pairs) == 0 {
		t.Fatal("no measured pairs after failover")
	}
	src, dst := dep.Resolve[pairs[0][0]], dep.Resolve[pairs[0][1]]
	var qerr error
	var samples []proto.Sample
	done := false
	e.sim.Go("user", func() {
		defer func() { done = true }()
		st := dep.Agents[dep.Plan.Master].Station()
		gc, err := gateway.Connect(st, nsID)
		if err != nil {
			qerr = err
			return
		}
		if gc.Host != gwID {
			qerr = fmt.Errorf("discovered gateway on %s, want %s", gc.Host, gwID)
			return
		}
		samples, qerr = gc.Fetch(sensor.LatencySeries(src, dst), 1)
	})
	advance(t, e.sim, e.sim.Now()+2*time.Minute)
	if !done {
		t.Fatal("gateway query did not finish")
	}
	if qerr != nil {
		t.Fatalf("query through re-homed gateway: %v", qerr)
	}
	if len(samples) != 1 {
		t.Fatalf("expected 1 sample, got %d", len(samples))
	}
}

// TestReconcileMixedScenarioConverges is the acceptance case: a seeded
// mixed fault schedule (crash + partition via link cut + degradation,
// each self-healing) against the reconcile loop. The loop must end
// converged on a valid deployment, and no single repair may have torn
// down the whole system.
func TestReconcileMixedScenarioConverges(t *testing.T) {
	e := deployLAN(t, 42, 3, 3)
	base := e.sim.Now()

	// The seeded mixed schedule, as offsets from the end of the apply: a
	// crash, a cut of a host's access segment (partitioning the live
	// host) and a degradation of another, each healing four minutes on.
	schedule := []struct {
		at    time.Duration
		apply func()
	}{
		{194_231_278_675, func() { e.net.CrashHost("h1-1") }},
		{434_231_278_675, func() { e.net.RestoreHost("h1-1") }},
		{658_101_878_760, func() { e.net.CutLink("h0-2", "seg0") }},
		{898_101_878_760, func() { e.net.HealLink("h0-2", "seg0") }},
		{1_145_743_547_657, func() { e.net.DegradeLink("h1-1", "seg1", 0.3438631407773136) }},
		{1_385_743_547_657, func() { e.net.RestoreLink("h1-1", "seg1") }},
	}
	var fired []time.Duration
	for _, ev := range schedule {
		e.sim.At(base+ev.at, func() { ev.apply(); fired = append(fired, e.sim.Now()) })
	}

	rec := e.watch(context.Background(), 2*time.Minute)
	end := base + 45*time.Minute
	advance(t, e.sim, end)

	// All faults injected and healed.
	if len(fired) != 6 {
		t.Fatalf("injected %d events, want 6 (3 faults + 3 heals): %v", len(fired), fired)
	}

	// Converged: the last round saw no drift, no dead hosts, no error.
	rounds := rec.Rounds()
	if len(rounds) == 0 {
		t.Fatal("no reconcile rounds ran")
	}
	last := rounds[len(rounds)-1]
	if last.Err != nil {
		t.Fatalf("last round errored: %v", last.Err)
	}
	if last.Drifted() {
		t.Fatalf("last round still drifting: %s", last.Diff)
	}
	if len(last.Dead) != 0 {
		t.Fatalf("dead hosts at end: %v", last.Dead)
	}

	// The final deployment is valid and monitors every candidate again.
	dep := rec.Deployment()
	if v := deploy.ValidateConnectivity(dep.Plan); !v.Complete {
		t.Fatalf("final plan incomplete: %v", v.MissingPairs)
	}
	if len(dep.Plan.Hosts) != len(e.out.Plan.Hosts) {
		t.Fatalf("final plan monitors %d hosts, want %d", len(dep.Plan.Hosts), len(e.out.Plan.Hosts))
	}

	// Every repair was incremental: redeployed < total components.
	sawRepair := false
	for _, rd := range rounds {
		if !rd.Repaired() {
			continue
		}
		sawRepair = true
		totalComponents := rd.Delta.Redeployed() + len(rd.Delta.Kept)
		if rd.Delta.Redeployed() >= totalComponents {
			t.Fatalf("round %d redeployed %d of %d components: full teardown", rd.Index, rd.Delta.Redeployed(), totalComponents)
		}
	}
	if !sawRepair {
		t.Fatal("no repair rounds despite injected faults")
	}

	// Recovery: each event is answered by the first repair round that
	// starts before the next event. Detection follows the event, repair
	// follows detection, and no repair takes three reconcile intervals.
	var windows [][2]time.Duration // [event, repaired) of each answered event
	for i, at := range fired {
		next := time.Duration(math.MaxInt64)
		if i+1 < len(fired) {
			next = fired[i+1]
		}
		j := slices.IndexFunc(rounds, func(rd Round) bool { return rd.Started >= at && rd.Started < next && rd.Repaired() })
		if j < 0 {
			continue
		}
		rd := rounds[j]
		if rd.DetectedAt <= at || rd.RepairedAt < rd.DetectedAt {
			t.Fatalf("implausible timing of the repair of the event at %v: %+v", at, rd)
		}
		if rd.RepairedAt-at > 15*time.Minute {
			t.Fatalf("repair of the event at %v slower than three reconcile intervals: %+v", at, rd)
		}
		windows = append(windows, [2]time.Duration{at, rd.RepairedAt})
	}
	if len(windows) < 2 {
		t.Fatalf("%d events answered by a repair, want at least 2", len(windows))
	}

	// Monitoring kept producing probes outside the repair windows.
	outside := 0
	for _, r := range e.net.Records() {
		if !strings.HasPrefix(r.Tag, "clique:") || r.End < base || r.End >= end {
			continue
		}
		if !slices.ContainsFunc(windows, func(w [2]time.Duration) bool { return r.End >= w[0] && r.End < w[1] }) {
			outside++
		}
	}
	if outside == 0 {
		t.Fatalf("no monitoring probes outside the repair windows %v", windows)
	}
}

// TestReconcileStableWhenHealthy: rounds over an unchanged platform
// never churn the deployment.
func TestReconcileStableWhenHealthy(t *testing.T) {
	e := deployLAN(t, 5, 2, 2)
	rec := e.watch(context.Background(), 2*time.Minute)
	advance(t, e.sim, e.sim.Now()+10*time.Minute)
	rounds := rec.Rounds()
	if len(rounds) < 2 {
		t.Fatalf("only %d rounds ran", len(rounds))
	}
	for _, rd := range rounds {
		if rd.Err != nil {
			t.Fatalf("round %d errored: %v", rd.Index, rd.Err)
		}
		if rd.Drifted() || rd.Delta != nil {
			t.Fatalf("healthy platform drifted in round %d: %s", rd.Index, rd.Diff)
		}
		if len(rd.Dead) != 0 {
			t.Fatalf("healthy platform reported dead hosts: %v", rd.Dead)
		}
	}
}

// TestReconcileRunCancellation: canceling the context stops the loop.
func TestReconcileRunCancellation(t *testing.T) {
	e := deployLAN(t, 3, 2, 2)
	ctx, cancel := context.WithCancel(context.Background())
	rec := New(e.pl, e.out.Deployment, Config{Runs: []core.MapRun{e.run}, Interval: time.Minute})
	var runErr error
	finished := false
	e.sim.Go("reconcile", func() {
		runErr = rec.Run(ctx)
		finished = true
	})
	e.sim.Go("cancel", func() {
		e.sim.Sleep(90 * time.Second)
		cancel()
	})
	advance(t, e.sim, e.sim.Now()+10*time.Minute)
	if !finished {
		t.Fatal("Run did not return after cancellation")
	}
	if !errors.Is(runErr, context.Canceled) {
		t.Fatalf("Run returned %v, want context.Canceled", runErr)
	}
}

func containsStr(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}

var _ = fmt.Sprintf // keep fmt handy for debugging edits
