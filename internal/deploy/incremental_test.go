package deploy

import (
	"context"
	"testing"
	"time"

	"nwsenv/internal/nws/clique"
	"nwsenv/internal/nws/host"
	"nwsenv/internal/nws/proto"
	"nwsenv/internal/nws/sensor"
)

// deployEnsLyon applies the full ENS-Lyon plan on the simulated
// transport and lets it run a minute.
func deployEnsLyon(t *testing.T) (*Deployment, *Plan, map[string]string, *proto.SimTransport) {
	t.Helper()
	_, net, plan, resolve := planEnsLyon(t)
	tr := proto.NewSimTransport(net)
	dep := applyTorn(t, tr, sensor.SimProber{Net: net}, plan, resolve, ApplyOptions{TokenGap: time.Second})
	sim := net.Sim()
	if err := sim.RunUntil(sim.Now() + time.Minute); err != nil {
		t.Fatal(err)
	}
	return dep, plan, resolve, tr
}

// applyDelta runs dep.ApplyDelta inside a simulation process and
// advances the clock until it returns.
func applyDelta(t *testing.T, tr *proto.SimTransport, dep *Deployment, plan *Plan, resolve map[string]string) *DeltaReport {
	t.Helper()
	sim := tr.Network().Sim()
	var rep *DeltaReport
	var err error
	sim.Go("delta", func() {
		rep, err = dep.ApplyDelta(context.Background(), plan, resolve)
	})
	if e := sim.RunUntil(sim.Now() + time.Second); e != nil {
		t.Fatal(e)
	}
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// copyPlan deep-copies the mutable plan fields the tests edit.
func copyPlan(p *Plan) *Plan {
	cp := *p
	cp.Hosts = append([]string(nil), p.Hosts...)
	cp.MemoryServers = append([]string(nil), p.MemoryServers...)
	cp.Cliques = append([]CliqueSpec(nil), p.Cliques...)
	cp.MemoryOf = map[string]string{}
	for k, v := range p.MemoryOf {
		cp.MemoryOf[k] = v
	}
	return &cp
}

// TestApplyDeltaHostRemoval: carving one clique member out of the plan
// rebuilds only that clique's survivors, tears down the leaver, keeps
// everyone else, and bumps the repaired clique's token epoch.
func TestApplyDeltaHostRemoval(t *testing.T) {
	dep, plan, resolve, tr := deployEnsLyon(t)

	const victim = "sci3.popc.private"
	next := copyPlan(plan)
	next.Hosts = nil
	for _, h := range plan.Hosts {
		if h != victim {
			next.Hosts = append(next.Hosts, h)
		}
	}
	delete(next.MemoryOf, victim)
	var changedClique string
	for i, c := range next.Cliques {
		var members []string
		for _, m := range c.Members {
			if m != victim {
				members = append(members, m)
			}
		}
		if len(members) != len(c.Members) {
			changedClique = c.Name
			cc := c
			cc.Members = members
			next.Cliques[i] = cc
		}
	}
	if changedClique == "" {
		t.Fatalf("victim %s not in any clique", victim)
	}
	keptAgent := dep.Agents["moby.cri2000.ens-lyon.fr"]

	rep := applyDelta(t, tr, dep, next, resolve)
	if len(rep.Stopped) != 1 || rep.Stopped[0] != victim {
		t.Fatalf("stopped %v", rep.Stopped)
	}
	if dep.Agents[victim] != nil {
		t.Fatal("victim agent still deployed")
	}
	if dep.Agents["moby.cri2000.ens-lyon.fr"] != keptAgent {
		t.Fatal("unrelated agent was rebuilt")
	}
	if rep.Redeployed() >= len(next.Hosts) {
		t.Fatalf("redeployed %d of %d: not incremental", rep.Redeployed(), len(next.Hosts))
	}
	if got := dep.epochs[changedClique]; got != epochStride {
		t.Fatalf("epoch of repaired clique %s = %d, want %d", changedClique, got, epochStride)
	}
}

// TestApplyDeltaServerMove: moving the name server re-binds every host
// (all roles reference it), which is the worst — but still correct —
// case of the incremental path.
func TestApplyDeltaServerMove(t *testing.T) {
	dep, plan, resolve, tr := deployEnsLyon(t)

	next := copyPlan(plan)
	next.NameServer = "moby.cri2000.ens-lyon.fr"
	rep := applyDelta(t, tr, dep, next, resolve)
	if len(rep.Diff.ServerMoves) != 1 {
		t.Fatalf("server moves %v", rep.Diff.ServerMoves)
	}
	if len(rep.Restarted) != len(plan.Hosts) {
		t.Fatalf("a name-server move must rebind all %d hosts, restarted %d",
			len(plan.Hosts), len(rep.Restarted))
	}
	if len(rep.Stopped)+len(rep.Started) != 0 {
		t.Fatalf("unexpected membership changes: %s", rep)
	}
}

// TestApplyDeltaNoop: an identical plan transitions nothing.
func TestApplyDeltaNoop(t *testing.T) {
	dep, plan, resolve, tr := deployEnsLyon(t)

	agentsBefore := map[string]*host.Agent{}
	for k, v := range dep.Agents {
		agentsBefore[k] = v
	}
	rep := applyDelta(t, tr, dep, copyPlan(plan), resolve)
	if !rep.Diff.Empty() || rep.Redeployed()+len(rep.Stopped) != 0 {
		t.Fatalf("noop delta touched agents: %s", rep)
	}
	if len(rep.Kept) != len(plan.Hosts) {
		t.Fatalf("kept %d of %d", len(rep.Kept), len(plan.Hosts))
	}
	for k, v := range agentsBefore {
		if dep.Agents[k] != v {
			t.Fatalf("agent %s was replaced by a noop delta", k)
		}
	}
}

// TestApplyDeltaBuildFailurePrunesPlan: when the rebuild phase fails
// after agents were torn down, the deployment's Plan must shrink to the
// agents actually still running, so a reconcile loop diffing against it
// re-detects the hole next round instead of reporting convergence.
func TestApplyDeltaBuildFailurePrunesPlan(t *testing.T) {
	dep, plan, resolve, tr := deployEnsLyon(t)
	sim := tr.Network().Sim()

	// Force the rebuild to fail: squat the endpoint of a host whose
	// agent the delta must rebuild (a clique-membership change on the
	// sci clique rebuilds every sci member).
	const squatted = "sci1.popc.private"
	next := copyPlan(plan)
	const victim = "sci3.popc.private"
	next.Hosts = nil
	for _, h := range plan.Hosts {
		if h != victim {
			next.Hosts = append(next.Hosts, h)
		}
	}
	delete(next.MemoryOf, victim)
	for i, c := range next.Cliques {
		var members []string
		for _, m := range c.Members {
			if m != victim {
				members = append(members, m)
			}
		}
		cc := c
		cc.Members = members
		next.Cliques[i] = cc
	}

	var rep *DeltaReport
	var deltaErr error
	sim.Go("delta-fail", func() {
		dep.Agents[squatted].Stop() // free then re-bind the endpoint ourselves
		if _, err := tr.Open(resolve[squatted]); err != nil {
			deltaErr = err
			return
		}
		delete(dep.Agents, squatted)
		rep, deltaErr = dep.ApplyDelta(context.Background(), next, resolve)
	})
	if err := sim.RunUntil(sim.Now() + time.Second); err != nil {
		t.Fatal(err)
	}
	if deltaErr == nil {
		t.Fatalf("delta with squatted endpoint succeeded: %v", rep)
	}
	// The torn-down hosts are no longer claimed by the plan...
	for _, name := range append(append([]string{}, rep.Stopped...), rep.Restarted...) {
		if containsHost(dep.Plan.Hosts, name) {
			t.Fatalf("plan still claims torn-down host %s after failed delta", name)
		}
	}
	// ... so the same target plan diffs non-empty and the repair can be
	// retried once the conflict clears.
	if DiffPlans(dep.Plan, next).Empty() {
		t.Fatal("failed transition left an empty diff: hole would never be re-detected")
	}
}

func containsHost(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}

// TestRoleSignatureIgnoresStartDelay: clique reordering shifts stagger
// delays; that alone must not force rebuilds.
func TestRoleSignatureIgnoresStartDelay(t *testing.T) {
	mk := func(delay time.Duration) host.Roles {
		return host.Roles{
			NSHost: "n0", MemoryHost: "n0",
			Cliques: []clique.Config{{
				Name: "c", Members: []string{"n0", "n1"},
				TokenGap: time.Second, StartDelay: delay,
			}},
		}
	}
	a, b := mk(0), mk(3*time.Second)
	if roleSignature(a) != roleSignature(b) {
		t.Fatal("StartDelay leaked into the role signature")
	}
	// Epoch, by contrast, must force a rebuild.
	c := mk(0)
	c.Cliques[0].Epoch = epochStride
	if roleSignature(a) == roleSignature(c) {
		t.Fatal("Epoch missing from the role signature")
	}
	// So must gaining (or losing) the query gateway.
	g := mk(0)
	g.Gateway = true
	if roleSignature(a) == roleSignature(g) {
		t.Fatal("Gateway missing from the role signature")
	}
}

// TestApplyDeltaGatewayMove: moving the query gateway rebuilds exactly
// the two hosts whose role assignment changed (the old and the new
// gateway) and leaves the rest of the deployment running.
func TestApplyDeltaGatewayMove(t *testing.T) {
	dep, plan, resolve, tr := deployEnsLyon(t)

	if len(plan.Gateways) != 1 || plan.Gateways[0] != plan.Master {
		t.Fatalf("planner placed the gateways on %v, want only the master %q", plan.Gateways, plan.Master)
	}
	next := copyPlan(plan)
	next.Gateways = []string{"moby.cri2000.ens-lyon.fr"}
	rep := applyDelta(t, tr, dep, next, resolve)
	if len(rep.Diff.ServerMoves) != 1 {
		t.Fatalf("server moves %v", rep.Diff.ServerMoves)
	}
	if len(rep.Restarted) != 2 {
		t.Fatalf("a gateway move must rebuild exactly the old and new hosts, restarted %v", rep.Restarted)
	}
	if len(rep.Stopped)+len(rep.Started) != 0 {
		t.Fatalf("unexpected membership changes: %s", rep)
	}
}
