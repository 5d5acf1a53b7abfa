package deploy

import (
	"context"
	"errors"
	"maps"
	"slices"
	"strings"
	"testing"
	"time"

	"nwsenv/internal/env"
	"nwsenv/internal/nws/clique"
	"nwsenv/internal/nws/host"
	"nwsenv/internal/nws/proto"
	"nwsenv/internal/simnet"
)

// deployEnsLyon applies the full ENS-Lyon plan on the simulated
// transport and lets it run a minute.
func deployEnsLyon(t *testing.T) (*Deployment, *Plan, map[string]string, *proto.SimTransport) {
	t.Helper()
	_, net, plan, resolve := planEnsLyon(t)
	tr := proto.NewSimTransport(net)
	dep := applyTorn(t, tr, env.SimSubstrate{Net: net}, plan, resolve, ApplyOptions{})
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
	if len(rep.Renewed) != 0 {
		t.Fatalf("a server move renewed cliques %v", rep.Renewed)
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
	same := copyPlan(plan)
	rep := applyDelta(t, tr, dep, same, resolve)
	if rep.Changed() || len(rep.Renewed) != 0 {
		t.Fatalf("noop delta touched agents: %s", rep)
	}
	if dep.Plan != same {
		t.Fatal("noop delta did not commit its plan")
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

// TestApplyDeltaBuildFailureRetry: a gateway move to canaria fails to
// build because canaria's endpoint is squatted, after the old gateway's
// agent was torn down. The failed apply keeps the old plan, and the
// retry reads the agents still running: it restores both torn-down
// agents, and canaria, ring member 0 of bridge-0 and
// clique-140.77.13.1, joins those rings (they kept running on their
// other members) at their running epochs instead of bootstrapping a
// second token beside the one still circulating.
func TestApplyDeltaBuildFailureRetry(t *testing.T) {
	dep, plan, resolve, tr := deployEnsLyon(t)
	sim := tr.Network().Sim()

	const gw = "canaria.ens-lyon.fr"
	kept := []string{"bridge-0", "clique-140.77.13.1"}
	for _, name := range kept {
		if c := findClique(plan, name); c == nil || c.Members[0] != gw {
			t.Fatalf("%s is not a clique with %s as member 0: %+v", name, gw, c)
		}
	}
	next := copyPlan(plan)
	next.Gateways = []string{gw}
	epochs := maps.Clone(dep.epochs)

	var squat proto.Endpoint
	var deltaErr error
	sim.Go("delta-fail", func() {
		dep.Agents[gw].Stop() // free then re-bind the endpoint ourselves
		delete(dep.Agents, gw)
		if squat, deltaErr = tr.Open(resolve[gw]); deltaErr != nil {
			return
		}
		_, deltaErr = dep.ApplyDelta(context.Background(), next, resolve)
	})
	if err := sim.RunUntil(sim.Now() + time.Second); err != nil {
		t.Fatal(err)
	}
	if deltaErr == nil {
		t.Fatal("delta with squatted endpoint succeeded")
	}
	if dep.Agents[plan.Master] != nil {
		t.Fatalf("old gateway %s still deployed after the failed delta", plan.Master)
	}

	// Once the conflict clears, the retry restores the torn-down agents.
	squat.Close()
	rep := applyDelta(t, tr, dep, next, resolve)
	slices.Sort(rep.Started)
	if want := []string{gw, plan.Master}; !slices.Equal(rep.Started, want) {
		t.Fatalf("retry started %v, want the torn-down %v: %s", rep.Started, want, rep)
	}
	for _, name := range plan.Hosts {
		if dep.Agents[name] == nil {
			t.Fatalf("retry left %s without an agent", name)
		}
	}
	for _, name := range slices.Concat(rep.Restarted, rep.Started) {
		for _, c := range dep.Agents[name].Roles().Cliques {
			if slices.Contains(kept, c.Name) && !c.Join {
				t.Fatalf("%s rebuilt into running clique %s at epoch %d without joining it", name, c.Name, c.Epoch)
			}
		}
	}
	for _, name := range kept {
		if dep.epochs[name] != epochs[name] {
			t.Fatalf("clique %s moved from epoch %d to %d", name, epochs[name], dep.epochs[name])
		}
	}
}

// TestApplyDeltaPeriodChange: a new period for one clique is a new ring.
// The delta rebuilds exactly that clique's members, at its next
// incarnation, keeps every other agent, and commits the plan.
func TestApplyDeltaPeriodChange(t *testing.T) {
	dep, plan, resolve, tr := deployEnsLyon(t)

	const paced = "bridge-0"
	next := copyPlan(plan)
	c := findClique(next, paced)
	c.Period = 3 * time.Second
	rep := applyDelta(t, tr, dep, next, resolve)

	slices.Sort(rep.Restarted)
	want := slices.Sorted(slices.Values(c.Members))
	if !slices.Equal(rep.Restarted, want) || len(rep.Started)+len(rep.Stopped) != 0 {
		t.Fatalf("period change of %s: %s, want exactly %v rebuilt", paced, rep, want)
	}
	if dep.Plan != next {
		t.Fatal("period change did not commit its plan")
	}
	for _, spec := range next.Cliques {
		want := int64(0)
		if spec.Name == paced {
			want = epochStride
		}
		if got := dep.epochs[spec.Name]; got != want {
			t.Fatalf("clique %s at epoch %d, want %d", spec.Name, got, want)
		}
	}
	for _, name := range c.Members {
		for _, cfg := range dep.Agents[name].Roles().Cliques {
			if cfg.Name == paced && (cfg.TokenGap != c.Period || cfg.Join) {
				t.Fatalf("%s runs %s with period %v join=%t, want %v and a fresh ring", name, paced, cfg.TokenGap, cfg.Join, c.Period)
			}
		}
	}
}

// TestApplyDeltaPlanOnlyChange: a plan change no agent runs (which
// hosts a shared clique represents feeds the estimator, not the rings)
// rebuilds nothing and still commits the plan.
func TestApplyDeltaPlanOnlyChange(t *testing.T) {
	dep, plan, resolve, tr := deployEnsLyon(t)

	next := copyPlan(plan)
	c := findClique(next, "clique-140.77.13.1")
	c.Represents = c.Represents[:len(c.Represents)-1]
	agents := maps.Clone(dep.Agents)
	rep := applyDelta(t, tr, dep, next, resolve)
	if rep.Changed() || len(rep.Renewed) != 0 {
		t.Fatalf("a change no agent runs touched agents: %s", rep)
	}
	if dep.Plan != next {
		t.Fatal("the delta did not commit its plan")
	}
	if !maps.Equal(agents, dep.Agents) {
		t.Fatal("an agent was replaced")
	}
}

// findClique returns plan's clique called name, nil if none is.
func findClique(plan *Plan, name string) *CliqueSpec {
	for i := range plan.Cliques {
		if plan.Cliques[i].Name == name {
			return &plan.Cliques[i]
		}
	}
	return nil
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
	if !sameRoles(a, b) {
		t.Fatal("StartDelay leaked into the role comparison")
	}
	// Epoch, by contrast, must force a rebuild.
	c := mk(0)
	c.Cliques[0].Epoch = epochStride
	if sameRoles(a, c) {
		t.Fatal("Epoch missing from the role comparison")
	}
	// So must gaining (or losing) the query gateway.
	g := mk(0)
	g.Gateway = true
	if sameRoles(a, g) {
		t.Fatal("Gateway missing from the role comparison")
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
	if len(rep.Renewed) != 0 {
		t.Fatalf("a gateway move renewed cliques %v", rep.Renewed)
	}
	if len(rep.Restarted) != 2 {
		t.Fatalf("a gateway move must rebuild exactly the old and new hosts, restarted %v", rep.Restarted)
	}
	if len(rep.Stopped)+len(rep.Started) != 0 {
		t.Fatalf("unexpected membership changes: %s", rep)
	}
}

// cancelAfter is a context canceled once its Err has been read n times:
// an apply aborted midway through building its agents.
type cancelAfter struct {
	context.Context
	n int
}

func (c *cancelAfter) Err() error {
	if c.n--; c.n < 0 {
		return context.Canceled
	}
	return nil
}

// TestApplyEpochs pins how the one apply path hands out clique
// incarnations. The first apply is the delta from an empty deployment:
// it starts every host, every clique at epoch 0, and no member joins a
// ring. A later delta moves the changed and added cliques to the next
// incarnation, leaves the kept ones where they were, and the rebuilt
// members of kept cliques join the rings still running. An aborted
// first apply tears down what it built, leaving no endpoint open.
func TestApplyEpochs(t *testing.T) {
	t.Run("first apply", func(t *testing.T) {
		_, net, plan, resolve := planEnsLyon(t)
		dep := &Deployment{Plan: &Plan{}, tr: proto.NewSimTransport(net), prober: env.SimSubstrate{Net: net}}
		rep, build, err := dep.decide(plan, resolve)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(rep.Started, plan.Hosts) || len(rep.Stopped)+len(rep.Restarted)+len(rep.Kept) != 0 {
			t.Fatalf("first apply: %s, started %v, want every plan host started", rep, rep.Started)
		}
		if len(build) != len(plan.Hosts) {
			t.Fatalf("first apply builds %d agents, want %d", len(build), len(plan.Hosts))
		}
		for name, roles := range build {
			for _, c := range roles.Cliques {
				if c.Epoch != 0 || c.Join {
					t.Fatalf("%s: clique %s at epoch %d join=%t, want epoch 0, no join", name, c.Name, c.Epoch, c.Join)
				}
			}
		}
	})

	t.Run("later delta", func(t *testing.T) {
		dep, plan, resolve, tr := deployEnsLyon(t)
		const victim = "sci3.popc.private"
		next := copyPlan(plan)
		next.Hosts = slices.DeleteFunc(next.Hosts, func(h string) bool { return h == victim })
		delete(next.MemoryOf, victim)
		for i, c := range next.Cliques {
			c.Members = slices.DeleteFunc(slices.Clone(c.Members), func(h string) bool { return h == victim })
			next.Cliques[i] = c
		}
		next.Cliques = append(next.Cliques, CliqueSpec{
			Name: "clique-added", Members: []string{"canaria.ens-lyon.fr", "moby.cri2000.ens-lyon.fr"},
		})

		// decide on a copy shows the roles the delta builds; the
		// deployment itself then takes the delta for real.
		probe := *dep
		probe.epochs = maps.Clone(dep.epochs)
		rep, build, err := probe.decide(next, resolve)
		if err != nil {
			t.Fatal(err)
		}
		fresh := map[string]bool{"clique-added": true}
		for _, name := range rep.Renewed {
			fresh[name] = true
		}
		if len(fresh) < 2 {
			t.Fatalf("delta changed no clique: %s", rep)
		}
		joined := 0
		for _, name := range rep.Restarted {
			for _, c := range build[name].Cliques {
				want := int64(0)
				if fresh[c.Name] {
					want = epochStride
				}
				if c.Epoch != want || c.Join == fresh[c.Name] {
					t.Fatalf("rebuilt %s: clique %s at epoch %d join=%t, want epoch %d join=%t",
						name, c.Name, c.Epoch, c.Join, want, !fresh[c.Name])
				}
				if c.Join {
					joined++
				}
			}
		}
		if joined == 0 {
			t.Fatal("no rebuilt member of a kept clique: the join case went untested")
		}

		applyDelta(t, tr, dep, next, resolve)
		for _, c := range next.Cliques {
			want := int64(0)
			if fresh[c.Name] {
				want = epochStride
			}
			if got := dep.epochs[c.Name]; got != want || probe.epochs[c.Name] != want {
				t.Fatalf("clique %s at epoch %d (decided %d), want %d", c.Name, got, probe.epochs[c.Name], want)
			}
		}
	})

	t.Run("canceled first apply", func(t *testing.T) {
		_, net, plan, resolve := planEnsLyon(t)
		tr := proto.NewSimTransport(net)
		prober := env.SimSubstrate{Net: net}
		ctx := &cancelAfter{Context: context.Background(), n: 3}
		if _, err := Apply(ctx, tr, prober, plan, resolve, ApplyOptions{}); !errors.Is(err, context.Canceled) {
			t.Fatalf("apply canceled after 3 agents: %v, want context.Canceled", err)
		}
		// Every endpoint the aborted apply opened is free again.
		applyTorn(t, tr, prober, plan, resolve, ApplyOptions{})
	})
}

// TestApplyDeltaGrowth: a running deployment transitions to a grown
// plan by restarting only affected hosts; untouched cliques keep their
// agents.
func TestApplyDeltaGrowth(t *testing.T) {
	// Plan A monitors only the public side; plan B adds the private
	// networks. Build both from the same merged mapping.
	_, net, merged, resolve := mapEnsLyon(t)
	full, err := NewPlan(merged, PlanConfig{Master: "the-doors.ens-lyon.fr"})
	if err != nil {
		t.Fatal(err)
	}
	// Carve the initial plan: drop the sci clique and its hosts.
	initial := *full
	initial.Cliques = nil
	for _, c := range full.Cliques {
		if !strings.Contains(c.Name, "sci") {
			initial.Cliques = append(initial.Cliques, c)
		}
	}
	initial.Hosts = nil
	for _, h := range full.Hosts {
		if !strings.HasPrefix(h, "sci") || strings.HasPrefix(h, "sci.") {
			initial.Hosts = append(initial.Hosts, h)
		}
	}

	tr := proto.NewSimTransport(net)
	prober := env.SimSubstrate{Net: net}
	opts := ApplyOptions{}
	dep := applyTorn(t, tr, prober, &initial, resolve, opts)
	sim := net.Sim()
	base := sim.Now()
	if err := sim.RunUntil(base + time.Minute); err != nil {
		t.Fatal(err)
	}
	fromSci1 := func(row simnet.TrafficRow) bool { return row.Tag != "" && row.Src == "sci1" }
	sci1Before := completed(net, fromSci1)
	// Remember the untouched myri agent to prove it survives the update.
	myriAgent := dep.Agents["myri1.popc.private"]
	if myriAgent == nil {
		t.Fatal("initial deployment missing myri agent")
	}
	before := len(dep.Agents)

	var rep *DeltaReport
	var deltaErr error
	sim.Go("delta", func() {
		rep, deltaErr = dep.ApplyDelta(context.Background(), full, resolve)
	})
	if err := sim.RunUntil(sim.Now() + time.Second); err != nil {
		t.Fatal(err)
	}
	if deltaErr != nil {
		t.Fatal(deltaErr)
	}
	sci := cliqueByNetworkSuffix(full, "sci")
	if len(rep.Started) == 0 || !slices.Contains(rep.Renewed, sci.Name) {
		t.Fatalf("delta report %s, want the sci hosts started and %s renewed", rep, sci.Name)
	}
	if rep.Redeployed() >= len(full.Hosts) {
		t.Fatalf("redeployed %d of %d components: not incremental", rep.Redeployed(), len(full.Hosts))
	}
	if dep.Agents["myri1.popc.private"] != myriAgent {
		t.Fatal("unchanged host was restarted")
	}
	if len(dep.Agents) <= before {
		t.Fatalf("agents %d after delta, was %d", len(dep.Agents), before)
	}
	// The sci clique starts measuring after the transition.
	if err := sim.RunUntil(base + 4*time.Minute); err != nil {
		t.Fatal(err)
	}
	if completed(net, fromSci1) == sci1Before {
		t.Fatal("added sci clique produced no measurements after ApplyDelta")
	}
}

// TestApplyDeltaShrinkAndMoves: one delta drops a host, drops a clique
// and moves the name server. The leaver is stopped, every other host is
// rebound to the new name server, only the shrunk clique is renewed, and
// the rebuilt members of every other clique join the rings that kept
// running.
func TestApplyDeltaShrinkAndMoves(t *testing.T) {
	dep, plan, resolve, tr := deployEnsLyon(t)

	const victim, dropped = "sci3.popc.private", "clique-myri"
	next := copyPlan(plan)
	next.Hosts = slices.DeleteFunc(next.Hosts, func(h string) bool { return h == victim })
	delete(next.MemoryOf, victim)
	next.Cliques = slices.DeleteFunc(next.Cliques, func(c CliqueSpec) bool { return c.Name == dropped })
	sci := cliqueByNetworkSuffix(next, "sci")
	sci.Members = slices.DeleteFunc(slices.Clone(sci.Members), func(h string) bool { return h == victim })
	next.NameServer = "moby.cri2000.ens-lyon.fr"

	rep := applyDelta(t, tr, dep, next, resolve)
	if !slices.Equal(rep.Stopped, []string{victim}) || len(rep.Started)+len(rep.Kept) != 0 {
		t.Fatalf("%s: want only %s stopped, every other host rebuilt", rep, victim)
	}
	if len(rep.Restarted) != len(next.Hosts) {
		t.Fatalf("a name-server move must rebind all %d hosts, restarted %d", len(next.Hosts), len(rep.Restarted))
	}
	if !slices.Equal(rep.Renewed, []string{sci.Name}) {
		t.Fatalf("renewed %v, want only the shrunk %s", rep.Renewed, sci.Name)
	}
	for _, name := range rep.Restarted {
		roles := dep.Agents[name].Roles()
		if roles.NSHost != resolve[next.NameServer] {
			t.Fatalf("%s still bound to name server %s", name, roles.NSHost)
		}
		for _, c := range roles.Cliques {
			if c.Name == dropped || c.Join == (c.Name == sci.Name) {
				t.Fatalf("%s runs clique %s join=%t", name, c.Name, c.Join)
			}
		}
	}
}

// TestApplyDeltaAfterRemapIsStable: two independent map+plan passes over the
// unchanged ENS-Lyon platform change no agent. The pipeline is
// deterministic end to end, so re-mapping an unchanged platform never
// churns the deployment.
func TestApplyDeltaAfterRemapIsStable(t *testing.T) {
	dep, _, _, tr := deployEnsLyon(t)
	_, _, p2, resolve2 := planEnsLyon(t)
	rep := applyDelta(t, tr, dep, p2, resolve2)
	if rep.Changed() || len(rep.Renewed) != 0 {
		t.Fatalf("re-planning an unchanged platform changed the deployment: %s", rep)
	}
	if dep.Plan != p2 {
		t.Fatal("the re-planned delta did not commit its plan")
	}
}
