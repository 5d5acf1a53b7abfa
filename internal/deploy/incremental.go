package deploy

import (
	"context"
	"fmt"
	"slices"
	"time"

	"nwsenv/internal/nws/clique"
	"nwsenv/internal/nws/host"
)

// Incremental redeployment: §4.3 asks the deployment to follow
// "possible platform evolution" — re-map, re-plan, and apply only the
// delta. ApplyDelta is the one apply path, and what the agents run is
// its one notion of change: given a revised plan, it compares every
// host's planned role assignment with the roles and node of the agent
// running there, and rebuilds exactly the agents that run anything
// else, leaving healthy cliques monitoring undisturbed. Apply's first
// deploy is the delta from an empty deployment, which starts every
// agent.

// epochStride separates clique incarnations in the token epoch space.
// Elections and fenced passes (an ack that timed out) inside one
// incarnation bump the epoch by at most the ring size each, so a stride
// of 2^20 leaves any realistic count below the next incarnation.
const epochStride = 1 << 20

// Incarnation is the clique incarnation a token epoch belongs to:
// elections move the epoch within one, a rebuild of the clique's ring
// moves it to the next.
func Incarnation(epoch int64) int64 { return epoch / epochStride }

// DeltaReport summarizes an incremental apply.
type DeltaReport struct {
	// Stopped lists hosts whose agents were torn down and not replaced
	// (machines leaving the platform).
	Stopped []string
	// Restarted lists hosts whose agents were rebuilt in place (role
	// assignment changed: clique membership or period, server
	// placement, memory binding, node).
	Restarted []string
	// Started lists hosts that gained a new agent (machines joining, or
	// hosts whose agent an earlier failed apply tore down).
	Started []string
	// Kept lists hosts whose agents kept running untouched.
	Kept []string
	// Renewed lists the cliques moved to a new incarnation: those whose
	// planned ring no running agent ran.
	Renewed []string
}

// Redeployed counts the components (agents) that were started or
// rebuilt — the §4.3 measure of how incremental the transition was.
func (r *DeltaReport) Redeployed() int { return len(r.Restarted) + len(r.Started) }

// Changed reports whether the transition stopped, rebuilt or started
// any agent.
func (r *DeltaReport) Changed() bool { return r.Redeployed()+len(r.Stopped) > 0 }

// String renders the report for operators: every host it stops,
// rebuilds and starts, and every clique it renews.
func (r *DeltaReport) String() string {
	return fmt.Sprintf("delta: stopped %v, restarted %v, started %v, %d kept; renewed cliques %v",
		r.Stopped, r.Restarted, r.Started, len(r.Kept), r.Renewed)
}

// ApplyDelta transitions the running deployment to newPlan, stopping,
// rebuilding or starting only the agents whose role assignment differs
// from what they run; every other agent (and therefore every unchanged
// measurement clique) keeps running. A clique whose ring changes is
// rebuilt under a higher token epoch so tokens from the previous
// incarnation die out.
//
// A successful apply commits newPlan and newResolve, even when no agent
// changes. On error the deployment is left partially transitioned and
// keeps its old Plan: the next apply reads the agents still running, so
// it starts the ones this one tore down. ctx is checked between agent
// constructions and before any agent starts: the agents an aborted
// apply built are torn down.
func (d *Deployment) ApplyDelta(ctx context.Context, newPlan *Plan, newResolve map[string]string) (*DeltaReport, error) {
	rep, build, err := d.decide(newPlan, newResolve)
	if err != nil {
		return nil, err
	}

	// Tear down leavers and changed agents first: a rebuilt agent must
	// release its endpoint before the new incarnation binds it.
	old := map[string]*host.Agent{}
	for _, name := range slices.Concat(rep.Stopped, rep.Restarted) {
		old[name] = d.Agents[name]
		old[name].Stop()
		delete(d.Agents, name)
	}

	agents, err := d.buildAgents(ctx, newPlan, newResolve, build)
	if err != nil {
		return rep, fmt.Errorf("deploy: delta: %w", err)
	}

	d.Plan = newPlan
	d.Resolve = newResolve
	// An in-place rebuild must not lose the retained series windows of a
	// live host's memory server — a survivor holding replica copies is
	// exactly what anti-entropy repair backfills from — so the old agent
	// hands its memory over. A stopped host hands nothing on: a machine
	// leaving the platform (or dead) loses its disk, which is the
	// failure replication exists to absorb.
	for name, ag := range agents {
		if prev := old[name]; prev != nil {
			ag.InheritMemory(prev)
		}
		d.Agents[name] = ag
	}
	// Start the built agents in plan-host order, not map order: the
	// scenario lab replays runs byte-for-byte, so no apply may launch
	// processes in a random order.
	for _, name := range newPlan.Hosts {
		if ag, built := agents[name]; built {
			ag.Start()
		}
	}
	return rep, nil
}

// decide works out the transition to newPlan without touching an
// agent: the report, and the role assignment of every agent to build.
// It compares newPlan's roles with what each running agent runs, its
// roles and its node: a plan host with no agent is started, an agent
// running anything else is rebuilt, an agent whose host left the plan
// is stopped. A clique whose planned ring (ordered members and period)
// no running agent runs moves to its next incarnation, and every built
// agent joins the rings that did not move. The first apply finds no
// incarnation table and starts every clique at epoch 0.
func (d *Deployment) decide(newPlan *Plan, newResolve map[string]string) (*DeltaReport, map[string]host.Roles, error) {
	rep := &DeltaReport{}
	renewed := map[string]bool{}
	first := d.epochs == nil
	if first {
		d.epochs = map[string]int64{}
	}
	// A new incarnation for every planned ring no agent runs: its
	// members must outrank zombie tokens of the ring it replaces.
	for _, spec := range newPlan.Cliques {
		members := make([]string, len(spec.Members))
		for i, m := range spec.Members {
			members[i] = newResolve[m]
		}
		if d.runsRing(spec.Name, members, spec.Period) {
			continue
		}
		renewed[spec.Name] = true
		rep.Renewed = append(rep.Renewed, spec.Name)
		if !first {
			d.epochs[spec.Name] += epochStride
		}
	}
	roles, err := planRoles(newPlan, newResolve, d.opts, d.epochs)
	if err != nil {
		return nil, nil, fmt.Errorf("deploy: delta: %w", err)
	}

	// A built agent joins the rings that kept running: its members must
	// not bootstrap a token beside the one still circulating.
	build := map[string]host.Roles{}
	add := func(name string) {
		r := roles[name]
		for i, c := range r.Cliques {
			r.Cliques[i].Join = !renewed[c.Name]
		}
		build[name] = r
	}
	planned := make(map[string]bool, len(newPlan.Hosts))
	for _, name := range newPlan.Hosts {
		planned[name] = true
	}
	// Plan lists the host of every running agent (an apply commits its
	// plan only once every agent it built runs), in the order the old
	// ones are torn down.
	for _, name := range d.Plan.Hosts {
		a := d.Agents[name]
		switch {
		case a == nil:
			// Torn down by a failed apply: started below if planned.
		case !planned[name]:
			rep.Stopped = append(rep.Stopped, name)
		case a.Host() == newResolve[name] && sameRoles(a.Roles(), roles[name]):
			rep.Kept = append(rep.Kept, name)
		default:
			rep.Restarted = append(rep.Restarted, name)
			add(name)
		}
	}
	for _, name := range newPlan.Hosts {
		if d.Agents[name] == nil {
			rep.Started = append(rep.Started, name)
			add(name)
		}
	}
	return rep, build, nil
}

// runsRing reports whether some running agent runs the ring: the
// clique's name, its ordered member nodes and its period.
func (d *Deployment) runsRing(name string, members []string, period time.Duration) bool {
	same := func(c clique.Config) bool {
		return c.Name == name && c.TokenGap == period && slices.Equal(c.Members, members)
	}
	for _, a := range d.Agents {
		r := a.Roles()
		if slices.ContainsFunc(r.Cliques, same) ||
			slices.ContainsFunc(r.Pairwise, func(p host.PairwiseRole) bool { return same(p.Cfg) }) {
			return true
		}
	}
	return false
}

// sameRoles reports whether two role assignments run the same
// deployment-managed roles. StartDelay and Join are deliberately
// ignored: StartDelay only staggers the initial bootstrap and shifts
// with clique ordering, and Join is decided per apply, so neither may
// force a rebuild on its own. Rings match by name, in any order.
func sameRoles(a, b host.Roles) bool {
	if a.NameServer != b.NameServer || a.Memory != b.Memory || a.Forecaster != b.Forecaster ||
		a.Gateway != b.Gateway || a.NSHost != b.NSHost || a.MemoryHost != b.MemoryHost ||
		!slices.Equal(a.MemoryReplicas, b.MemoryReplicas) ||
		len(a.Cliques) != len(b.Cliques) || len(a.Pairwise) != len(b.Pairwise) {
		return false
	}
	for _, c := range a.Cliques {
		if !slices.ContainsFunc(b.Cliques, func(d clique.Config) bool { return sameRing(c, d) }) {
			return false
		}
	}
	for _, p := range a.Pairwise {
		if !slices.ContainsFunc(b.Pairwise, func(q host.PairwiseRole) bool {
			return sameRing(p.Cfg, q.Cfg) && p.Scheduler == q.Scheduler && p.RunScheduler == q.RunScheduler
		}) {
			return false
		}
	}
	return true
}

// sameRing reports whether two ring configurations are one incarnation
// of one ring: name, ordered members, period and epoch.
func sameRing(c, d clique.Config) bool {
	return c.Name == d.Name && c.TokenGap == d.TokenGap && c.Epoch == d.Epoch && slices.Equal(c.Members, d.Members)
}
