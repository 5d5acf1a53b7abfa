package deploy

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"nwsenv/internal/nws/host"
)

// Incremental redeployment: §4.3 asks the deployment to follow
// "possible platform evolution" — re-map, re-plan, and apply only the
// delta. ApplyDelta is the one apply path: given a revised plan, it
// compares every host's role assignment under the old and new plans and
// rebuilds exactly the agents whose assignment changed, leaving healthy
// cliques monitoring undisturbed. Apply's first deploy is the delta
// from an empty deployment, which starts every agent.

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
	// Diff is the plan-level delta that drove the transition.
	Diff *Diff
	// Stopped lists hosts whose agents were torn down and not replaced
	// (machines leaving the platform).
	Stopped []string
	// Restarted lists hosts whose agents were rebuilt in place (role
	// assignment changed: clique membership, server placement, memory
	// binding).
	Restarted []string
	// Started lists hosts that gained a new agent (machines joining).
	Started []string
	// Kept lists hosts whose agents kept running untouched.
	Kept []string
}

// Redeployed counts the components (agents) that were started or
// rebuilt — the §4.3 measure of how incremental the transition was.
func (r *DeltaReport) Redeployed() int { return len(r.Restarted) + len(r.Started) }

// String renders the report for operators.
func (r *DeltaReport) String() string {
	return fmt.Sprintf("delta: %d stopped, %d restarted, %d started, %d kept",
		len(r.Stopped), len(r.Restarted), len(r.Started), len(r.Kept))
}

// ApplyDelta transitions the running deployment to newPlan, stopping,
// rebuilding or starting only the agents whose role assignment changed;
// every other agent (and therefore every unchanged measurement clique)
// keeps running. Cliques whose membership changed are rebuilt under a
// higher token epoch so tokens from the previous incarnation die out.
//
// On error the deployment is left partially transitioned, but its Plan
// is pruned to the agents actually still running, so a reconcile loop
// diffing against Plan re-detects the gap on its next round instead of
// mistaking the hole for convergence. ctx is checked between agent
// constructions and before any agent starts: the agents an aborted
// apply built are torn down.
func (d *Deployment) ApplyDelta(ctx context.Context, newPlan *Plan, newResolve map[string]string) (*DeltaReport, error) {
	rep, build, err := d.decide(newPlan, newResolve)
	if err != nil || rep.Diff.Empty() {
		return rep, err
	}

	// Tear down leavers and changed agents first: a rebuilt agent must
	// release its endpoint before the new incarnation binds it. The
	// teardown is committed into Plan immediately: if the build below
	// fails, Plan must describe only the agents still running, so the
	// next plan diff sees the torn-down hosts as missing rather than
	// healthy.
	old := map[string]*host.Agent{}
	for _, name := range append(append([]string{}, rep.Stopped...), rep.Restarted...) {
		if a := d.Agents[name]; a != nil {
			a.Stop()
			old[name] = a
		}
		delete(d.Agents, name)
	}
	d.Plan = pruneHosts(d.Plan, rep.Stopped, rep.Restarted)

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
// agent: the report, and the role assignment of every host whose agent
// must be built (changed and joining hosts). It hands every clique whose
// ring changes a new incarnation.
func (d *Deployment) decide(newPlan *Plan, newResolve map[string]string) (*DeltaReport, map[string]host.Roles, error) {
	diff := DiffPlans(d.Plan, newPlan)
	rep := &DeltaReport{Diff: diff}
	if diff.Empty() {
		rep.Kept = append([]string(nil), d.Plan.Hosts...)
		return rep, nil, nil
	}

	// An empty plan (the first apply's) has no roles, and no name
	// server to resolve.
	var oldRoles map[string]host.Roles
	if len(d.Plan.Hosts) > 0 {
		var err error
		if oldRoles, err = planRoles(d.Plan, d.Resolve, d.opts, d.epochs); err != nil {
			return nil, nil, fmt.Errorf("deploy: delta: old plan roles: %w", err)
		}
	}
	// New incarnations for every clique whose ring changes: their
	// rebuilt members must outrank zombie tokens. The first apply finds
	// no incarnation table and starts every clique at epoch 0.
	fresh := map[string]bool{}
	for name := range diff.CliquesChanged {
		fresh[name] = true
	}
	for _, name := range diff.CliquesAdded {
		fresh[name] = true
	}
	if d.epochs == nil {
		d.epochs = map[string]int64{}
	} else {
		for name := range fresh {
			d.epochs[name] += epochStride
		}
	}
	newRoles, err := planRoles(newPlan, newResolve, d.opts, d.epochs)
	if err != nil {
		return nil, nil, fmt.Errorf("deploy: delta: new plan roles: %w", err)
	}

	newHosts := toSet(newPlan.Hosts)
	build := map[string]host.Roles{}
	for _, name := range d.Plan.Hosts {
		if _, stays := newHosts[name]; !stays {
			rep.Stopped = append(rep.Stopped, name)
			continue
		}
		if roleSignature(oldRoles[name]) == roleSignature(newRoles[name]) &&
			d.Resolve[name] == newResolve[name] {
			rep.Kept = append(rep.Kept, name)
			continue
		}
		// A rebuilt agent rejoins the rings that kept running: its
		// members must not bootstrap a token beside the one still
		// circulating.
		for i, c := range newRoles[name].Cliques {
			newRoles[name].Cliques[i].Join = !fresh[c.Name]
		}
		rep.Restarted = append(rep.Restarted, name)
		build[name] = newRoles[name]
	}
	oldHosts := toSet(d.Plan.Hosts)
	for _, name := range newPlan.Hosts {
		if _, existed := oldHosts[name]; !existed {
			rep.Started = append(rep.Started, name)
			build[name] = newRoles[name]
		}
	}
	return rep, build, nil
}

// pruneHosts returns a copy of plan without the given host groups in
// Hosts — the "what is actually running" view committed mid-transition.
func pruneHosts(plan *Plan, groups ...[]string) *Plan {
	gone := map[string]struct{}{}
	for _, g := range groups {
		for _, name := range g {
			gone[name] = struct{}{}
		}
	}
	pruned := *plan
	pruned.Hosts = nil
	for _, name := range plan.Hosts {
		if _, dropped := gone[name]; !dropped {
			pruned.Hosts = append(pruned.Hosts, name)
		}
	}
	return &pruned
}

// roleSignature folds the deployment-managed fields of a role
// assignment into a comparable key. StartDelay is deliberately
// excluded: it only staggers the initial bootstrap and shifts with
// clique ordering, so it must not force rebuilds on its own.
func roleSignature(r host.Roles) string {
	var b strings.Builder
	fmt.Fprintf(&b, "ns=%t mem=%t fc=%t gw=%t nshost=%s memhost=%s repl=%s|",
		r.NameServer, r.Memory, r.Forecaster, r.Gateway, r.NSHost, r.MemoryHost,
		strings.Join(r.MemoryReplicas, ","))
	cl := append([]string(nil), cliqueKeys(r)...)
	sort.Strings(cl)
	for _, k := range cl {
		b.WriteString(k)
	}
	return b.String()
}

func cliqueKeys(r host.Roles) []string {
	var out []string
	for _, c := range r.Cliques {
		out = append(out, fmt.Sprintf("c:%s e%d g%s [%s]|",
			c.Name, c.Epoch, c.TokenGap, strings.Join(c.Members, ",")))
	}
	for _, p := range r.Pairwise {
		out = append(out, fmt.Sprintf("p:%s e%d g%s [%s] sched=%s run=%t|",
			p.Cfg.Name, p.Cfg.Epoch, p.Cfg.TokenGap, strings.Join(p.Cfg.Members, ","),
			p.Scheduler, p.RunScheduler))
	}
	return out
}
