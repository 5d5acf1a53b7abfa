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
// delta. ApplyDelta is the apply-only-the-delta half: given a revised
// plan, it compares every host's role assignment under the old and new
// plans and rebuilds exactly the agents whose assignment changed,
// leaving healthy cliques monitoring undisturbed.

// epochStride separates clique incarnations in the token epoch space.
// Elections inside one incarnation bump the epoch by 1, so a stride of
// 2^20 leaves any realistic election count below the next incarnation.
const epochStride = 1 << 20

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
// mistaking the hole for convergence. ctx aborts between agent
// constructions like ApplyContext.
func (d *Deployment) ApplyDelta(ctx context.Context, newPlan *Plan, newResolve map[string]string) (*DeltaReport, error) {
	if d.tr == nil {
		return nil, fmt.Errorf("deploy: deployment was not built by Apply, cannot transition")
	}
	diff := DiffPlans(d.Plan, newPlan)
	rep := &DeltaReport{Diff: diff}
	if diff.Empty() {
		rep.Kept = append([]string(nil), d.Plan.Hosts...)
		return rep, nil
	}

	oldRoles, err := planRoles(d.Plan, d.Resolve, d.opts, d.epochs)
	if err != nil {
		return nil, fmt.Errorf("deploy: delta: old plan roles: %w", err)
	}
	// New incarnations for every clique whose ring changes: their
	// rebuilt members must outrank zombie tokens.
	for name := range diff.CliquesChanged {
		d.epochs[name] += epochStride
	}
	for _, name := range diff.CliquesAdded {
		d.epochs[name] += epochStride
	}
	newRoles, err := planRoles(newPlan, newResolve, d.opts, d.epochs)
	if err != nil {
		return nil, fmt.Errorf("deploy: delta: new plan roles: %w", err)
	}

	newHosts := toSet(newPlan.Hosts)
	// Non-nil: an empty rebuild set (e.g. a pure teardown of a shared
	// network's non-representative host) must build nothing, while nil
	// means "everything" to buildAgents.
	rebuild := []string{}
	for _, name := range d.Plan.Hosts {
		if _, stays := newHosts[name]; !stays {
			rep.Stopped = append(rep.Stopped, name)
			continue
		}
		if roleSignature(oldRoles[name]) != roleSignature(newRoles[name]) ||
			d.Resolve[name] != newResolve[name] {
			rep.Restarted = append(rep.Restarted, name)
			rebuild = append(rebuild, name)
		} else {
			rep.Kept = append(rep.Kept, name)
		}
	}
	oldHosts := toSet(d.Plan.Hosts)
	for _, name := range newPlan.Hosts {
		if _, existed := oldHosts[name]; !existed {
			rep.Started = append(rep.Started, name)
			rebuild = append(rebuild, name)
		}
	}
	sort.Strings(rebuild)

	// An in-place rebuild must not lose the retained series windows of a
	// live host's memory server — a survivor holding replica copies is
	// exactly what anti-entropy repair backfills from. Persist its image
	// before teardown and seed the rebuilt agent with it. Stopped hosts
	// are not persisted: a machine leaving the platform (or dead) loses
	// its disk, which is the failure replication exists to absorb.
	images := map[string][]byte{}
	for _, name := range rep.Restarted {
		if a := d.Agents[name]; a != nil {
			if img, ok := a.PersistMemory(); ok {
				images[name] = img
			}
		}
	}

	// Tear down leavers and changed agents first: a rebuilt agent must
	// release its endpoint before the new incarnation binds it. The
	// teardown is committed into Plan immediately: if the build below
	// fails, Plan must describe only the agents still running, so the
	// next plan diff sees the torn-down hosts as missing rather than
	// healthy.
	for _, name := range append(append([]string{}, rep.Stopped...), rep.Restarted...) {
		if a := d.Agents[name]; a != nil {
			a.Stop()
		}
		delete(d.Agents, name)
	}
	d.Plan = pruneHosts(d.Plan, rep.Stopped, rep.Restarted)

	agents, err := d.buildAgents(ctx, newPlan, newResolve, rebuild, newRoles)
	if err != nil {
		for _, a := range agents {
			a.Stop()
		}
		return rep, fmt.Errorf("deploy: delta: %w", err)
	}
	if err := ctx.Err(); err != nil {
		for _, a := range agents {
			a.Stop()
		}
		return rep, fmt.Errorf("deploy: delta aborted: %w", err)
	}

	d.Plan = newPlan
	d.Resolve = newResolve
	d.reverse = map[string]string{}
	for name, node := range newResolve {
		d.reverse[node] = name
	}
	// Start the rebuilt agents in plan-host order, not map order: the
	// scenario lab replays runs byte-for-byte, so repair must not be
	// the one step that launches processes in a random order.
	for name, ag := range agents {
		if img, ok := images[name]; ok {
			ag.SetMemoryImage(img)
		}
		d.Agents[name] = ag
	}
	for _, name := range newPlan.Hosts {
		if ag, fresh := agents[name]; fresh {
			ag.Start()
		}
	}
	return rep, nil
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
	fmt.Fprintf(&b, "ns=%t mem=%t fc=%t gw=%t nshost=%s memhost=%s hsp=%s repl=%s|",
		r.NameServer, r.Memory, r.Forecaster, r.Gateway, r.NSHost, r.MemoryHost, r.HostSensorPeriod,
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
