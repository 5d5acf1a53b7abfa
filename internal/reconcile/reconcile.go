// Package reconcile is the self-healing control plane over a deployed
// NWS hierarchy: the long-running counterpart of §4.3's "possible
// platform evolution". A Reconciler watches a live deployment on any
// platform.Platform, and every interval re-enters the pipeline — probe
// liveness, re-Map the live hosts with ENV, re-Plan — and hands the
// fresh plan to the incremental deploy path, which changes only the
// agents whose roles differ from what they run, so healthy cliques keep
// monitoring while dead sensors are cut out, partitioned machines drop
// off, and returning or joining machines are folded back in.
//
// Detection is two-layered: platform health (is the node up at all)
// plus an active reachability probe from each mapping run's anchor, so
// a partition — host alive but unreachable — is drift too. Structural
// repair is plan-driven: a fault that does not change the optimal plan
// (a degraded link, say) is deliberately not "repaired"; measuring the
// degradation is the monitoring system's job, not the control plane's.
package reconcile

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"nwsenv/internal/core"
	"nwsenv/internal/deploy"
	"nwsenv/internal/nws/proto"
)

// Config tunes a Reconciler.
type Config struct {
	// Runs are the mapping templates: the full candidate membership,
	// including hosts currently dead (so churned machines can rejoin).
	// Each round maps the live subset of each run.
	Runs []core.MapRun
	// Interval paces the reconcile rounds (default 5 minutes).
	Interval time.Duration
	// OnRound observes every completed round.
	OnRound func(Round)
}

// Round is the artifact of one reconcile pass.
type Round struct {
	// Index numbers the round from 0.
	Index int
	// Started is the runtime clock at the start of the pass.
	Started time.Duration
	// Live and Dead partition the candidate node IDs by the health
	// probe's verdict.
	Live, Dead []string
	// Diff renders Delta: the drift between what the agents ran and the
	// freshly computed plan (empty when no agent had to change).
	Diff string
	// Validation is the fresh plan's §2.3 validation.
	Validation *deploy.Validation
	// Delta reports the incremental apply (nil when it changed no
	// agent, or the pass failed before applying).
	Delta *deploy.DeltaReport
	// RepairedAt timestamps the end of the repair (zero when there was
	// none).
	RepairedAt time.Duration
	// Err carries a transient failure (mapping aborted mid-fault,
	// unplannable interim topology, ...); the loop retries next round.
	Err error
}

// Drifted reports whether the round had to change some agent.
func (r Round) Drifted() bool { return r.Delta != nil }

// Repaired reports whether the round applied a repair successfully.
func (r Round) Repaired() bool { return r.Delta != nil && r.Err == nil && r.RepairedAt > 0 }

// Tally counts the rounds that applied a repair and the rounds that
// failed transiently: the two numbers every watch report leads with.
func Tally(rounds []Round) (repairs, transient int) {
	for _, rd := range rounds {
		if rd.Repaired() {
			repairs++
		}
		if rd.Err != nil {
			transient++
		}
	}
	return repairs, transient
}

// Reconciler drives reconcile rounds over one deployment.
type Reconciler struct {
	pl  *core.Pipeline
	dep *deploy.Deployment
	cfg Config

	mu     sync.Mutex
	rounds []Round
}

// New builds a reconciler for a running deployment. The pipeline must
// be the one that produced the deployment (same platform and options),
// and cfg.Runs the mapping runs it was deployed from (or a superset:
// extra hosts are candidates for joining).
func New(pl *core.Pipeline, dep *deploy.Deployment, cfg Config) *Reconciler {
	if cfg.Interval <= 0 {
		cfg.Interval = 5 * time.Minute
	}
	return &Reconciler{pl: pl, dep: dep, cfg: cfg}
}

// Deployment returns the watched deployment (its Plan advances as
// repairs are applied).
func (r *Reconciler) Deployment() *deploy.Deployment { return r.dep }

// Rounds returns a snapshot of the round history.
func (r *Reconciler) Rounds() []Round {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Round(nil), r.rounds...)
}

// Run reconciles every Interval until ctx is canceled. On a simulated
// platform it must run inside a simulation process; sleeps are chunked
// so wall-clock platforms notice cancellation within a second.
func (r *Reconciler) Run(ctx context.Context) error {
	for {
		if err := r.sleep(ctx, r.cfg.Interval); err != nil {
			return err
		}
		round := r.Step(ctx)
		if r.cfg.OnRound != nil {
			r.cfg.OnRound(round)
		}
		if round.Err != nil && ctx.Err() != nil {
			return ctx.Err()
		}
	}
}

// sleep waits d on the platform runtime, checking ctx about once a
// second so SIGINT-driven cancellation does not hang a wall-clock loop.
func (r *Reconciler) sleep(ctx context.Context, d time.Duration) error {
	rt := r.pl.Platform().Transport().Runtime()
	const chunk = time.Second
	for d > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		step := d
		if step > chunk {
			step = chunk
		}
		rt.Sleep(step)
		d -= step
	}
	return ctx.Err()
}

// Step executes one reconcile pass: probe, re-map, re-plan, apply the
// delta. It records and returns the round. When the pipeline carries a
// telemetry registry, the pass is traced as a "round" span with
// children for each stage, and the round counters land on the registry.
func (r *Reconciler) Step(ctx context.Context) Round {
	rt := r.pl.Platform().Transport().Runtime()
	tele := r.pl.Telemetry()
	round := Round{Started: rt.Now()}
	sp := tele.StartSpan("reconcile", "round")
	defer func() {
		tele.Counter("reconcile", "rounds", nil).Inc()
		if round.Err != nil {
			tele.Counter("reconcile", "transient_errors", nil).Inc()
		}
		tele.Histogram("reconcile", "round_sec", nil).ObserveDuration(rt.Now() - round.Started)
		sp.End()
	}()

	ps := sp.Child("probe")
	live, dead, runs := r.liveRuns()
	ps.End()
	round.Live, round.Dead = live, dead
	tele.Gauge("reconcile", "dead_hosts", nil).Set(float64(len(dead)))
	if len(runs) == 0 {
		round.Err = fmt.Errorf("reconcile: no mapping run has a live anchor")
		return r.record(round)
	}

	ms := sp.Child("remap")
	m, err := r.pl.Map(ctx, runs...)
	ms.End()
	if err != nil {
		round.Err = fmt.Errorf("reconcile: remap: %w", err)
		return r.record(round)
	}
	rs := sp.Child("replan")
	pr, err := r.pl.Plan(m)
	rs.End()
	if err != nil {
		round.Err = fmt.Errorf("reconcile: replan: %w", err)
		return r.record(round)
	}
	round.Validation = pr.Validation

	// ApplyDelta advances r.dep.Plan/Resolve in place; the pre-repair
	// view is what the anti-entropy step below needs to know which
	// primaries died and where their replicas lived.
	oldPlan, oldResolve := r.dep.Plan, r.dep.Resolve
	as := sp.Child("apply_delta")
	delta, err := r.dep.ApplyDelta(ctx, pr.Plan, m.Resolve)
	as.End()
	if delta != nil && delta.Changed() {
		round.Delta, round.Diff = delta, delta.String()
		sp.Annotate("dead", fmt.Sprint(len(dead)))
		tele.Counter("reconcile", "drifts", nil).Inc()
		r.pl.Observe(core.PhaseReconcile, "drift detected (%d dead): %s", len(dead), round.Diff)
	}
	if err != nil {
		round.Err = fmt.Errorf("reconcile: %w", err)
		return r.record(round)
	}
	if round.Delta == nil {
		return r.record(round)
	}
	bs := sp.Child("backfill")
	adopted, backfilled := r.repairReplication(oldPlan, oldResolve, pr.Plan, m.Resolve)
	bs.End()
	if adopted > 0 {
		tele.Counter("reconcile", "replica_repairs", nil).Add(int64(adopted))
		r.pl.Observe(core.PhaseReconcile, "anti-entropy: adopted %d series, backfilled %d samples from survivors",
			adopted, backfilled)
	}
	round.RepairedAt = rt.Now()
	tele.Counter("reconcile", "repairs", nil).Inc()
	tele.Histogram("reconcile", "repair_sec", nil).ObserveDuration(round.RepairedAt - round.Started)
	r.pl.Observe(core.PhaseReconcile, "repaired in %v", round.RepairedAt-round.Started)
	return r.record(round)
}

// repairReplication re-establishes the replication factor after a
// structural repair: for every memory primary the old plan ran that the
// new plan no longer does (machine dead or demoted), the memory server
// now covering its hosts is told to adopt the dead primary's series,
// backfilling the retained windows from a surviving replica
// (anti-entropy) and re-fanning them out to its own fresh replica set.
// No sensor repopulation is involved: the survivor's copy alone
// restores the retained window. Returns series adopted and samples
// backfilled across all repairs.
func (r *Reconciler) repairReplication(oldPlan *deploy.Plan, oldResolve map[string]string, newPlan *deploy.Plan, newResolve map[string]string) (adopted int, backfilled int64) {
	if oldPlan.ReplicationFactor == 0 || len(oldPlan.Replicas) == 0 {
		return 0, 0
	}
	master := r.dep.Agents[newPlan.Master]
	if master == nil {
		return 0, 0
	}
	newHosts := map[string]bool{}
	for _, h := range newPlan.Hosts {
		newHosts[h] = true
	}
	newMems := map[string]bool{}
	for _, m := range newPlan.MemoryServers {
		newMems[m] = true
	}
	for _, dead := range oldPlan.MemoryServers {
		if newHosts[dead] && newMems[dead] {
			// Still a primary: an in-place rebuild kept its image, a
			// survivor never crashed.
			continue
		}
		deadNode := oldResolve[dead]
		if deadNode == "" {
			continue
		}
		// The adopter is the new-plan memory server now covering the most
		// hosts the dead primary used to serve (ties: lexicographic).
		votes := map[string]int{}
		for h, m := range oldPlan.MemoryOf {
			if m != dead {
				continue
			}
			if nm, ok := newPlan.MemoryOf[h]; ok {
				votes[nm]++
			}
		}
		adopter := ""
		for nm, n := range votes {
			if adopter == "" || n > votes[adopter] || (n == votes[adopter] && nm < adopter) {
				adopter = nm
			}
		}
		if adopter == "" {
			continue // nobody inherited its hosts
		}
		// The survivor holding the dead primary's windows: the adopter
		// itself when it was in the replica set (local gather, no extra
		// hop), else the first replica still alive.
		survivor := ""
		for _, rep := range oldPlan.Replicas[dead] {
			if rep == adopter {
				survivor = rep
				break
			}
			if survivor == "" && newHosts[rep] {
				survivor = rep
			}
		}
		if survivor == "" {
			continue // no surviving copy: the window is gone
		}
		adopterNode, survivorNode := newResolve[adopter], newResolve[survivor]
		if adopterNode == "" || survivorNode == "" {
			continue
		}
		reply, err := master.Station().Call(adopterNode, proto.Message{
			Type: proto.MsgReplRepair, Version: proto.V3,
			Reg: proto.Registration{Name: deadNode, Host: survivorNode},
		}, time.Minute)
		if err != nil {
			r.pl.Observe(core.PhaseReconcile, "anti-entropy: adopter %s: %v", adopter, err)
			continue
		}
		adopted += reply.Count
		backfilled += reply.Total
	}
	return adopted, backfilled
}

func (r *Reconciler) record(round Round) Round {
	r.mu.Lock()
	round.Index = len(r.rounds)
	r.rounds = append(r.rounds, round)
	r.mu.Unlock()
	return round
}

// liveRuns probes every candidate and derives this round's mapping
// runs: per run, the live subset anchored at a live master (the
// original master when it survived, the first live member otherwise —
// which also re-homes the name server and forecaster when the master
// machine itself died).
func (r *Reconciler) liveRuns() (live, dead []string, runs []core.MapRun) {
	plat := r.pl.Platform()
	sub := plat.Substrate()

	seenLive := map[string]bool{}
	seenDead := map[string]bool{}
	for _, tmpl := range r.cfg.Runs {
		// Anchor: the template's master if it is up, else the first
		// up member. Reachability is then probed from the anchor, so a
		// partitioned host counts as dead for this run.
		anchor := ""
		for _, id := range candidateOrder(tmpl) {
			if plat.Alive(id) {
				anchor = id
				break
			}
		}
		if anchor == "" {
			for _, id := range tmpl.Hosts {
				seenDead[id] = true
			}
			continue
		}
		run := tmpl
		run.Master = anchor
		run.Hosts = []string{anchor}
		seenLive[anchor] = true
		for _, id := range tmpl.Hosts {
			if id == anchor {
				continue
			}
			ok := plat.Alive(id)
			if ok {
				if _, err := sub.Latency(anchor, id, 4); err != nil {
					ok = false
				}
			}
			if ok {
				run.Hosts = append(run.Hosts, id)
				seenLive[id] = true
			} else {
				seenDead[id] = true
			}
		}
		if len(run.Hosts) >= 2 {
			runs = append(runs, run)
		}
	}
	for _, tmpl := range r.cfg.Runs {
		for _, id := range candidateOrder(tmpl) {
			switch {
			case seenLive[id] && !slices.Contains(live, id):
				live = append(live, id)
			case !seenLive[id] && seenDead[id] && !slices.Contains(dead, id):
				dead = append(dead, id)
			}
		}
	}
	return live, dead, runs
}

// candidateOrder lists a template's hosts with the master first.
func candidateOrder(run core.MapRun) []string {
	out := []string{run.Master}
	for _, id := range run.Hosts {
		if id != run.Master {
			out = append(out, id)
		}
	}
	return out
}
