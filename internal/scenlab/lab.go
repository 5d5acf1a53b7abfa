package scenlab

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"nwsenv/internal/cli"
	"nwsenv/internal/core"
	"nwsenv/internal/deploy"
	"nwsenv/internal/metrics"
	"nwsenv/internal/nws/clique"
	"nwsenv/internal/nws/proto"
	"nwsenv/internal/nws/sensor"
	"nwsenv/internal/platform"
	"nwsenv/internal/query"
	"nwsenv/internal/reconcile"
	"nwsenv/internal/simnet"
	"nwsenv/internal/telemetry"
	"nwsenv/internal/vclock"
)

// Sample is one probe tick of a run, a line of samples.jsonl: did
// queries flow through the resolution plane at this virtual time, and
// what had the control plane done by then. All fields are virtual-time
// or counter valued, so two runs of the same scenario + seed emit
// byte-identical sample streams.
type Sample struct {
	// TSec is the virtual time of the tick, seconds since the
	// deployment finished applying.
	TSec int64 `json:"t_sec"`
	// Phase is warmup, inject or recovery.
	Phase string `json:"phase"`
	// Answered of Probed forecast queries returned a prediction.
	Answered int `json:"answered"`
	Probed   int `json:"probed"`
	// Rounds, Repairs and Transient count reconcile activity so far.
	Rounds    int `json:"rounds"`
	Repairs   int `json:"repairs"`
	Transient int `json:"transient"`
	// Dead is the dead-host count the latest round observed.
	Dead int `json:"dead"`
}

// Result is the full artifact of one scenario run.
type Result struct {
	Spec *Spec
	// Seed is the effective seed of the run (file seed or override).
	Seed    int64
	Samples []Sample
	// Recovery scores the repairs of the fired fault events.
	Recovery Recovery
	// Injected counts fault events actually applied.
	Injected int
	// Rounds/Repairs/Transient are the final reconcile counters.
	Rounds, Repairs, Transient int
	// MaxForecastGapTicks is the longest post-warmup run of samples
	// with no forecast answered.
	MaxForecastGapTicks int
	// MaxAnswerDeficitTicks is the longest post-warmup run of samples
	// with at least one probed forecast unanswered.
	MaxAnswerDeficitTicks int
	// FinalAnswered/FinalProbed are the steady-state sample's counts.
	FinalAnswered, FinalProbed int
	// Converged: the last round saw no drift and no error. Complete:
	// the final plan validates connectivity-complete.
	Converged, Complete bool
	// VirtualSec is the observed span from apply to the final sample.
	VirtualSec int64
	// Telemetry is the run's registry: every subsystem counter and
	// trace span, clocked by the virtual clock — the source of the
	// metrics.jsonl and trace.jsonl artifacts and the SLO metric gates.
	Telemetry *telemetry.Registry
	// Metrics is the final registry snapshot, flattened to metric name
	// → value (captured at the judged end of the run, before teardown).
	Metrics map[string]float64
	// Invariants holds the §2.3 predicates evaluated after every
	// reconcile round; nil unless the SLO asks for them.
	Invariants *metrics.Invariants
}

// Run executes one scenario: build the declared topology, deploy
// through the staged pipeline, schedule the compiled fault plan,
// reconcile throughout, and sample the query plane each tick. The
// entire run lives on the virtual clock; wall time is milliseconds.
func Run(spec *Spec, seed int64) (*Result, error) {
	tp, runs, err := spec.Topology.Build(seed)
	if err != nil {
		return nil, err
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("scenlab: %s: topology has no mappable hosts", spec.Name)
	}
	sim := vclock.New()
	net := simnet.NewNetwork(sim, tp)
	if j := spec.Jitter; j != nil {
		net.SetJitter(j.Max(), j.Seed)
	}
	tr := proto.NewSimTransport(net)
	plat := platform.NewSimPlatform(net, tr)
	// The run's telemetry plane reads the virtual clock, so every
	// reading and span boundary is a function of scenario + seed.
	reg := telemetry.New(sim.Now)
	simnet.RegisterTelemetry(reg, net)
	// Wire-level codec counters (proto/encode_total, proto/bytes_out,
	// proto/bytes_in) land in the same registry, so scenario SLOs can
	// gate on wire traffic.
	tr.SetTelemetry(reg)
	opts := []core.Option{core.WithAutoAliases(), core.WithTokenGap(time.Second),
		core.WithTelemetry(reg), core.WithReplication(spec.Replication), core.WithGateways(spec.Gateways)}
	// The invariants read every token hold the run's rings take.
	var holds *clique.HoldLog
	if spec.SLO.Invariants != "" {
		holds = &clique.HoldLog{}
		opts = append(opts, core.WithHoldLog(holds))
	}
	pl := core.NewPipeline(plat, opts...)
	out, err := cli.DeploySim(sim, pl, runs)
	if err != nil {
		return nil, fmt.Errorf("scenlab: %s: deploy: %w", spec.Name, err)
	}

	base := sim.Now()
	victims, links := PlanVictimsFor(spec.Fault, out.Plan, out.Resolve, tp)
	events, err := spec.Fault.Compile(seed, base+spec.Phases.Warmup(), victims, links)
	if err != nil {
		return nil, fmt.Errorf("scenlab: %s: %w", spec.Name, err)
	}
	var fired []time.Duration // when each event fired, in order
	for _, e := range events {
		sim.At(e.At, func() {
			e.apply(net)
			fired = append(fired, sim.Now())
		})
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	res := &Result{Spec: spec, Seed: seed, Telemetry: reg}
	var rec *reconcile.Reconciler
	cfg := reconcile.Config{Runs: runs, Interval: reconcileEvery}
	if holds != nil {
		res.Invariants = metrics.NewInvariants()
		cfg.OnRound = func(reconcile.Round) {
			dep := rec.Deployment()
			res.Invariants.Check(dep.Plan, tp, dep.Resolve, holds.Take())
		}
	}
	rec = reconcile.New(pl, out.Deployment, cfg)
	recDone := false
	sim.Go("reconcile", func() { rec.Run(ctx); recDone = true })

	advance := func(until time.Duration) error {
		if until > sim.Now() {
			return sim.RunUntil(until)
		}
		return nil
	}

	// probe launches one ForecastMany over up to four measured pairs of
	// the *current* plan through a fresh query client on the current
	// master's station, then drives time until it lands.
	probeSeq := 0
	probe := func() (answered, probed int, err error) {
		dep := rec.Deployment()
		master := dep.Agents[dep.Plan.Master]
		if master == nil {
			return 0, 0, nil
		}
		pairs := probePairs(dep.Plan)
		var reqs []proto.SeriesRequest
		for _, p := range pairs {
			reqs = append(reqs, proto.SeriesRequest{
				Series: sensor.LatencySeries(dep.Resolve[p[0]], dep.Resolve[p[1]]),
			})
		}
		probeSeq++
		probeDone := false
		sim.Go(fmt.Sprintf("scenlab-probe-%d", probeSeq), func() {
			defer func() { probeDone = true }()
			qc := dep.QueryClient(master.Station())
			for _, r := range qc.ForecastMany(reqs) {
				// A degraded prediction (replica-served history after a
				// primary death) is an answer: staleness advisory, not
				// failure. Counting it keeps the replication gate honest —
				// failover answers must not read as an answer deficit.
				if (r.Err == nil || errors.Is(r.Err, query.ErrDegraded)) && r.Prediction.N > 0 {
					answered++
				}
			}
		})
		landed, err := sim.Drive(10*time.Second, 4*time.Minute, func() bool { return probeDone })
		if err != nil {
			return 0, 0, err
		}
		if !landed {
			return 0, 0, fmt.Errorf("scenlab: %s: probe %d wedged", spec.Name, probeSeq)
		}
		return answered, len(reqs), nil
	}

	sample := func(tick time.Duration) error {
		answered, probed, err := probe()
		if err != nil {
			return err
		}
		rounds := rec.Rounds()
		s := Sample{
			TSec:     int64((tick - base) / time.Second),
			Phase:    spec.phaseAt(tick - base),
			Answered: answered,
			Probed:   probed,
			Rounds:   len(rounds),
		}
		s.Repairs, s.Transient = reconcile.Tally(rounds)
		if len(rounds) > 0 {
			s.Dead = len(rounds[len(rounds)-1].Dead)
		}
		res.Samples = append(res.Samples, s)
		return nil
	}

	end := base + spec.Phases.Warmup() + spec.Phases.Inject() + spec.Phases.Recovery()
	for tick := base + sampleEvery; tick < end; tick += sampleEvery {
		if err := advance(tick); err != nil {
			return nil, err
		}
		if err := sample(tick); err != nil {
			return nil, err
		}
	}
	// The steady-state sample: queries_must_flow is judged on this one.
	if err := advance(end); err != nil {
		return nil, err
	}
	if err := sample(end); err != nil {
		return nil, err
	}

	// The judged round history ends with the steady-state sample: the
	// wind-down below interrupts any in-flight round, and that
	// ctx-canceled partial round must not read as non-convergence.
	rounds := rec.Rounds()

	// Wind down: stop the loop, let it notice the cancellation on the
	// virtual clock, then fold the run into the result.
	cancel()
	if err := advance(sim.Now() + reconcileEvery + 2*time.Second); err != nil {
		return nil, err
	}
	if !recDone {
		return nil, fmt.Errorf("scenlab: %s: reconcile loop did not exit", spec.Name)
	}

	res.Injected = len(fired)
	res.Recovery = scoreRecovery(rec.Rounds(), fired)
	res.Rounds = len(rounds)
	res.Repairs, res.Transient = reconcile.Tally(rounds)
	res.Converged = len(rounds) > 0 && rounds[len(rounds)-1].Err == nil && !rounds[len(rounds)-1].Drifted()
	dep := rec.Deployment()
	res.Complete = deploy.ValidateConnectivity(dep.Plan).Complete
	if n := len(res.Samples); n > 0 {
		last := res.Samples[n-1]
		res.FinalAnswered, res.FinalProbed = last.Answered, last.Probed
		res.VirtualSec = last.TSec
	}
	res.MaxForecastGapTicks = maxForecastGap(res.Samples)
	res.MaxAnswerDeficitTicks = maxAnswerDeficit(res.Samples)
	// Teardown: the deployment's roles end with its Stop; whatever else
	// the run spawned ends as the clock runs on, so a finished run strands
	// no process (and no goroutine) in the caller.
	if err := dep.Stop(); err != nil {
		return nil, fmt.Errorf("scenlab: %s: %w", spec.Name, err)
	}
	drained, err := sim.Drive(time.Second, drainBound, func() bool { return sim.Processes() == 0 })
	if err != nil {
		return nil, err
	}
	if !drained {
		return nil, fmt.Errorf("scenlab: %s: %d process(es) still running %v after teardown", spec.Name, sim.Processes(), drainBound)
	}
	// Final flatten happens after teardown so the gated metrics match the
	// metrics.jsonl artifact rendered from the same registry.
	res.Metrics = reg.Snapshot().Flatten()
	return res, nil
}

// Recovery scores how the reconcile loop answered a run's fault
// events: §4.3's "possible platform evolution", each event answered by
// the first repairing round that starts between it and the next event.
type Recovery struct {
	// Unrepaired counts events no round answered (still converging, or,
	// like a pure link degradation, needing no structural change).
	Unrepaired int
	// P95TimeToRepair is the p95 of event-to-repaired latencies (zero
	// when nothing was repaired).
	P95TimeToRepair time.Duration
	// MaxRedeployFraction is the worst single repair's share of agents
	// started or rebuilt; < 1 means no repair tore the whole deployment
	// down.
	MaxRedeployFraction float64
}

// scoreRecovery correlates the fire times of a run's fault events with
// its reconcile rounds.
func scoreRecovery(rounds []reconcile.Round, fired []time.Duration) Recovery {
	var rec Recovery
	var ttrs []time.Duration
	for i, at := range fired {
		end := time.Duration(math.MaxInt64)
		if i+1 < len(fired) {
			end = fired[i+1]
		}
		j := slices.IndexFunc(rounds, func(rd reconcile.Round) bool {
			return rd.Started >= at && rd.Started < end && rd.Repaired()
		})
		if j < 0 {
			rec.Unrepaired++
			continue
		}
		rd := rounds[j]
		ttrs = append(ttrs, rd.RepairedAt-at)
		if total := rd.Delta.Redeployed() + len(rd.Delta.Kept); total > 0 {
			rec.MaxRedeployFraction = max(rec.MaxRedeployFraction, float64(rd.Delta.Redeployed())/float64(total))
		}
	}
	slices.Sort(ttrs)
	rec.P95TimeToRepair = telemetry.Percentile(ttrs, 0.95)
	return rec
}

// drainBound is how much virtual time a finished run's teardown may take
// to end every process it spawned.
const drainBound = 10 * time.Minute

// phaseAt labels an offset from the apply point with its phase.
func (s *Spec) phaseAt(off time.Duration) string {
	switch {
	case off <= s.Phases.Warmup():
		return "warmup"
	case off <= s.Phases.Warmup()+s.Phases.Inject():
		return "inject"
	default:
		return "recovery"
	}
}

// probePairs picks up to four measured pairs spread across the plan's
// memory servers (round-robin over servers in name order, pairs in
// MeasuredPairs order within each server). Probing every memory
// server keeps a single dead primary visible as an answer deficit
// instead of hiding behind pairs homed elsewhere.
func probePairs(plan *deploy.Plan) [][2]string {
	pairs := plan.MeasuredPairs()
	if len(pairs) <= 4 {
		return pairs
	}
	byMem := map[string][][2]string{}
	var mems []string
	for _, p := range pairs {
		m := plan.MemoryOf[p[0]]
		if len(byMem[m]) == 0 {
			mems = append(mems, m)
		}
		byMem[m] = append(byMem[m], p)
	}
	sort.Strings(mems)
	var out [][2]string
	for i := 0; ; i++ {
		took := false
		for _, m := range mems {
			if i < len(byMem[m]) {
				out = append(out, byMem[m][i])
				took = true
				if len(out) == 4 {
					return out
				}
			}
		}
		if !took {
			return out
		}
	}
}

// maxForecastGap is the longest run of consecutive post-warmup samples
// during which no probed forecast answered: the "no forecast gap > Y
// ticks" SLO input. Warmup ticks are excluded — an unprimed forecaster
// is not an outage.
func maxForecastGap(samples []Sample) int {
	gap, worst := 0, 0
	for _, s := range samples {
		if s.Phase == "warmup" {
			continue
		}
		if s.Answered == 0 {
			gap++
			if gap > worst {
				worst = gap
			}
		} else {
			gap = 0
		}
	}
	return worst
}

// maxAnswerDeficit is the longest run of consecutive post-warmup
// samples during which at least one probed forecast went unanswered:
// the replication-sensitive sibling of maxForecastGap. A dead memory
// primary rarely silences every probe — the other servers keep
// answering — but it leaves its own series dark until the control
// plane repairs the placement and sensors repopulate the history;
// with replicas, failover answers from a survivor and the deficit
// stays near zero.
func maxAnswerDeficit(samples []Sample) int {
	deficit, worst := 0, 0
	for _, s := range samples {
		if s.Phase == "warmup" {
			continue
		}
		if s.Probed > 0 && s.Answered < s.Probed {
			deficit++
			if deficit > worst {
				worst = deficit
			}
		} else {
			deficit = 0
		}
	}
	return worst
}
