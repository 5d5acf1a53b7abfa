package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"time"

	"nwsenv/internal/core"
	"nwsenv/internal/deploy"
	"nwsenv/internal/nws/proto"
	"nwsenv/internal/platform"
	"nwsenv/internal/scenlab"
	"nwsenv/internal/simnet"
	"nwsenv/internal/telemetry"
	"nwsenv/internal/vclock"
)

//go:embed workloads/sim_lifecycle.json
var lifecycleJSON []byte

// staged is a deployment brought up stage by stage on a fresh simulator,
// each stage timed on the host and on the virtual clock: the lifecycle's
// set-up, and the object the per-layer probes of the traced pass work on.
type staged struct {
	sim  *vclock.Sim
	net  *simnet.Network
	tp   *simnet.Topology
	pl   *core.Pipeline
	runs []core.MapRun

	mapping *core.Mapping
	plan    *core.PlanResult
	dep     *deploy.Deployment

	wall map[string]time.Duration // host time per stage
	virt map[string]time.Duration // virtual time per stage
}

// stage runs fn as a simulation process and records how long it took on
// both clocks. Virtual time advances in one-second steps, so the host
// time charged to a stage excludes at most a second of what follows it.
func (s *staged) stage(name string, fn func() error) error {
	var err error
	t0, v0 := time.Now(), s.sim.Now()
	if derr := drive(s.sim, name, func() { err = fn() }); derr != nil {
		return derr
	}
	s.wall[name], s.virt[name] = time.Since(t0), s.sim.Now()-v0
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

// stageDeploy builds the scenario's platform the way scenlab.Run does and
// takes it through Map, Plan and Apply.
func stageDeploy(spec *scenlab.Spec, seed int64) (*staged, error) {
	t0 := time.Now()
	tp, runs, err := spec.Topology.Build(seed)
	if err != nil {
		return nil, err
	}
	s := &staged{sim: vclock.New(), tp: tp, runs: runs, wall: map[string]time.Duration{}, virt: map[string]time.Duration{}}
	s.net = simnet.NewNetwork(s.sim, tp)
	tr := proto.NewSimTransport(s.net)
	reg := telemetry.New(s.sim.Now)
	simnet.RegisterTelemetry(reg, s.net)
	tr.SetTelemetry(reg)
	opts := []core.Option{core.WithAutoAliases(), core.WithTokenGap(time.Second), core.WithTelemetry(reg)}
	if spec.Replication > 0 {
		opts = append(opts, core.WithReplication(spec.Replication))
	}
	s.pl = core.NewPipeline(platform.NewSimPlatform(s.net, tr), opts...)
	s.wall["build"] = time.Since(t0)

	ctx := context.Background()
	if err := s.stage("map", func() (err error) { s.mapping, err = s.pl.Map(ctx, runs...); return }); err != nil {
		return nil, err
	}
	if err := s.stage("plan", func() (err error) { s.plan, err = s.pl.Plan(s.mapping); return }); err != nil {
		return nil, err
	}
	if err := s.stage("apply", func() (err error) { s.dep, err = s.pl.Apply(ctx, s.plan); return }); err != nil {
		return nil, err
	}
	return s, nil
}

// stop tears the staged deployment down.
func (s *staged) stop() {
	s.dep.Stop()
	s.sim.RunUntil(s.sim.Now() + time.Second)
}

func (s *staged) setupSeconds() float64 {
	return (s.wall["build"] + s.wall["map"] + s.wall["plan"] + s.wall["apply"]).Seconds()
}

// runLifecycle runs the committed scenario end to end — map, plan, apply,
// monitor, faults, reconcile repairs — at least twice, and compares the
// runs' virtual-time results for equality.
//
// The scenario's inputs are the committed spec, seed included: another
// seed crashes other hosts, which is another amount of work (±12% of host
// time from seed to seed, against ±1% from run to run), so -seed does not
// reach this workload.
func runLifecycle(spec *scenlab.Spec, p params) (*result, error) {
	seed, seconds, traced := spec.Seed, p.seconds, p.traced
	r := newResult("sim_lifecycle", traced)

	var setups []float64
	var probe *staged
	for i := 0; i < p.setups; i++ {
		if probe != nil {
			probe.stop()
		}
		var err error
		if probe, err = stageDeploy(spec, seed); err != nil {
			return nil, fmt.Errorf("sim_lifecycle: set-up: %w", err)
		}
		setups = append(setups, probe.setupSeconds())
	}
	defer probe.stop()
	r.set("setup_s", median(setups))

	var first *scenlab.Result
	var firstPrint string
	identical := true
	virtualSec := 0.0
	before := readRuntime()
	walls, err := repeatFor(seconds, func() (float64, error) {
		t0 := time.Now()
		res, err := scenlab.Run(spec, seed)
		if err != nil {
			return 0, err
		}
		wall := time.Since(t0).Seconds()
		virtualSec += float64(res.VirtualSec)
		print, err := virtualPrint(res)
		if err != nil {
			return 0, err
		}
		if first == nil {
			first, firstPrint = res, print
		}
		identical = identical && print == firstPrint
		return wall, nil
	})
	if err != nil {
		return nil, fmt.Errorf("sim_lifecycle: %w", err)
	}

	// The operations of a lifecycle are its SLO gates plus the two
	// whole-run verdicts; one that does not hold is a failed operation.
	sum := scenlab.Summarize(first)
	r.check("converged_and_complete", first.Converged && first.Complete, "converged=%v complete=%v", first.Converged, first.Complete)
	for _, g := range sum.Gates {
		r.check("slo_"+g.Name, g.Pass, "measured %s, want %s", g.Measured, g.Threshold)
	}
	r.check("virtual_results_repeat", identical, "virtual-time results differ between runs of one seed")
	r.Attempted = len(r.Checks) * len(walls)
	for _, c := range r.Checks {
		if !c.OK {
			r.Failed += len(walls)
		}
	}
	readRuntime().since(before).report(r, len(walls))

	reportRepeats(r, walls, virtualSec)
	r.set("env.map_v_s", mapSpanSeconds(first))
	r.set("reconcile.repair_v_p95_s", first.Recovery.P95TimeToRepair.Seconds())
	r.set("reconcile.rounds", float64(first.Rounds))
	r.set("reconcile.repairs", float64(first.Repairs))
	if traced {
		if err := harvestLifecycle(r, spec, first, probe); err != nil {
			return nil, fmt.Errorf("sim_lifecycle: %w", err)
		}
	}
	return r, nil
}

// virtualPrint renders everything a run derived from virtual time and
// counters; two runs of one seed must print the same.
func virtualPrint(res *scenlab.Result) (string, error) {
	b, err := json.Marshal(struct {
		Summary scenlab.Summary
		Samples []scenlab.Sample
	}{scenlab.Summarize(res), res.Samples})
	return string(b), err
}

// mapSpanSeconds is the ENV mapping's virtual duration: the first map
// span of the pipeline in the run's registry.
func mapSpanSeconds(res *scenlab.Result) float64 {
	for _, sp := range res.Telemetry.Spans() {
		if sp.Subsystem == "pipeline" && sp.Name == "map" {
			return (sp.End - sp.Start).Seconds()
		}
	}
	return 0
}
