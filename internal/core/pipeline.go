package core

import (
	"context"
	"fmt"

	"nwsenv/internal/deploy"
	"nwsenv/internal/env"
	"nwsenv/internal/gridml"
	"nwsenv/internal/platform"
	"nwsenv/internal/telemetry"
)

// Pipeline is the paper's deployment pipeline over an abstract platform,
// decomposed into its three phases. Each stage is independently callable
// and returns its intermediate artifact, so callers can stop after any
// stage (inspect a mapping, publish a plan) or resume from a saved one;
// Deploy chains all three.
type Pipeline struct {
	plat platform.Platform
	cfg  config
}

// NewPipeline builds a pipeline over plat.
func NewPipeline(plat platform.Platform, opts ...Option) *Pipeline {
	p := &Pipeline{plat: plat, cfg: config{gridLabel: "Grid1"}}
	for _, o := range opts {
		o(&p.cfg)
	}
	return p
}

// Platform returns the platform the pipeline runs on.
func (p *Pipeline) Platform() platform.Platform { return p.plat }

// Telemetry returns the registry wired with WithTelemetry (nil if
// none). Callers re-entering the pipeline — the reconcile control
// plane — instrument themselves against the same registry.
func (p *Pipeline) Telemetry() *telemetry.Registry { return p.cfg.tele }

// Observe is the single reporting path: it hands the observer the
// phase's event line and counts it on the registry. The reconcile
// control plane reports its rounds through it too.
func (p *Pipeline) Observe(phase Phase, format string, args ...interface{}) {
	if p.cfg.observer == nil && p.cfg.tele == nil {
		return
	}
	if p.cfg.observer != nil {
		p.cfg.observer(Event{Phase: phase, Detail: fmt.Sprintf(format, args...)})
	}
	p.cfg.tele.Counter("pipeline", "events", map[string]string{"phase": string(phase)}).Inc()
}

// span opens a pipeline-subsystem trace span (no-op without telemetry).
func (p *Pipeline) span(name string, attrs ...telemetry.Attr) *telemetry.ActiveSpan {
	return p.cfg.tele.StartSpan("pipeline", name, attrs...)
}

// Mapping is the artifact of the Map stage: the per-run results, the
// merged effective view, and the canonical-name→node-ID resolution the
// later stages consume.
type Mapping struct {
	// Runs echoes the mapping runs, in order.
	Runs []MapRun
	// Results holds the per-run mapping results in Runs order.
	Results []*env.Result
	// Merged is the unified mapping.
	Merged *env.Merged
	// Resolve maps canonical machine names to node IDs.
	Resolve map[string]string
}

// Map gathers the platform topology: one ENV run per firewall side,
// folded into one merged view (phase 1). ctx cancellation aborts the
// campaign between probes.
func (p *Pipeline) Map(ctx context.Context, runs ...MapRun) (*Mapping, error) {
	if len(runs) == 0 {
		return nil, fmt.Errorf("core: no mapping runs configured")
	}
	stage := p.span("map", telemetry.Attr{Key: "runs", Value: fmt.Sprint(len(runs))})
	defer stage.End()
	m := &Mapping{Runs: runs, Resolve: map[string]string{}}
	sub := p.plat.Substrate()
	for _, run := range runs {
		p.Observe(PhaseMap, "ENV run from %s (%d hosts)", run.Master, len(run.Hosts))
		rs := stage.Child("env_run", telemetry.Attr{Key: "master", Value: run.Master})
		res, err := env.NewMapperOn(sub, run).Run(ctx)
		rs.End()
		if err != nil {
			return nil, fmt.Errorf("core: mapping from %s: %w", run.Master, err)
		}
		m.Results = append(m.Results, res)
	}

	var aliases []gridml.GatewayAlias
	if p.cfg.autoAliases && len(m.Results) > 1 {
		aliases = env.GuessAliases(m.Results)
		p.Observe(PhaseMap, "guessed %d gateway alias(es) by IP", len(aliases))
	}
	merged, err := env.MergeAll(p.cfg.gridLabel, m.Results, aliases)
	if err != nil {
		return nil, err
	}
	m.Merged = merged
	p.Observe(PhaseMap, "merged %d run(s) into %d networks (%d probes, %.1f MB)",
		len(m.Results), len(merged.Networks), merged.Stats.Probes, float64(merged.Stats.ProbeBytes)/1e6)

	// Resolve canonical names to node IDs using run metadata and the
	// platform's host names.
	record := func(id, name string) {
		if mach := merged.Doc.FindMachine(name); mach != nil {
			m.Resolve[mach.CanonicalName()] = id
		}
	}
	for _, run := range runs {
		for _, id := range run.Hosts {
			record(id, p.hostName(run, id))
		}
	}
	return m, nil
}

// hostName is the name a run knows a host by: the run's own name for
// it, else the platform's DNS name, else the node ID.
func (p *Pipeline) hostName(run MapRun, id string) string {
	if n, ok := run.Names[id]; ok {
		return n
	}
	if info, _ := p.plat.Substrate().HostInfo(id); info.DNS != "" {
		return info.DNS
	}
	return id
}

// PlanResult is the artifact of the Plan stage: the §5.1 plan and its
// §2.3 validation, plus the mapping it was derived from.
type PlanResult struct {
	// Mapping is the Map artifact the plan was derived from.
	Mapping *Mapping
	// Plan is the §5.1 deployment plan.
	Plan *deploy.Plan
	// Validation checks the plan's §2.3 constraints (against the true
	// topology when the platform knows it).
	Validation *deploy.Validation
}

// Plan computes and validates the deployment plan from a mapping
// (phase 2). An incomplete plan — some host pair neither measured nor
// estimable — is an error.
func (p *Pipeline) Plan(m *Mapping) (*PlanResult, error) {
	stage := p.span("plan")
	defer stage.End()
	master := p.cfg.master
	if master == "" && len(m.Runs) > 0 {
		master = p.hostName(m.Runs[0], m.Runs[0].Master)
	}
	plan, err := deploy.NewPlan(m.Merged, deploy.PlanConfig{
		Master: master, TokenGap: p.cfg.tokenGap, ReplicationFactor: p.cfg.replication,
		GatewayReplicas: p.cfg.gateways,
	})
	if err != nil {
		return nil, err
	}
	p.Observe(PhasePlan, "planned %d cliques over %d hosts (master %s)",
		len(plan.Cliques), len(plan.Hosts), plan.Master)

	vs := stage.Child("validate")
	v, err := p.plat.ValidatePlan(plan, m.Resolve)
	vs.End()
	if err != nil {
		return nil, err
	}
	if !v.Complete {
		return nil, fmt.Errorf("core: planned deployment incomplete: %v", v.MissingPairs)
	}
	p.Observe(PhasePlan, "validated: %d/%d pairs direct, max clique %d",
		v.DirectPairs, v.TotalPairs, v.MaxCliqueSize)
	return &PlanResult{Mapping: m, Plan: plan, Validation: v}, nil
}

// Apply launches the NWS processes the plan prescribes on the platform's
// transport (phase 3). The platform's accounting is reset first so the
// monitoring era is separated from the mapping era.
func (p *Pipeline) Apply(ctx context.Context, pr *PlanResult) (*deploy.Deployment, error) {
	stage := p.span("apply", telemetry.Attr{Key: "hosts", Value: fmt.Sprint(len(pr.Plan.Hosts))})
	defer stage.End()
	p.plat.ResetAccounting()
	p.Observe(PhaseApply, "starting %d agents on %s", len(pr.Plan.Hosts), p.plat.Name())
	dep, err := deploy.Apply(ctx, p.plat.Transport(), p.plat.Substrate(), pr.Plan, pr.Mapping.Resolve, deploy.ApplyOptions{
		PairwiseSwitched: p.cfg.pairwiseSwitched,
		Telemetry:        p.cfg.tele,
		Holds:            p.cfg.holds,
	})
	if err != nil {
		return nil, err
	}
	p.Observe(PhaseApply, "deployment running: ns=%s forecaster=%s memories=%v",
		pr.Plan.NameServer, pr.Plan.Forecaster, pr.Plan.MemoryServers)
	return dep, nil
}

// Deploy chains Map, Plan and Apply and bundles the artifacts as an
// Outcome.
func (p *Pipeline) Deploy(ctx context.Context, runs ...MapRun) (*Outcome, error) {
	m, err := p.Map(ctx, runs...)
	if err != nil {
		return nil, err
	}
	pr, err := p.Plan(m)
	if err != nil {
		return nil, err
	}
	dep, err := p.Apply(ctx, pr)
	if err != nil {
		return nil, err
	}
	return &Outcome{
		Results:    m.Results,
		Merged:     m.Merged,
		Plan:       pr.Plan,
		Validation: pr.Validation,
		Deployment: dep,
		Resolve:    m.Resolve,
	}, nil
}
