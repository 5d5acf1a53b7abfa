package deploy

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"nwsenv/internal/nws/clique"
	"nwsenv/internal/nws/host"
	"nwsenv/internal/nws/proto"
	"nwsenv/internal/nws/sensor"
	"nwsenv/internal/query"
	"nwsenv/internal/telemetry"
)

// staggerStep offsets successive clique bootstraps to de-synchronize
// rings (reduces inter-clique collision windows).
const staggerStep = 500 * time.Millisecond

// ApplyOptions tune the deployment application. Clique pacing is not
// among them: it is the plan's (CliqueSpec.Period).
type ApplyOptions struct {
	// PairwiseSwitched replaces the token ring of switched-network
	// cliques with the round-robin pairwise scheduler: the relaxation
	// the paper's conclusion asks for ("a possibility to lock hosts
	// (and not networks) is still needed"). Disjoint pairs measure
	// concurrently, multiplying the per-pair frequency on switches
	// without creating collisions. Shared networks and bridges keep
	// their rings.
	PairwiseSwitched bool
	// Telemetry, when set, is threaded into every deployed role
	// (gateway admission instruments, clique ring counters) and into
	// query clients built via QueryClient. Nil deploys uninstrumented.
	Telemetry *telemetry.Registry
	// Holds, when set, receives every token hold of every ring clique
	// member and every probe of every pairwise clique (clique.HoldLog),
	// for a checker of the one-token invariant.
	Holds *clique.HoldLog
}

// Deployment is a plan applied to a transport: one agent per host. It
// keeps what it was built with (transport, prober, options) so it can
// later be transitioned incrementally to a revised plan with ApplyDelta.
type Deployment struct {
	Plan    *Plan
	Agents  map[string]*host.Agent // by canonical machine name
	Resolve map[string]string      // canonical name -> node ID

	tr     proto.Transport
	prober sensor.Prober
	opts   ApplyOptions
	// epochs tracks each clique's incarnation: bumped on membership
	// repair so rebuilt rings outrank tokens from dead incarnations.
	// Nil until the first apply.
	epochs map[string]int64
}

// Apply launches the NWS processes the plan prescribes — the automated
// counterpart of the paper's §5.2 manager ("the actual deployment of NWS
// is then as easy as dispatching the configuration file to the hosts and
// running the manager on each machine").
//
// resolve maps canonical machine names to transport host IDs. The
// first deploy is the delta from an empty deployment (ApplyDelta), so
// an aborted or failed deployment leaves no agent running.
func Apply(ctx context.Context, tr proto.Transport, prober sensor.Prober, plan *Plan, resolve map[string]string, opts ApplyOptions) (*Deployment, error) {
	dep := &Deployment{Plan: &Plan{}, Agents: map[string]*host.Agent{}, tr: tr, prober: prober, opts: opts}
	if _, err := dep.ApplyDelta(ctx, plan, resolve); err != nil {
		return nil, err
	}
	return dep, nil
}

// planRoles computes each host's role assignment under plan: the
// per-host slice of the §5.2 configuration file. Clique members are
// resolved node IDs; each clique's Epoch comes from the deployment's
// incarnation table so rebuilt rings outrank their predecessors.
func planRoles(plan *Plan, resolve map[string]string, opts ApplyOptions, epochs map[string]int64) (map[string]host.Roles, error) {
	id := func(name string) (string, error) {
		if v, ok := resolve[name]; ok {
			return v, nil
		}
		return "", fmt.Errorf("deploy: no node for machine %q", name)
	}

	// Build per-clique configs with resolved member IDs and staggered
	// start delays. Switched cliques optionally use the pairwise
	// scheduler instead of a ring.
	cliqueCfgs := map[string][]clique.Config{}       // host ID -> ring configs
	pairwiseCfgs := map[string][]host.PairwiseRole{} // host ID -> pairwise roles
	for i, spec := range plan.Cliques {
		var members []string
		for _, m := range spec.Members {
			node, err := id(m)
			if err != nil {
				return nil, err
			}
			members = append(members, node)
		}
		cfg := clique.Config{
			Name:       spec.Name,
			Members:    members,
			TokenGap:   spec.Period,
			StartDelay: time.Duration(i) * staggerStep,
			Epoch:      epochs[spec.Name],
			Holds:      opts.Holds,
			Telemetry:  opts.Telemetry,
		}
		if opts.PairwiseSwitched && spec.Network != "" && !spec.Shared && len(members) >= 3 {
			role := host.PairwiseRole{
				Cfg:       cfg,
				Scheduler: members[0],
			}
			for k, node := range members {
				r := role
				r.RunScheduler = k == 0
				pairwiseCfgs[node] = append(pairwiseCfgs[node], r)
			}
			continue
		}
		for _, node := range members {
			cliqueCfgs[node] = append(cliqueCfgs[node], cfg)
		}
	}

	nsNode, err := id(plan.NameServer)
	if err != nil {
		return nil, err
	}
	// Replica hosts run memory servers too: they must accept fan-out
	// stores and answer failover batch fetches.
	replicaHosts := map[string]struct{}{}
	for _, set := range plan.Replicas {
		for _, h := range set {
			replicaHosts[h] = struct{}{}
		}
	}
	all := map[string]host.Roles{}
	for _, name := range plan.Hosts {
		node, err := id(name)
		if err != nil {
			return nil, err
		}
		memNode, err := id(plan.MemoryOf[name])
		if err != nil {
			return nil, err
		}
		roles := host.Roles{
			NSHost:     nsNode,
			MemoryHost: memNode,
			Cliques:    cliqueCfgs[node],
			Pairwise:   pairwiseCfgs[node],
			Telemetry:  opts.Telemetry,
		}
		if name == plan.NameServer {
			roles.NameServer = true
		}
		if name == plan.Forecaster {
			roles.Forecaster = true
		}
		if slices.Contains(plan.Gateways, name) {
			roles.Gateway = true
		}
		if slices.Contains(plan.MemoryServers, name) {
			roles.Memory = true
			for _, rh := range plan.Replicas[name] {
				node, err := id(rh)
				if err != nil {
					return nil, err
				}
				roles.MemoryReplicas = append(roles.MemoryReplicas, node)
			}
			sort.Strings(roles.MemoryReplicas)
		}
		if _, isReplica := replicaHosts[name]; isReplica {
			roles.Memory = true
		}
		all[name] = roles
	}
	return all, nil
}

// buildAgents constructs (without starting) an agent for every host
// of the plan that roles assigns, in plan-host order. ctx is checked
// before each construction and after the last; on error the agents
// built so far are stopped (their endpoints are already open) and none
// is returned.
func (d *Deployment) buildAgents(ctx context.Context, plan *Plan, resolve map[string]string, roles map[string]host.Roles) (map[string]*host.Agent, error) {
	agents := map[string]*host.Agent{}
	fail := func(err error) (map[string]*host.Agent, error) {
		for _, a := range agents {
			a.Stop()
		}
		return nil, err
	}
	for _, name := range plan.Hosts {
		r, ok := roles[name]
		if !ok {
			continue
		}
		if err := ctx.Err(); err != nil {
			return fail(fmt.Errorf("deploy: apply aborted: %w", err))
		}
		ag, err := host.NewAgent(d.tr, resolve[name], r, d.prober)
		if err != nil {
			return fail(err)
		}
		agents[name] = ag
	}
	if err := ctx.Err(); err != nil {
		return fail(fmt.Errorf("deploy: apply aborted: %w", err))
	}
	return agents, nil
}

// Stop terminates every agent and returns once all their processes have
// ended (host.Agent.Join): on the wall clock it joins the role
// goroutines; on the simulator it drives the clock until the roles have
// returned, so it must be called between runs. The error reports
// processes still running after the join bound.
func (d *Deployment) Stop() error {
	for _, a := range d.Agents {
		a.Stop()
	}
	for _, a := range d.Agents {
		if err := a.Join(); err != nil {
			return err
		}
	}
	return nil
}

// QueryClient builds a query-plane client over the deployment, issuing
// its calls through port (e.g. the master agent's station) against the
// deployment's name server. One client should be reused across queries:
// its discovery cache and lookup singleflight amortize the directory
// traffic.
func (d *Deployment) QueryClient(port proto.Port) *query.Client {
	qc := query.New(port, d.Resolve[d.Plan.NameServer])
	qc.SetTelemetry(d.opts.Telemetry)
	return qc
}

// PairDataVia builds a PairData over any batched fetch function — the
// direct query client's FetchMany or a gateway client's (whose
// signature adds a transport error) — so every consumer shares one
// definition of "a pair's freshest latency and bandwidth, in one
// batched round-trip".
func (d *Deployment) PairDataVia(fetch func([]proto.SeriesRequest) ([]query.Result, error)) PairData {
	return func(from, to string) (float64, float64, bool) {
		src, ok1 := d.Resolve[from]
		dst, ok2 := d.Resolve[to]
		if !ok1 || !ok2 {
			return 0, 0, false
		}
		res, err := fetch([]proto.SeriesRequest{
			{Series: sensor.LatencySeries(src, dst), Count: 1},
			{Series: sensor.BandwidthSeries(src, dst), Count: 1},
		})
		// A degraded answer (served from a lagging replica after the
		// primary died) still carries samples: stale-but-available beats
		// no estimate at all.
		usable := func(r query.Result) bool {
			return (r.Err == nil || errors.Is(r.Err, query.ErrDegraded)) && len(r.Samples) > 0
		}
		if err != nil || len(res) != 2 || !usable(res[0]) || !usable(res[1]) {
			return 0, 0, false
		}
		return res[0].Samples[0].Value, res[1].Samples[0].Value, true
	}
}
