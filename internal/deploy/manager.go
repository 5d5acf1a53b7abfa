package deploy

import (
	"context"
	"errors"
	"fmt"
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

// ApplyOptions tune the deployment application.
type ApplyOptions struct {
	// TokenGap paces every clique (default 1s).
	TokenGap time.Duration
	// HostSensorPeriod enables host sensors when > 0.
	HostSensorPeriod time.Duration
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
}

// Deployment is a plan applied to a transport: one agent per host. It
// keeps what it was built with (transport, prober, options) so it can
// later be transitioned incrementally to a revised plan with ApplyDelta.
type Deployment struct {
	Plan    *Plan
	Agents  map[string]*host.Agent // by canonical machine name
	Resolve map[string]string      // canonical name -> node ID
	reverse map[string]string      // node ID -> canonical name

	tr     proto.Transport
	prober sensor.Prober
	opts   ApplyOptions
	// epochs tracks each clique's incarnation: bumped on membership
	// repair so rebuilt rings outrank tokens from dead incarnations.
	epochs map[string]int64
}

// Apply launches the NWS processes the plan prescribes — the automated
// counterpart of the paper's §5.2 manager ("the actual deployment of NWS
// is then as easy as dispatching the configuration file to the hosts and
// running the manager on each machine").
//
// resolve maps canonical machine names to transport host IDs.
func Apply(tr proto.Transport, prober sensor.Prober, plan *Plan, resolve map[string]string, opts ApplyOptions) (*Deployment, error) {
	return ApplyContext(context.Background(), tr, prober, plan, resolve, opts)
}

// ApplyContext is Apply with cancellation: ctx is checked while agents
// are constructed and before they start, so an aborted deployment leaves
// no agent running (already-built agents are torn down).
func ApplyContext(ctx context.Context, tr proto.Transport, prober sensor.Prober, plan *Plan, resolve map[string]string, opts ApplyOptions) (*Deployment, error) {
	dep := &Deployment{
		Plan:    plan,
		Resolve: resolve,
		reverse: map[string]string{},
		tr:      tr,
		prober:  prober,
		opts:    opts.withDefaults(),
		epochs:  map[string]int64{},
	}
	agents, err := dep.buildAgents(ctx, plan, resolve, nil, nil)
	if err != nil {
		for _, a := range agents {
			a.Stop()
		}
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		for _, a := range agents {
			a.Stop()
		}
		return nil, fmt.Errorf("deploy: apply aborted: %w", err)
	}
	dep.Agents = agents
	for name, node := range resolve {
		dep.reverse[node] = name
	}
	for _, name := range plan.Hosts {
		dep.Agents[name].Start()
	}
	return dep, nil
}

// withDefaults normalizes the options once, so the role assignments
// computed at apply time and at reconcile time agree.
func (o ApplyOptions) withDefaults() ApplyOptions {
	if o.TokenGap <= 0 {
		o.TokenGap = time.Second
	}
	return o
}

// planRoles computes each host's role assignment under plan: the
// per-host slice of the §5.2 configuration file. Clique members are
// resolved node IDs; each clique's Epoch comes from the deployment's
// incarnation table so rebuilt rings outrank their predecessors.
func planRoles(plan *Plan, resolve map[string]string, opts ApplyOptions, epochs map[string]int64) (map[string]host.Roles, error) {
	opts = opts.withDefaults()
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
		gap := spec.Period
		if gap <= 0 {
			gap = opts.TokenGap
		}
		cfg := clique.Config{
			Name:       spec.Name,
			Members:    members,
			TokenGap:   gap,
			StartDelay: time.Duration(i) * staggerStep,
			Epoch:      epochs[spec.Name],
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
			NSHost:           nsNode,
			MemoryHost:       memNode,
			Cliques:          cliqueCfgs[node],
			Pairwise:         pairwiseCfgs[node],
			HostSensorPeriod: opts.HostSensorPeriod,
			Telemetry:        opts.Telemetry,
		}
		if name == plan.NameServer {
			roles.NameServer = true
		}
		if name == plan.Forecaster {
			roles.Forecaster = true
		}
		if contains(plan.Gateways, name) {
			roles.Gateway = true
		}
		if contains(plan.MemoryServers, name) {
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

// buildAgents constructs (without starting) the agents for the plan's
// hosts; when only is non-nil, just for that subset. roles may carry
// the plan's precomputed role assignments (nil recomputes them). On
// error the agents built so far are returned alongside it so the caller
// can tear them down (their endpoints are already open).
func (d *Deployment) buildAgents(ctx context.Context, plan *Plan, resolve map[string]string, only []string, roles map[string]host.Roles) (map[string]*host.Agent, error) {
	all := roles
	if all == nil {
		var err error
		all, err = planRoles(plan, resolve, d.opts, d.epochs)
		if err != nil {
			return nil, err
		}
	}
	agents := map[string]*host.Agent{}
	for _, name := range plan.Hosts {
		if only != nil && !contains(only, name) {
			continue
		}
		if err := ctx.Err(); err != nil {
			return agents, fmt.Errorf("deploy: apply aborted: %w", err)
		}
		ag, err := host.NewAgent(d.tr, resolve[name], all[name], d.prober)
		if err != nil {
			return agents, err
		}
		agents[name] = ag
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
func (d *Deployment) QueryClient(port proto.Port, opts ...query.Option) *query.Client {
	if d.opts.Telemetry != nil {
		opts = append([]query.Option{query.WithTelemetry(d.opts.Telemetry)}, opts...)
	}
	return query.New(port, d.Resolve[d.Plan.NameServer], opts...)
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

// LiveData returns a PairData that reads the latest measured samples
// through the query plane: both series of a pair come back in one
// batched round-trip per memory server. It must be used from a
// simulation process; port is the station the queries are issued from
// (e.g. the master agent's).
func (d *Deployment) LiveData(port proto.Port) PairData {
	qc := d.QueryClient(port)
	return d.PairDataVia(func(reqs []proto.SeriesRequest) ([]query.Result, error) {
		return qc.FetchMany(reqs), nil
	})
}

// Estimator builds a live estimator over the running deployment.
func (d *Deployment) Estimator(port proto.Port) *Estimator {
	return NewEstimator(d.Plan, d.LiveData(port))
}

// ForecastData returns a PairData backed by the deployment's
// forecasters instead of raw last samples: composed queries then answer
// "what will the path look like next" — §2.1's statistical forecasts
// feeding §2.3's aggregation. Both predictions of a pair travel in one
// batched round-trip, and repeated queries hit the client's forecast
// cache. Falls back to nothing (ok=false) for series the forecaster
// cannot predict yet.
func (d *Deployment) ForecastData(port proto.Port) PairData {
	qc := d.QueryClient(port)
	return func(from, to string) (float64, float64, bool) {
		src, ok1 := d.Resolve[from]
		dst, ok2 := d.Resolve[to]
		if !ok1 || !ok2 {
			return 0, 0, false
		}
		res := qc.ForecastMany([]proto.SeriesRequest{
			{Series: sensor.LatencySeries(src, dst)},
			{Series: sensor.BandwidthSeries(src, dst)},
		})
		// A degraded prediction (computed from a replica-served history)
		// is usable, mirroring PairDataVia's stale-beats-nothing stance.
		usable := func(r query.ForecastResult) bool {
			return r.Err == nil || errors.Is(r.Err, query.ErrDegraded)
		}
		if !usable(res[0]) || !usable(res[1]) {
			return 0, 0, false
		}
		return res[0].Prediction.Value, res[1].Prediction.Value, true
	}
}

// ForecastEstimator composes forecasted segment values into end-to-end
// predictions.
func (d *Deployment) ForecastEstimator(port proto.Port) *Estimator {
	return NewEstimator(d.Plan, d.ForecastData(port))
}
