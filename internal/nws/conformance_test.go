package nws_test

// The cross-role discovery conformance suite: one table of
// directory-churn scenarios (stale registration, owner re-homed, name
// server down, late-appearing series, replica failover, lease expiry
// mid-query) run identically against every role that resolves series
// through the deployment's directory — direct memory fetch
// (query.Client), the forecaster's history resolution (its embedded
// query.Client), and end-user access through gateway discovery.
//
// The suite pins the consolidation of the resolution plane: a scenario
// passes for a role exactly when the role exhibits query.Client
// semantics — structured ErrSeriesUnknown/ErrBackendDown failures
// (never hangs, never stringly errors), eviction of bindings onto
// failed backends so recovery needs no TTL wait, no cached misses (a
// series the directory gains is found by the next query), and cached
// bindings that keep answering through a directory lease gap. A role growing its own parallel
// resolver would drift from the table and fail here first.

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"nwsenv/internal/nws/forecast"
	"nwsenv/internal/nws/gateway"
	"nwsenv/internal/nws/memory"
	"nwsenv/internal/nws/nameserver"
	"nwsenv/internal/nws/proto"
	"nwsenv/internal/nws/proto/prototest"
	"nwsenv/internal/query"
	"nwsenv/internal/simnet"
	"nwsenv/internal/vclock"
)

// Well-known rig hosts.
const (
	nsHost   = "ns"   // name server
	memHostA = "m1"   // memory server owning seriesA
	memHostB = "m2"   // memory server owning seriesB
	fcHost   = "fc"   // forecaster
	gwHost   = "gw"   // query gateway
	userHost = "user" // the probing client's station
	// deadHost is part of the topology but never opens an endpoint:
	// stale registrations can point at it and calls there time out, like
	// packets to a decommissioned machine.
	deadHost = "dead"
	// replHost is idle until the replica-failover scenario starts a
	// replicated memory primary on it (the base rig stays
	// replication-free).
	replHost = "p1"
)

// Seeded series: seriesA lives on memHostA, seriesB on memHostB, 20
// samples each.
const (
	seriesA = "alpha"
	seriesB = "beta"
)

// queryFn is one role's way of resolving and reading a series through
// the deployment. It must be called from a simulation process (the rig
// step helpers do) and returns nil on success or the role's structured
// error.
type queryFn func(series string) error

// rig is a full serving stack on the simulated platform: name server,
// two memory servers, a forecaster, a gateway, and a user station the
// probes issue their traffic from.
type rig struct {
	Sim  *vclock.Sim
	TR   *proto.SimTransport
	User *proto.Station
}

// newRig builds and seeds the stack. All links share one switch with
// millisecond-scale latencies, so probe round-trips stay well inside
// the query plane's discovery TTL.
func newRig(t *testing.T) *rig {
	t.Helper()
	topo := simnet.NewTopology()
	hosts := []string{nsHost, memHostA, memHostB, fcHost, gwHost, userHost, deadHost, replHost}
	for i, h := range hosts {
		topo.AddHost(h, fmt.Sprintf("10.9.0.%d", i+1), h, "lan")
	}
	topo.AddSwitch("sw")
	for _, h := range hosts {
		topo.Connect(h, "sw")
	}
	sim := vclock.New()
	tr := proto.NewSimTransport(simnet.NewNetwork(sim, topo))
	rt := tr.Runtime()
	open := func(h string) *proto.Station {
		ep, err := tr.Open(h)
		if err != nil {
			t.Fatal(err)
		}
		return proto.NewStation(rt, ep)
	}
	stNS := open(nsHost)
	sim.Go("ns", nameserver.New(stNS).Run)
	for _, m := range []string{memHostA, memHostB} {
		st := open(m)
		sim.Go(m, memory.New(st, nameserver.NewClient(st, nsHost)).Run)
	}
	stFC := open(fcHost)
	sim.Go("fc", forecast.NewServer(stFC, nameserver.NewClient(stFC, nsHost), 0).Run)
	stGW := open(gwHost)
	sim.Go("gw", gateway.New(stGW, nsHost).Run)

	r := &rig{Sim: sim, TR: tr, User: open(userHost)}
	r.Store(t, memHostA, seriesA, 20)
	r.Store(t, memHostB, seriesB, 20)
	return r
}

// Run executes fn as a simulation process, stepping the clock per
// second so TTLs and timeouts age realistically while it runs.
func (r *rig) Run(t *testing.T, fn func()) {
	t.Helper()
	done := false
	r.Sim.Go("step", func() { fn(); done = true })
	deadline := r.Sim.Now() + 2*time.Hour
	for at := r.Sim.Now() + time.Second; !done && at <= deadline; at += time.Second {
		if err := r.Sim.RunUntil(at); err != nil {
			t.Fatal(err)
		}
	}
	if !done {
		t.Fatal("scenario step did not finish")
	}
}

// Advance moves virtual time forward with no foreground work (the
// background refresh loops and caches age).
func (r *rig) Advance(t *testing.T, d time.Duration) {
	t.Helper()
	if err := r.Sim.RunUntil(r.Sim.Now() + d); err != nil {
		t.Fatal(err)
	}
}

// Store seeds n samples of series onto the memory server on host (which
// registers ownership in the directory, as in production).
func (r *rig) Store(t *testing.T, host, series string, n int) {
	t.Helper()
	r.Run(t, func() {
		mc := memory.NewClient(r.User, host)
		for i := 1; i <= n; i++ {
			if err := mc.Store(series, proto.Sample{At: time.Duration(i) * time.Second, Value: float64(i)}); err != nil {
				t.Errorf("seed %s on %s: %v", series, host, err)
				return
			}
		}
	})
}

// StartMemory launches an extra memory server on host, fanning its
// accepted stores out to the given replica hosts. scenarios that need
// a replicated primary provision it themselves, so the base rig stays
// replication-free for every other case.
func (r *rig) StartMemory(t *testing.T, host string, replicas ...string) {
	t.Helper()
	ep, err := r.TR.Open(host)
	if err != nil {
		t.Fatal(err)
	}
	st := proto.NewStation(r.TR.Runtime(), ep)
	var opts []memory.Option
	if len(replicas) > 0 {
		opts = append(opts, memory.WithReplicas(replicas...))
	}
	r.Sim.Go("mem:"+host, memory.New(st, nameserver.NewClient(st, nsHost), opts...).Run)
}

// Register writes a directory entry from the user station — how
// scenarios plant stale or short-leased registrations.
func (r *rig) Register(t *testing.T, reg proto.Registration) {
	t.Helper()
	r.Run(t, func() {
		if err := nameserver.NewClient(r.User, nsHost).Register(reg); err != nil {
			t.Errorf("register %+v: %v", reg, err)
		}
	})
}

// Expect runs one probe query in-sim and asserts its outcome: want nil
// for success, or a structured query error class matched with
// errors.Is. Any other shape (hang, unstructured error, unexpected
// success) fails the conformance run.
func (r *rig) Expect(t *testing.T, step string, q queryFn, series string, want error) {
	t.Helper()
	var got error
	r.Run(t, func() { got = q(series) })
	if want == nil {
		if got != nil {
			t.Fatalf("%s: query(%s) failed: %v", step, series, got)
		}
		return
	}
	if got == nil {
		t.Fatalf("%s: query(%s) succeeded, want %v", step, series, want)
	}
	if !errors.Is(got, want) {
		t.Fatalf("%s: query(%s) = %v, want errors.Is %v", step, series, got, want)
	}
}

// scenario is one churn case every discovery role must survive the same
// way.
type scenario struct {
	Name string
	Run  func(t *testing.T, r *rig, q queryFn)
}

// scenarios is the shared conformance table.
var scenarios = []scenario{
	{
		// The directory answers with a binding onto a host that is not
		// serving (a decommissioned machine whose entry was never
		// cleaned). The role must fail structurally — ErrBackendDown, not
		// a hang — evict the binding, and recover as soon as the real
		// owner re-registers, with no TTL wait.
		Name: "stale-registration",
		Run: func(t *testing.T, r *rig, q queryFn) {
			r.Register(t, proto.Registration{Name: seriesA, Kind: "series", Host: deadHost, Owner: "memory." + deadHost})
			r.Expect(t, "stale binding", q, seriesA, query.ErrBackendDown)
			r.Register(t, proto.Registration{Name: seriesA, Kind: "series", Host: memHostA, Owner: "memory." + memHostA})
			r.Expect(t, "after owner re-registers", q, seriesA, nil)
		},
	},
	{
		// A reconcile moves the series to another memory server and the
		// old owner dies. The warm binding fails once (evicting itself);
		// the very next query must already reach the new owner.
		Name: "owner-rehomed",
		Run: func(t *testing.T, r *rig, q queryFn) {
			r.Expect(t, "warm-up against the old owner", q, seriesA, nil)
			r.Store(t, memHostB, seriesA, 20) // new owner registers itself
			r.TR.Network().CrashHost(memHostA)
			r.Expect(t, "stale warm binding onto the dead owner", q, seriesA, query.ErrBackendDown)
			r.Expect(t, "first retry reaches the new owner", q, seriesA, nil)
			r.TR.Network().RestoreHost(memHostA)
		},
	},
	{
		// The directory itself is unreachable: cold resolution fails as
		// ErrBackendDown (at most one lookup timeout — never one per
		// series, never a hang) and recovers the moment the name server
		// answers again. Nothing was negative-cached by the outage.
		Name: "ns-down",
		Run: func(t *testing.T, r *rig, q queryFn) {
			r.TR.Network().CrashHost(nsHost)
			r.Expect(t, "cold resolution with the directory down", q, seriesA, query.ErrBackendDown)
			r.TR.Network().RestoreHost(nsHost)
			r.Expect(t, "directory back", q, seriesA, nil)
		},
	},
	{
		// A series that does not exist yet: the miss is ErrSeriesUnknown
		// and is not remembered, so the first query after the series
		// appears finds it. A cached miss would hide a series exactly
		// when a client is polling for it.
		Name: "late-appearing-series",
		Run: func(t *testing.T, r *rig, q queryFn) {
			const series = "gamma"
			r.Expect(t, "before the series exists", q, series, query.ErrSeriesUnknown)
			r.Store(t, memHostA, series, 20)
			r.Expect(t, "first query after the series appears", q, series, nil)
		},
	},
	{
		// The series' primary dies mid-conversation with k=1 replication
		// on. The registration carried the replica set, so the cached
		// binding fails over inside the same query: the replica answers
		// immediately — no intermediate ErrBackendDown, no TTL wait —
		// and keeps answering on the rebound binding.
		Name: "replica-failover",
		Run: func(t *testing.T, r *rig, q queryFn) {
			const series = "rho"
			r.StartMemory(t, replHost, memHostB)
			r.Store(t, replHost, series, 20)
			// Let the asynchronous fan-out drain so the replica's window
			// is caught up and the failover answer is not degraded.
			r.Advance(t, 30*time.Second)
			r.Expect(t, "warm against the primary", q, series, nil)
			r.TR.Network().CrashHost(replHost)
			r.Expect(t, "primary dies: replica answers without TTL wait", q, series, nil)
			r.Expect(t, "rebound binding keeps answering", q, series, nil)
			r.TR.Network().RestoreHost(replHost)
		},
	},
	{
		// The series' directory lease expires mid-conversation (its owner
		// stopped refreshing it). The cached binding keeps answering
		// through the gap — availability first — until the discovery TTL
		// forces a re-resolution, which sees the expired lease as an
		// unknown series; a fresh registration then restores service.
		Name: "lease-expiry-mid-query",
		Run: func(t *testing.T, r *rig, q queryFn) {
			const series = "leased"
			r.Store(t, memHostA, series, 20)
			// Pin the lease short; the owner's next refresh is 10 virtual
			// minutes out, far beyond this scenario.
			r.Register(t, proto.Registration{Name: series, Kind: "series", Host: memHostA, Owner: "memory." + memHostA, TTL: 30 * time.Second})
			r.Expect(t, "resolved while the lease is live", q, series, nil)
			r.Advance(t, 45*time.Second)
			r.Expect(t, "lease expired, cached binding still answers", q, series, nil)
			r.Advance(t, 90*time.Second) // past the discovery TTL
			r.Expect(t, "cold re-resolution sees the expired lease", q, series, query.ErrSeriesUnknown)
			r.Register(t, proto.Registration{Name: series, Kind: "series", Host: memHostA, Owner: "memory." + memHostA})
			r.Expect(t, "after re-registration", q, series, nil)
		},
	},
}

// runConformance runs the whole scenario table against one role's
// probe. newProbe is called once per scenario on a fresh rig, so probe
// state (caches) spans the steps of a scenario but never leaks across
// scenarios.
func runConformance(t *testing.T, newProbe func(r *rig) queryFn) {
	for _, sc := range scenarios {
		t.Run(sc.Name, func(t *testing.T) {
			r := newRig(t)
			sc.Run(t, r, newProbe(r))
		})
	}
}

// memoryProbe resolves series→owner and fetches directly through a
// query.Client — the baseline the other roles must match.
func memoryProbe(r *rig) queryFn {
	qc := query.New(r.User, nsHost)
	return func(series string) error {
		res := qc.FetchMany([]proto.SeriesRequest{{Series: series, Count: 1}})
		if res[0].Err != nil {
			return res[0].Err
		}
		if len(res[0].Samples) == 0 {
			return fmt.Errorf("series %s: resolved but empty", series)
		}
		return nil
	}
}

// forecastProbe asks the deployed forecaster for a prediction: the
// series→owner resolution under test happens inside the forecaster
// (its embedded query.Client), and its structured per-series errors
// travel back as typed wire codes.
func forecastProbe(r *rig) queryFn {
	fc := forecast.NewClient(r.User, fcHost)
	// The forecaster's internal fetch may spend a full call timeout on a
	// dead backend before replying; the probe must outwait it.
	fc.Timeout = time.Minute
	return func(series string) error {
		res, err := fc.BatchForecast([]proto.SeriesRequest{{Series: series}})
		if err != nil {
			return err
		}
		if got := len(res); got != 1 {
			return fmt.Errorf("series %s: %d results for 1 query", series, got)
		}
		return query.DecodeOutcome("forecaster "+fcHost, res[0].Error, res[0].Code, res[0].Lag)
	}
}

// gatewayProbe is the end-user path: discover the gateway through the
// directory, then fetch through it. Discovery failures and per-series
// failures must both carry the structured query errors.
func gatewayProbe(r *rig) queryFn {
	return func(series string) error {
		gc, err := gateway.Connect(r.User, nsHost)
		if err != nil {
			return err
		}
		gc.Timeout = time.Minute // the gateway fans out with its own timeouts
		res, err := gc.FetchMany([]proto.SeriesRequest{{Series: series, Count: 1}})
		if err != nil {
			return err
		}
		if res[0].Err != nil {
			return res[0].Err
		}
		if len(res[0].Samples) == 0 {
			return fmt.Errorf("series %s: resolved but empty", series)
		}
		return nil
	}
}

func TestConformanceMemoryFetch(t *testing.T)        { runConformance(t, memoryProbe) }
func TestConformanceForecastResolution(t *testing.T) { runConformance(t, forecastProbe) }
func TestConformanceGatewayDiscovery(t *testing.T)   { runConformance(t, gatewayProbe) }

// TestConformancePoisoned runs the table against all three roles with
// every released message poisoned: a role or station that touches a
// message after replying to it or dropping it fails here.
func TestConformancePoisoned(t *testing.T) {
	prototest.PoisonMessages(t)
	t.Run("memory", TestConformanceMemoryFetch)
	t.Run("forecast", TestConformanceForecastResolution)
	t.Run("gateway", TestConformanceGatewayDiscovery)
}
