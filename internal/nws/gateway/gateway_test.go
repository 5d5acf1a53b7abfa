package gateway

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"nwsenv/internal/nws/forecast"
	"nwsenv/internal/nws/memory"
	"nwsenv/internal/nws/nameserver"
	"nwsenv/internal/nws/proto"
	"nwsenv/internal/query"
	"nwsenv/internal/simnet"
	"nwsenv/internal/telemetry"
	"nwsenv/internal/vclock"
)

// rig builds a serving stack with one or more gateways fronting it:
// name server, two memory servers, a forecaster, the gateways, and an
// end-user client station. An unserved endpoint "hole" is opened so
// tests can register series whose owner never answers (calls block
// until the query-plane timeout — a controllable way to hold admission
// tokens).
type rig struct {
	sim    *vclock.Sim
	tr     *proto.SimTransport
	st     *proto.Station // end-user station on host "user"
	tele   *telemetry.Registry
	gws    []*Server // gateways, first on host "gw", then "gw2", ...
	holeEp proto.Endpoint
}

// rigCfg tunes the rig: number of gateways and their admission knobs
// (zero values keep the server defaults).
type rigCfg struct {
	gateways    int
	limit, shed int
	// untraced leaves the gateways without telemetry.
	untraced bool
}

func newRig(t *testing.T) *rig { return newRigCfg(t, rigCfg{}) }

func newRigCfg(t *testing.T, cfg rigCfg) *rig {
	t.Helper()
	if cfg.gateways < 1 {
		cfg.gateways = 1
	}
	gwHosts := []string{"gw"}
	for i := 2; i <= cfg.gateways; i++ {
		gwHosts = append(gwHosts, fmt.Sprintf("gw%d", i))
	}
	topo := simnet.NewTopology()
	hosts := append([]string{"ns", "m1", "m2", "fc", "user", "hole"}, gwHosts...)
	for i, h := range hosts {
		topo.AddHost(h, fmt.Sprintf("10.1.0.%d", i+1), h, "lan")
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
	stNS := open("ns")
	sim.Go("ns", nameserver.New(stNS).Run)
	for _, m := range []string{"m1", "m2"} {
		st := open(m)
		sim.Go(m, memory.New(st, nameserver.NewClient(st, "ns")).Run)
	}
	stFC := open("fc")
	sim.Go("fc", forecast.NewServer(stFC, nameserver.NewClient(stFC, "ns"), 0).Run)
	r := &rig{sim: sim, tr: tr, tele: telemetry.New(sim.Now)}
	for _, h := range gwHosts {
		srv := New(open(h), "ns")
		srv.SetAdmission(cfg.limit, cfg.shed)
		if !cfg.untraced {
			srv.SetTelemetry(r.tele)
		}
		r.gws = append(r.gws, srv)
		sim.Go(h, srv.Run)
	}
	// The hole: an open endpoint nothing serves. Register a series on it
	// and any fetch through the query plane blocks for the full call
	// timeout while holding whatever the gateway admitted it under.
	// Tests that need a scripted peer can attach a station to it.
	holeEp, err := tr.Open("hole")
	if err != nil {
		t.Fatal(err)
	}
	r.holeEp = holeEp
	r.st = open("user")
	return r
}

// pause parks the calling sim process for d of virtual time.
func (r *rig) pause(d time.Duration) {
	r.st.Runtime().NewInbox("pause").RecvTimeout(d)
}

// digSeries registers a series owned by the unserved "hole" endpoint.
func (r *rig) digSeries(t *testing.T, name string) {
	t.Helper()
	if err := nameserver.NewClient(r.st, "ns").Register(proto.Registration{
		Name: name, Kind: "series", Host: "hole", Owner: "memory.hole",
	}); err != nil {
		t.Error(err)
	}
}

func (r *rig) flat() map[string]float64 { return r.tele.Snapshot().Flatten() }

func (r *rig) run(t *testing.T, fn func()) {
	t.Helper()
	done := false
	r.sim.Go("test", func() { fn(); done = true })
	deadline := r.sim.Now() + time.Hour
	for at := r.sim.Now() + time.Second; !done && at <= deadline; at += time.Second {
		if err := r.sim.RunUntil(at); err != nil {
			t.Fatal(err)
		}
	}
	if !done {
		t.Fatal("test process did not finish")
	}
}

func (r *rig) seed(t *testing.T) {
	t.Helper()
	r.run(t, func() {
		c1 := memory.NewClient(r.st, "m1")
		c2 := memory.NewClient(r.st, "m2")
		for i := 1; i <= 10; i++ {
			s := proto.Sample{At: time.Duration(i) * time.Second, Value: float64(i)}
			c1.Store("x", s)
			c2.Store("y", s)
		}
	})
}

// TestGatewayEndToEnd: an end user discovers the gateway through the
// directory and gets batched fetches and forecasts spanning both memory
// servers in one round-trip each, with structured errors surviving the
// wire.
func TestGatewayEndToEnd(t *testing.T) {
	r := newRig(t)
	r.seed(t)
	r.run(t, func() {
		regs, err := DiscoverAll(r.st, "ns")
		if err != nil {
			t.Errorf("discover: %v", err)
			return
		}
		reg := regs[0]
		if reg.Host != "gw" || reg.Name != "gateway.gw" {
			t.Errorf("discovered %+v", reg)
		}
		gc := NewBalancedClient(r.st, []string{reg.Host})
		res, err := gc.FetchMany([]proto.SeriesRequest{
			{Series: "x", Count: 1}, {Series: "y", Count: 0}, {Series: "ghost", Count: 1},
		})
		if err != nil {
			t.Errorf("fetch many: %v", err)
			return
		}
		if res[0].Err != nil || len(res[0].Samples) != 1 || res[0].Samples[0].Value != 10 {
			t.Errorf("x: %+v err %v", res[0].Samples, res[0].Err)
		}
		if res[1].Err != nil || len(res[1].Samples) != 10 {
			t.Errorf("y full window: %d samples err %v", len(res[1].Samples), res[1].Err)
		}
		if !errors.Is(res[2].Err, query.ErrSeriesUnknown) {
			t.Errorf("ghost: %v", res[2].Err)
		}

		fres, err := gc.ForecastMany([]proto.SeriesRequest{{Series: "x"}, {Series: "y"}, {Series: "ghost"}})
		if err != nil {
			t.Errorf("forecast many: %v", err)
			return
		}
		for _, f := range fres[:2] {
			if f.Err != nil || f.Prediction.Method == "" {
				t.Errorf("forecast %s: %+v err %v", f.Series, f.Prediction, f.Err)
			}
		}
		if !errors.Is(fres[2].Err, query.ErrSeriesUnknown) {
			t.Errorf("ghost forecast: %v", fres[2].Err)
		}

		// Single-series convenience.
		if got, err := gc.Fetch("x", 2); err != nil || len(got) != 2 {
			t.Errorf("single fetch: %+v err %v", got, err)
		}
	})
}

// TestDiscoverSkipsStaleRegistration: after a planned gateway move the
// old host's directory entry lives until its TTL; DiscoverAll must probe
// past it (the old host answers queries with "no role") and settle on
// the candidate actually serving the role, even when the stale name
// sorts first.
func TestDiscoverSkipsStaleRegistration(t *testing.T) {
	r := newRig(t)
	r.seed(t)
	r.run(t, func() {
		// "gateway.a-stale" sorts before "gateway.gw" but points at m1,
		// which runs a memory server and rejects query-plane messages.
		nsc := nameserver.NewClient(r.st, "ns")
		if err := nsc.Register(proto.Registration{Name: "gateway.a-stale", Kind: "gateway", Host: "m1"}); err != nil {
			t.Error(err)
			return
		}
		regs, err := DiscoverAll(r.st, "ns")
		if err != nil {
			t.Errorf("discover: %v", err)
			return
		}
		if regs[0].Host != "gw" {
			t.Errorf("discovered %s, want the live gateway on gw", regs[0].Host)
		}
	})
}

// TestGatewayPipelinesConcurrentClients: many users query at once; each
// request is served on its own process, so none starves.
func TestGatewayPipelinesConcurrentClients(t *testing.T) {
	r := newRig(t)
	r.seed(t)
	r.run(t, func() {
		gc := NewBalancedClient(r.st, []string{"gw"})
		done := r.st.Runtime().NewInbox("collect")
		const users = 10
		for i := 0; i < users; i++ {
			r.st.Runtime().Go(fmt.Sprintf("user%d", i), func() {
				res, err := gc.FetchMany([]proto.SeriesRequest{{Series: "x", Count: 1}, {Series: "y", Count: 1}})
				if err != nil {
					t.Errorf("fetch: %v", err)
				} else if res[0].Err != nil || res[1].Err != nil {
					t.Errorf("results: %v %v", res[0].Err, res[1].Err)
				}
				done.Send(proto.Message{})
			})
		}
		for i := 0; i < users; i++ {
			done.Recv()
		}
	})
}

// TestGatewayBackendDownSurfacesStructured: a dead memory server shows
// up as ErrBackendDown through the gateway, while healthy series keep
// answering.
func TestGatewayBackendDownSurfacesStructured(t *testing.T) {
	r := newRig(t)
	r.seed(t)
	r.run(t, func() {
		gc := NewBalancedClient(r.st, []string{"gw"})
		gc.Timeout = 30 * time.Second
		gc.FetchMany([]proto.SeriesRequest{{Series: "x", Count: 1}, {Series: "y", Count: 1}})
		r.tr.SetDown("m2", true)
		res, err := gc.FetchMany([]proto.SeriesRequest{{Series: "x", Count: 1}, {Series: "y", Count: 1}})
		if err != nil {
			t.Errorf("fetch many: %v", err)
			return
		}
		if res[0].Err != nil {
			t.Errorf("healthy series failed: %v", res[0].Err)
		}
		if !errors.Is(res[1].Err, query.ErrBackendDown) {
			t.Errorf("dead backend: %v", res[1].Err)
		}
	})
}

// TestGatewayAdmissionSaturation: with the admission limit at 2, a
// third concurrent request queues (the counter rises exactly once —
// the fast-path TryRecv means no phantom queue events), runs when a
// token frees, and nothing leaks: both gauges drain to zero and a
// fresh request is admitted immediately afterwards.
func TestGatewayAdmissionSaturation(t *testing.T) {
	r := newRigCfg(t, rigCfg{limit: 2})
	r.seed(t)
	r.run(t, func() {
		r.digSeries(t, "slow")
		gc := NewBalancedClient(r.st, []string{"gw"})
		gc.Timeout = 60 * time.Second
		done := r.st.Runtime().NewInbox("collect")
		for i := 0; i < 3; i++ {
			i := i
			r.st.Runtime().Go(fmt.Sprintf("sat%d", i), func() {
				res, err := gc.FetchMany([]proto.SeriesRequest{{Series: "slow", Count: 1}})
				if err != nil {
					t.Errorf("sat%d: %v", i, err)
				} else if !errors.Is(res[0].Err, query.ErrBackendDown) {
					t.Errorf("sat%d: want ErrBackendDown from the hole, got %v", i, res[0].Err)
				}
				done.Send(proto.Message{})
			})
			r.pause(100 * time.Millisecond) // deterministic arrival order
		}
		r.pause(time.Second)
		flat := r.flat()
		if flat["gateway/admission_queued"] != 1 {
			t.Errorf("admission_queued = %g, want exactly 1", flat["gateway/admission_queued"])
		}
		if flat["gateway/queue_depth"] != 1 || flat["gateway/queue_depth:max"] != 1 {
			t.Errorf("queue_depth = %g (max %g), want 1",
				flat["gateway/queue_depth"], flat["gateway/queue_depth:max"])
		}
		if flat["gateway/inflight"] != 2 {
			t.Errorf("inflight = %g, want the full admission limit 2", flat["gateway/inflight"])
		}
		// The blocked fetches release their tokens at the query-plane
		// timeout; the waiter then runs and completes.
		for i := 0; i < 3; i++ {
			done.Recv()
		}
		flat = r.flat()
		if flat["gateway/inflight"] != 0 || flat["gateway/queue_depth"] != 0 {
			t.Errorf("leak: inflight %g queue_depth %g after drain",
				flat["gateway/inflight"], flat["gateway/queue_depth"])
		}
		if flat["gateway/requests"] != 3 {
			t.Errorf("requests = %g, want 3", flat["gateway/requests"])
		}
		if res, err := gc.FetchMany([]proto.SeriesRequest{{Series: "x", Count: 1}}); err != nil || res[0].Err != nil {
			t.Errorf("post-drain fetch not admitted: %v %+v", err, res)
		}
	})
}

// TestGatewayOverloadShedsTyped: past the shed threshold the gateway
// answers a typed CodeOverloaded with a retry-after hint instead of
// queueing without bound, and admits traffic again once the storm
// passes.
func TestGatewayOverloadShedsTyped(t *testing.T) {
	r := newRigCfg(t, rigCfg{limit: 1, shed: 1})
	r.seed(t)
	r.run(t, func() {
		r.digSeries(t, "slow")
		gc := NewBalancedClient(r.st, []string{"gw"})
		gc.Timeout = 60 * time.Second
		done := r.st.Runtime().NewInbox("collect")
		for i := 0; i < 2; i++ {
			r.st.Runtime().Go(fmt.Sprintf("hold%d", i), func() {
				gc.FetchMany([]proto.SeriesRequest{{Series: "slow", Count: 1}})
				done.Send(proto.Message{})
			})
			r.pause(100 * time.Millisecond)
		}
		// One request holds the token, one waits — the line is full.
		_, err := NewBalancedClient(r.st, []string{"gw"}).FetchMany([]proto.SeriesRequest{{Series: "x", Count: 1}})
		if !errors.Is(err, query.ErrOverloaded) {
			t.Errorf("want ErrOverloaded, got %v", err)
		}
		var oe *query.OverloadedError
		if !errors.As(err, &oe) {
			t.Errorf("overload not typed: %v", err)
		} else if oe.RetryAfter <= 0 {
			t.Errorf("overload reply lost its retry-after hint: %+v", oe)
		}
		if f := r.flat(); f["gateway/shed_total"] != 1 {
			t.Errorf("shed_total = %g, want 1", f["gateway/shed_total"])
		}
		done.Recv()
		done.Recv()
		if res, err := NewBalancedClient(r.st, []string{"gw"}).FetchMany([]proto.SeriesRequest{{Series: "x", Count: 1}}); err != nil || res[0].Err != nil {
			t.Errorf("post-storm fetch failed: %v %+v", err, res)
		}
	})
}

// TestBalancedClientRetriesOverloadedReplica: a shed reply sends the
// batch to the next replica without evicting the overloaded one — the
// gateway is alive, just full — so the user never sees the overload.
func TestBalancedClientRetriesOverloadedReplica(t *testing.T) {
	r := newRigCfg(t, rigCfg{gateways: 2, limit: 1, shed: 1})
	r.seed(t)
	r.run(t, func() {
		r.digSeries(t, "slow")
		hold := NewBalancedClient(r.st, []string{"gw"})
		hold.Timeout = 60 * time.Second
		done := r.st.Runtime().NewInbox("collect")
		for i := 0; i < 2; i++ {
			r.st.Runtime().Go(fmt.Sprintf("hold%d", i), func() {
				hold.FetchMany([]proto.SeriesRequest{{Series: "slow", Count: 1}})
				done.Send(proto.Message{})
			})
			r.pause(100 * time.Millisecond)
		}
		bc := NewBalancedClient(r.st, []string{"gw", "gw2"})
		bc.SetTelemetry(r.tele)
		res, err := bc.FetchMany([]proto.SeriesRequest{{Series: "x", Count: 1}})
		if err != nil || res[0].Err != nil {
			t.Errorf("balanced fetch should have failed over to gw2: %v %+v", err, res)
		}
		if h := bc.Hosts(); len(h) != 2 {
			t.Errorf("overload must not evict: pool %v", h)
		}
		if f := r.flat(); f["gateway/client_failovers"] != 1 {
			t.Errorf("client_failovers = %g, want 1", f["gateway/client_failovers"])
		}
		done.Recv()
		done.Recv()
	})
}

// TestBalancedClientEvictsDeadReplica: a replica that stops answering
// is evicted from the pool after one timed-out call; the batch still
// succeeds on the survivor and later calls skip the corpse entirely.
func TestBalancedClientEvictsDeadReplica(t *testing.T) {
	r := newRigCfg(t, rigCfg{gateways: 2})
	r.seed(t)
	r.run(t, func() {
		bc := NewBalancedClient(r.st, []string{"gw", "gw2"})
		bc.SetTelemetry(r.tele)
		r.tr.SetDown("gw", true)
		res, err := bc.FetchMany([]proto.SeriesRequest{{Series: "x", Count: 1}})
		if err != nil || res[0].Err != nil {
			t.Errorf("fetch should have failed over: %v %+v", err, res)
		}
		if h := bc.Hosts(); len(h) != 1 || h[0] != "gw2" {
			t.Errorf("pool after eviction = %v, want [gw2]", h)
		}
		if f := r.flat(); f["gateway/client_failovers"] != 1 {
			t.Errorf("client_failovers = %g, want 1", f["gateway/client_failovers"])
		}
		before := r.sim.Now()
		if res, err := bc.FetchMany([]proto.SeriesRequest{{Series: "y", Count: 1}}); err != nil || res[0].Err != nil {
			t.Errorf("post-eviction fetch: %v %+v", err, res)
		}
		if waited := r.sim.Now() - before; waited >= bc.Timeout {
			t.Errorf("post-eviction fetch still paid the dead replica's timeout (%v)", waited)
		}
	})
}

// TestConnectDiscoversAllReplicas: Connect builds a balanced client
// over every live gateway replica, probing stale directory entries out
// of the pool — and the liveness probes ride outside admission control,
// so discovery keeps working against a saturated gateway without
// burning its admission tokens.
func TestConnectDiscoversAllReplicas(t *testing.T) {
	r := newRigCfg(t, rigCfg{gateways: 2, limit: 1, shed: 1})
	r.seed(t)
	r.run(t, func() {
		// A stale entry that sorts first: points at the memory server m1,
		// which rejects query-plane traffic.
		if err := nameserver.NewClient(r.st, "ns").Register(proto.Registration{
			Name: "gateway.a-stale", Kind: "gateway", Host: "m1",
		}); err != nil {
			t.Error(err)
			return
		}
		// Saturate the first gateway: token held + the waiter line full.
		r.digSeries(t, "slow")
		hold := NewBalancedClient(r.st, []string{"gw"})
		hold.Timeout = 60 * time.Second
		done := r.st.Runtime().NewInbox("collect")
		for i := 0; i < 2; i++ {
			r.st.Runtime().Go(fmt.Sprintf("hold%d", i), func() {
				hold.FetchMany([]proto.SeriesRequest{{Series: "slow", Count: 1}})
				done.Send(proto.Message{})
			})
			r.pause(100 * time.Millisecond)
		}
		requestsBefore := r.flat()["gateway/requests"]
		c, err := Connect(r.st, "ns")
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		if h := c.Hosts(); len(h) != 2 || h[0] != "gw" || h[1] != "gw2" {
			t.Errorf("pool = %v, want [gw gw2]", h)
		}
		f := r.flat()
		if f["gateway/probes"] < 2 {
			t.Errorf("probes = %g, want >= 2 (one per live candidate)", f["gateway/probes"])
		}
		if f["gateway/requests"] != requestsBefore {
			t.Errorf("probing burned admission: requests %g -> %g", requestsBefore, f["gateway/requests"])
		}
		if f["gateway/shed_total"] != 0 {
			t.Errorf("probing tripped the shed line: shed_total = %g", f["gateway/shed_total"])
		}
		done.Recv()
		done.Recv()
	})
}

// TestClientForecastRehydratesDegraded: wire-level parity — a degraded
// forecast answer carries its replica/lag watermark and the client
// rehydrates query.DegradedError exactly as FetchMany does, keeping
// the prediction usable.
func TestClientForecastRehydratesDegraded(t *testing.T) {
	r := newRig(t)
	r.run(t, func() {
		st := proto.NewStation(r.st.Runtime(), r.holeEp)
		r.st.Runtime().Go("scripted-gw", func() {
			for {
				req, ok := st.Recv()
				if !ok {
					return
				}
				st.Reply(req, proto.Message{
					Type: proto.MsgQueryForecastReply, Version: proto.V3,
					Forecasts: []proto.ForecastResult{{
						Series: "cpu", Value: 2.5, MAE: 0.25, Method: "mean", Count: 8,
						Error: "replica lagging", Code: proto.CodeDegraded, Replica: true, Lag: 7,
					}},
				})
			}
		})
		res, err := NewBalancedClient(r.st, []string{"hole"}).ForecastMany([]proto.SeriesRequest{{Series: "cpu"}})
		if err != nil {
			t.Errorf("forecast many: %v", err)
			return
		}
		f := res[0]
		if !errors.Is(f.Err, query.ErrDegraded) {
			t.Errorf("want ErrDegraded, got %v", f.Err)
		}
		var de *query.DegradedError
		if !errors.As(f.Err, &de) || de.Lag != 7 {
			t.Errorf("lag watermark lost: %v", f.Err)
		}
		if f.Prediction.Value != 2.5 || f.Prediction.N != 8 || f.Prediction.Method != "mean" {
			t.Errorf("degraded prediction mangled: %+v", f.Prediction)
		}
	})
}
