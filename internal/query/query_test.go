package query_test

import (
	"errors"
	"fmt"
	"sync"
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

// countingEndpoint wraps a transport endpoint and counts outgoing
// messages by type: the round-trip meter the batching guarantees are
// verified against.
type countingEndpoint struct {
	proto.Endpoint
	mu     sync.Mutex
	counts map[proto.MsgType]int
}

func (e *countingEndpoint) Send(to string, m proto.Message) error {
	e.mu.Lock()
	e.counts[m.Type]++
	e.mu.Unlock()
	return e.Endpoint.Send(to, m)
}

func (e *countingEndpoint) count(t proto.MsgType) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.counts[t]
}

// rig is a hand-built NWS serving stack on the simulated platform: a
// name server, two memory servers, a forecaster, and a client station
// whose outgoing traffic is counted.
type rig struct {
	sim *vclock.Sim
	tr  *proto.SimTransport
	st  *proto.Station // client station (on host "c")
	cnt *countingEndpoint
	m1  *memory.Server
	m2  *memory.Server
}

func newRig(t *testing.T) *rig {
	t.Helper()
	topo := simnet.NewTopology()
	for i, h := range []string{"ns", "m1", "m2", "fc", "c"} {
		topo.AddHost(h, fmt.Sprintf("10.0.0.%d", i+1), h, "lan")
	}
	topo.AddSwitch("sw")
	for _, h := range []string{"ns", "m1", "m2", "fc", "c"} {
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
	r := &rig{sim: sim, tr: tr}

	stNS := open("ns")
	sim.Go("ns", nameserver.New(stNS).Run)

	stM1, stM2 := open("m1"), open("m2")
	r.m1 = memory.New(stM1, nameserver.NewClient(stM1, "ns"))
	r.m2 = memory.New(stM2, nameserver.NewClient(stM2, "ns"))
	sim.Go("m1", r.m1.Run)
	sim.Go("m2", r.m2.Run)

	stFC := open("fc")
	sim.Go("fc", forecast.NewServer(stFC, nameserver.NewClient(stFC, "ns"), 0).Run)

	ep, err := tr.Open("c")
	if err != nil {
		t.Fatal(err)
	}
	r.cnt = &countingEndpoint{Endpoint: ep, counts: map[proto.MsgType]int{}}
	r.st = proto.NewStation(rt, r.cnt)
	return r
}

// counters wires a per-test registry: the returned option counts the
// client on it, and count reads one query/<name> counter back.
func (r *rig) counters() (opt query.Option, count func(name string) int64) {
	reg := telemetry.New(r.sim.Now)
	return query.WithTelemetry(reg), func(name string) int64 {
		return reg.Counter("query", name, nil).Value()
	}
}

// seed stores samples through direct memory clients (the data plane,
// not under test) from inside the simulation.
func (r *rig) seed(t *testing.T) {
	t.Helper()
	r.run(t, func() {
		c1 := memory.NewClient(r.st, "m1")
		c2 := memory.NewClient(r.st, "m2")
		for i := 1; i <= 20; i++ {
			s := proto.Sample{At: time.Duration(i) * time.Second, Value: float64(i)}
			for _, name := range []string{"a1", "a2", "a3"} {
				if err := c1.Store(name, s); err != nil {
					t.Error(err)
					return
				}
			}
			for _, name := range []string{"b1", "b2"} {
				if err := c2.Store(name, s); err != nil {
					t.Error(err)
					return
				}
			}
		}
		// Seeding goes through MsgStore on the counted endpoint; reset
		// the meter so tests observe only query-plane traffic.
		r.cnt.mu.Lock()
		r.cnt.counts = map[proto.MsgType]int{}
		r.cnt.mu.Unlock()
	})
}

// run executes fn as a simulation process, advancing the clock in small
// steps so directory TTLs and caches age realistically between runs
// instead of jumping a whole RunUntil window.
func (r *rig) run(t *testing.T, fn func()) {
	t.Helper()
	done := false
	r.sim.Go("test", func() { fn(); done = true })
	deadline := r.sim.Now() + 2*time.Hour
	for at := r.sim.Now() + time.Second; !done && at <= deadline; at += time.Second {
		if err := r.sim.RunUntil(at); err != nil {
			t.Fatal(err)
		}
	}
	if !done {
		t.Fatal("test process did not finish")
	}
}

// TestFetchManyOneRoundTripPerBackend is the transport message-count
// guarantee of the acceptance criteria: FetchMany over N series issues
// at most one proto round-trip per owning backend (plus one bulk
// directory lookup on a cold cache), never one per series.
func TestFetchManyOneRoundTripPerBackend(t *testing.T) {
	r := newRig(t)
	r.seed(t)
	counted, count := r.counters()
	qc := query.New(r.st, "ns", counted)
	reqs := []proto.SeriesRequest{
		{Series: "a1", Count: 1}, {Series: "b1", Count: 1}, {Series: "a2", Count: 1},
		{Series: "b2", Count: 1}, {Series: "a3", Count: 1},
	}
	r.run(t, func() {
		res := qc.FetchMany(reqs)
		for i, rr := range res {
			if rr.Err != nil {
				t.Errorf("series %s: %v", reqs[i].Series, rr.Err)
				continue
			}
			if rr.Series != reqs[i].Series {
				t.Errorf("result %d out of order: %s", i, rr.Series)
			}
			if len(rr.Samples) != 1 || rr.Samples[0].Value != 20 {
				t.Errorf("series %s: samples %+v", rr.Series, rr.Samples)
			}
		}
	})
	if got := r.cnt.count(proto.MsgBatchFetch); got != 2 {
		t.Errorf("MsgBatchFetch sent %d times, want 2 (one per backend)", got)
	}
	if got := r.cnt.count(proto.MsgLookup); got != 1 {
		t.Errorf("MsgLookup sent %d times, want 1 (bulk discovery)", got)
	}

	// Warm cache: the second batch costs exactly one round-trip per
	// backend and zero lookups.
	r.run(t, func() { qc.FetchMany(reqs) })
	if got := r.cnt.count(proto.MsgLookup); got != 1 {
		t.Errorf("warm batch re-looked-up the directory: %d lookups", got)
	}
	if got := r.cnt.count(proto.MsgBatchFetch); got != 4 {
		t.Errorf("MsgBatchFetch sent %d times, want 4", got)
	}
	if h, l, b := count("lookup_hits"), count("lookup_calls"), count("batch_calls"); h == 0 || l != 1 || b != 4 {
		t.Errorf("lookup_hits %d, lookup_calls %d, batch_calls %d; want >0, 1, 4", h, l, b)
	}
}

func TestFetchSemantics(t *testing.T) {
	r := newRig(t)
	r.seed(t)
	counted, count := r.counters()
	qc := query.New(r.st, "ns", counted)
	r.run(t, func() {
		// n <= 0: the full retained window.
		all, err := qc.Fetch("a1", 0)
		if err != nil || len(all) != 20 {
			t.Errorf("full window: %d samples, err %v", len(all), err)
		}
		neg, err := qc.Fetch("a1", -3)
		if err != nil || len(neg) != 20 {
			t.Errorf("negative n: %d samples, err %v", len(neg), err)
		}
		last, err := qc.Fetch("a1", 2)
		if err != nil || len(last) != 2 || last[1].Value != 20 {
			t.Errorf("last 2: %+v err %v", last, err)
		}
		// Unknown series is a structured error, and the miss is cached:
		// repeating the query within the TTL costs no directory traffic.
		if _, err := qc.Fetch("nope", 1); !errors.Is(err, query.ErrSeriesUnknown) {
			t.Errorf("unknown series: %v", err)
		}
		lookups := count("lookup_calls")
		if _, err := qc.Fetch("nope", 1); !errors.Is(err, query.ErrSeriesUnknown) {
			t.Errorf("unknown series (cached): %v", err)
		}
		if got := count("lookup_calls"); got != lookups {
			t.Errorf("negative lookup not cached: %d -> %d directory calls", lookups, got)
		}
	})
}

// TestBackendDownIsPerSeries: a dead memory server fails only its own
// series; the cached binding is dropped so recovery is possible.
func TestBackendDownIsPerSeries(t *testing.T) {
	r := newRig(t)
	r.seed(t)
	qc := query.New(r.st, "ns")
	reqs := []proto.SeriesRequest{{Series: "a1", Count: 1}, {Series: "b1", Count: 1}}
	r.run(t, func() { qc.FetchMany(reqs) }) // warm the discovery cache
	r.tr.SetDown("m2", true)
	r.run(t, func() {
		res := qc.FetchMany(reqs)
		if res[0].Err != nil {
			t.Errorf("healthy backend failed: %v", res[0].Err)
		}
		if !errors.Is(res[1].Err, query.ErrBackendDown) {
			t.Errorf("dead backend: %v", res[1].Err)
		}
	})
	// The failed backend's bindings were evicted; once it returns, the
	// next batch re-resolves and succeeds.
	r.tr.SetDown("m2", false)
	r.run(t, func() {
		res := qc.FetchMany(reqs)
		if res[1].Err != nil {
			t.Errorf("recovered backend still failing: %v", res[1].Err)
		}
	})
}

// TestLookupSingleflight: concurrent lookups of one cold series collapse
// into a single directory round-trip.
func TestLookupSingleflight(t *testing.T) {
	r := newRig(t)
	r.seed(t)
	counted, count := r.counters()
	qc := query.New(r.st, "ns", counted)
	r.run(t, func() {
		done := r.st.Runtime().NewInbox("collect")
		for i := 0; i < 8; i++ {
			r.st.Runtime().Go(fmt.Sprintf("q%d", i), func() {
				if _, err := qc.Fetch("a1", 1); err != nil {
					t.Errorf("fetch: %v", err)
				}
				done.Send(proto.Message{})
			})
		}
		for i := 0; i < 8; i++ {
			done.Recv()
		}
	})
	if got := count("lookup_calls"); got != 1 {
		t.Errorf("singleflight leaked: %d directory calls", got)
	}
}

func TestForecastManyAndCache(t *testing.T) {
	r := newRig(t)
	r.seed(t)
	counted, count := r.counters()
	qc := query.New(r.st, "ns", query.WithForecastTTL(30*time.Second), counted)
	reqs := []proto.SeriesRequest{{Series: "a1"}, {Series: "b1"}}
	r.run(t, func() {
		res := qc.ForecastMany(reqs)
		for i, fr := range res {
			if fr.Err != nil {
				t.Errorf("forecast %s: %v", reqs[i].Series, fr.Err)
				continue
			}
			if fr.Prediction.Method == "" || fr.Prediction.N == 0 {
				t.Errorf("forecast %s: empty prediction %+v", fr.Series, fr.Prediction)
			}
		}
	})
	calls := count("batch_calls")
	// Within the TTL the cache answers; no new backend traffic.
	r.run(t, func() {
		res := qc.ForecastMany(reqs)
		if res[0].Err != nil || res[1].Err != nil {
			t.Errorf("cached forecasts failed: %v %v", res[0].Err, res[1].Err)
		}
	})
	if got := count("batch_calls"); got != calls {
		t.Errorf("cached forecast went to the backend: %d -> %d batch calls", calls, got)
	}
	if got := count("forecast_hits"); got != 2 {
		t.Errorf("forecast hits %d, want 2", got)
	}
	// After the TTL the entry expires and the backend is asked again.
	r.run(t, func() {
		r.st.Runtime().Sleep(time.Minute)
		if res := qc.ForecastMany(reqs[:1]); res[0].Err != nil {
			t.Errorf("expired refetch: %v", res[0].Err)
		}
	})
	if got := count("batch_calls"); got == calls {
		t.Error("expired forecast did not go back to the forecaster")
	}
	// Unknown series surfaces the structured error through the batch.
	r.run(t, func() {
		if _, err := qc.Forecast("nope", 0); !errors.Is(err, query.ErrSeriesUnknown) {
			t.Errorf("unknown forecast: %v", err)
		}
	})
}

// TestFetchManySpawnsNoProcess: a FetchMany over two backends scatters
// both batches from the calling process and gathers the replies there —
// no process is alive during the call that was not alive before it —
// and answers every series correctly.
func TestFetchManySpawnsNoProcess(t *testing.T) {
	r := newRig(t)
	r.seed(t)
	qc := query.New(r.st, "ns")
	reqs := []proto.SeriesRequest{
		{Series: "a1", Count: 1}, {Series: "b1", Count: 1}, {Series: "a2", Count: 1},
	}
	r.run(t, func() { qc.FetchMany(reqs) }) // warm the discovery cache

	before := r.sim.Processes()
	peak, calling := 0, true
	var sample func()
	sample = func() {
		peak = max(peak, r.sim.Processes())
		if calling {
			r.sim.After(10*time.Microsecond, sample)
		}
	}
	var res []query.Result
	r.run(t, func() {
		r.sim.After(0, sample)
		res = qc.FetchMany(reqs)
		calling = false
	})
	for _, rr := range res {
		if rr.Err != nil || len(rr.Samples) != 1 {
			t.Errorf("series %s: %+v err %v", rr.Series, rr.Samples, rr.Err)
		}
	}
	// The driver process itself is the one extra.
	if peak != before+1 {
		t.Errorf("%d processes alive during FetchMany, want %d (the caller's)", peak-before, 1)
	}
	if got := r.cnt.count(proto.MsgBatchFetch); got != 4 {
		t.Errorf("MsgBatchFetch sent %d times over two calls, want 4", got)
	}
}

// TestUnsupportedVersionRejected: a batch from a future protocol
// version is refused by the server instead of being half-understood.
func TestUnsupportedVersionRejected(t *testing.T) {
	r := newRig(t)
	r.seed(t)
	r.run(t, func() {
		_, err := r.st.Call("m1", proto.Message{
			Type: proto.MsgBatchFetch, Version: proto.V3 + 1,
			Queries: []proto.SeriesRequest{{Series: "a1", Count: 1}},
		}, 5*time.Second)
		if err == nil {
			t.Error("version 4 batch accepted")
		}
	})
}

// TestTimedOutBatchKeepsItsQueries: a batch whose backend answers too
// late gives up at the timeout, but its request may still sit queued
// at that backend. The client's recycled batch records must not be
// handed to the next batch while that request can still be read: the
// slow backend, reading the first request after the second batch was
// sent, must still see the first batch's series.
func TestTimedOutBatchKeepsItsQueries(t *testing.T) {
	topo := simnet.NewTopology()
	for i, h := range []string{"ns", "slow", "c"} {
		topo.AddHost(h, fmt.Sprintf("10.0.0.%d", i+1), h, "lan")
	}
	topo.AddSwitch("sw")
	for _, h := range []string{"ns", "slow", "c"} {
		topo.Connect(h, "sw")
	}
	sim := vclock.New()
	tr := proto.NewSimTransport(simnet.NewNetwork(sim, topo))
	open := func(h string) *proto.Station {
		ep, err := tr.Open(h)
		if err != nil {
			t.Fatal(err)
		}
		return proto.NewStation(tr.Runtime(), ep)
	}
	sim.Go("ns", nameserver.New(open("ns")).Run)
	slow := open("slow")
	var seen [][]string
	sim.Go("slow", func() {
		for {
			req, ok := slow.Recv()
			if !ok {
				return
			}
			// Answer only after the caller's timeout, reading the
			// request as late as possible.
			slow.Runtime().Sleep(query.DefaultTimeout + 5*time.Second)
			var names []string
			for _, q := range req.Queries {
				names = append(names, q.Series)
			}
			seen = append(seen, names)
			slow.Reply(req, proto.Message{Type: proto.MsgBatchFetchReply, Version: proto.V3,
				Results: make([]proto.SeriesResult, len(req.Queries))})
		}
	})
	c := open("c")
	qc := query.New(c, "ns")
	done := false
	sim.Go("test", func() {
		nsc := nameserver.NewClient(c, "ns")
		for _, s := range []string{"s1", "s2", "s3", "s4"} {
			if err := nsc.Register(proto.Registration{Name: s, Kind: "series", Host: "slow"}); err != nil {
				t.Error(err)
			}
		}
		for _, batch := range [][]string{{"s1", "s2"}, {"s3", "s4"}} {
			res := qc.FetchMany([]proto.SeriesRequest{{Series: batch[0]}, {Series: batch[1]}})
			if !errors.Is(res[0].Err, query.ErrBackendDown) {
				t.Errorf("batch %v: %v, want a timeout", batch, res[0].Err)
			}
		}
		done = true
	})
	for at := time.Second; !done || len(seen) < 2; at += time.Second {
		if at > time.Hour {
			t.Fatal("stuck")
		}
		if err := sim.RunUntil(at); err != nil {
			t.Fatal(err)
		}
	}
	if fmt.Sprint(seen) != "[[s1 s2] [s3 s4]]" {
		t.Errorf("the slow backend read %v, want [[s1 s2] [s3 s4]]", seen)
	}
}
