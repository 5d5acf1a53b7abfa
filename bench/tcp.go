package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"nwsenv/internal/nws/gateway"
	"nwsenv/internal/nws/memory"
	"nwsenv/internal/nws/predict"
	"nwsenv/internal/nws/proto"
	"nwsenv/internal/query"
)

const (
	tcpWarmup   = time.Second // dials, discovery caches and heap settle; discarded
	setupRepeat = 3           // set-ups per pass; setup_s is their median
	batchSeries = 20
)

// tcpWorkloads are the three closed-loop workloads on loopback sockets.
var tcpWorkloads = map[string]struct {
	cfg        tcpConfig
	fetchCount int // samples per series a FetchMany asks for
	roles      func(*tcpRun) []func(*roleStats)
}{
	"tcp_fetch": {tcpConfig{series: 2000, history: 64}, 8, func(t *tcpRun) []func(*roleStats) {
		return []func(*roleStats){t.fetchLoop, t.fetchLoop}
	}},
	"tcp_forecast": {tcpConfig{series: 8192, history: 256}, 8, func(t *tcpRun) []func(*roleStats) {
		return []func(*roleStats){t.forecastLoop}
	}},
	"tcp_ingest_mix": {tcpConfig{series: 256, history: memory.DefaultRetention, replicas: true}, 64, func(t *tcpRun) []func(*roleStats) {
		return []func(*roleStats){t.storeLoop, t.mixedReadLoop}
	}},
}

// window is the measured interval on the transport's clock.
type window struct{ start, end time.Duration }

// opStats accumulates one kind of client operation inside the window.
type opStats struct {
	lat       []time.Duration // latency of every correct operation
	attempted int
	failed    int
	items     int // correct work items: series, forecasts or samples
}

// record counts an operation that ran wholly inside the window. A failed,
// refused or wrong answer is attempted-and-failed and adds no latency.
func (o *opStats) record(w window, t0, t1 time.Duration, ok bool, items int) {
	if t0 < w.start || t1 > w.end {
		return
	}
	o.attempted++
	if !ok {
		o.failed++
		return
	}
	o.lat = append(o.lat, t1-t0)
	o.items += items
}

func (o *opStats) merge(b *opStats) {
	o.lat = append(o.lat, b.lat...)
	o.attempted += b.attempted
	o.failed += b.failed
	o.items += b.items
}

// roleStats is what one load goroutine measured.
type roleStats struct {
	client                 int
	fetch, forecast, store opStats
	log                    *spanLog
	stored                 []int // samples acknowledged per series (writers only)
	err                    error
}

// tcpRun is one pass of one TCP workload.
type tcpRun struct {
	name       string
	seed       int64
	fetchCount int
	stack      *tcpStack
	data       *seriesSet
	rt         proto.Runtime
	w          window
}

// client opens a station for a load goroutine and connects it to the
// gateway the way an end user would.
func (t *tcpRun) client(rs *roleStats) (*proto.Station, *gateway.Client, error) {
	st, err := t.stack.open(fmt.Sprintf("client%d", rs.client))
	if err != nil {
		return nil, nil, err
	}
	gwc, err := gateway.Connect(st, nsHost)
	return st, gwc, err
}

func (t *tcpRun) rng(rs *roleStats) *rand.Rand {
	return rand.New(rand.NewSource(t.seed*7919 + int64(rs.client) + 1))
}

// fetchOK checks a FetchMany answer: every series answered with exactly
// count samples, the newest of which the harness stored (and, on a series
// nobody writes to, is the last one stored).
func (t *tcpRun) fetchOK(b batch, res []query.Result, err error, count int) bool {
	if err != nil || len(res) != len(b.reqs) {
		return false
	}
	for k, r := range res {
		if r.Err != nil || r.Series != b.reqs[k].Series || len(r.Samples) != count {
			return false
		}
		n, ok := t.data.stored(b.idx[k], r.Samples[len(r.Samples)-1])
		if !ok || n < t.stack.cfg.history-1 {
			return false
		}
	}
	return true
}

func forecastOK(b batch, res []query.ForecastResult, err error) bool {
	if err != nil || len(res) != len(b.reqs) {
		return false
	}
	for k, r := range res {
		if r.Err != nil || r.Series != b.reqs[k].Series || r.Prediction.N == 0 || r.Prediction.Method == "" {
			return false
		}
	}
	return true
}

// fetchOnce sends one FetchMany and waits for its answer.
func (t *tcpRun) fetchOnce(rs *roleStats, gwc *gateway.Client, b batch, request int64) {
	t0 := t.rt.Now()
	res, err := gwc.FetchMany(b.reqs)
	t1 := t.rt.Now()
	rs.fetch.record(t.w, t0, t1, t.fetchOK(b, res, err, t.fetchCount), len(b.reqs))
	rs.log.add(rs.log.id(), "client/fetch_many", 0, request, t0, t1)
}

// forecastOnce sends one ForecastMany and waits for its answer.
func (t *tcpRun) forecastOnce(rs *roleStats, gwc *gateway.Client, b batch, parent, request int64) {
	t0 := t.rt.Now()
	res, err := gwc.ForecastMany(b.reqs)
	t1 := t.rt.Now()
	rs.forecast.record(t.w, t0, t1, forecastOK(b, res, err), len(b.reqs))
	rs.log.add(rs.log.id(), "client/forecast_many", parent, request, t0, t1)
}

// fetchLoop: FetchMany of 20 series from a seeded permutation, waiting
// for each answer before sending the next request.
func (t *tcpRun) fetchLoop(rs *roleStats) {
	_, gwc, err := t.client(rs)
	if err != nil {
		rs.err = err
		return
	}
	batches := t.data.batches(t.rng(rs), batchSeries, t.fetchCount, false)
	for n := 0; t.rt.Now() < t.w.end; n++ {
		t.fetchOnce(rs, gwc, batches[n%len(batches)], int64(n))
	}
}

// forecastLoop: ForecastMany of 20 series in cyclic order, then one fresh
// sample stored to 2 of them so their histories keep advancing.
func (t *tcpRun) forecastLoop(rs *roleStats) {
	st, gwc, err := t.client(rs)
	if err != nil {
		rs.err = err
		return
	}
	rng := t.rng(rs)
	batches := t.data.batches(rng, batchSeries, 0, true)
	mem := memoryClients(st)
	for n := 0; t.rt.Now() < t.w.end; n++ {
		b := batches[n%len(batches)]
		cycle, t0 := rs.log.id(), t.rt.Now()
		t.forecastOnce(rs, gwc, b, cycle, int64(n))
		first := rng.Intn(batchSeries)
		for _, k := range []int{first, (first + 1 + rng.Intn(batchSeries-1)) % batchSeries} {
			t.storeNext(rs, mem, b.idx[k], cycle, int64(n))
		}
		rs.log.add(cycle, "client/forecast_cycle", 0, int64(n), t0, t.rt.Now())
	}
}

func memoryClients(st proto.Port) []*memory.Client {
	out := make([]*memory.Client, memServers)
	for m := range out {
		out[m] = memory.NewClient(st, memHost(m))
	}
	return out
}

// storeNext appends the next generated sample of series i to its primary,
// the way a sensor does.
func (t *tcpRun) storeNext(rs *roleStats, mem []*memory.Client, i int, parent, request int64) {
	t0 := t.rt.Now()
	err := mem[i%memServers].Store(t.data.names[i], t.data.sample(i, rs.stored[i]))
	t1 := t.rt.Now()
	if err == nil {
		rs.stored[i]++
	}
	rs.store.record(t.w, t0, t1, err == nil, 1)
	rs.log.add(rs.log.id(), "client/store", parent, request, t0, t1)
}

// storeLoop: the sensor path, one sample per Store, round-robin over the
// series, each primary fanning out to its replica.
func (t *tcpRun) storeLoop(rs *roleStats) {
	st, err := t.stack.open(fmt.Sprintf("client%d", rs.client))
	if err != nil {
		rs.err = err
		return
	}
	mem := memoryClients(st)
	for n := 0; t.rt.Now() < t.w.end; n++ {
		t.storeNext(rs, mem, n%len(t.data.names), 0, int64(n))
	}
}

// mixedReadLoop alternates FetchMany and ForecastMany over a working set
// far below the forecast cache's cap, beside the writer.
func (t *tcpRun) mixedReadLoop(rs *roleStats) {
	_, gwc, err := t.client(rs)
	if err != nil {
		rs.err = err
		return
	}
	rng := t.rng(rs)
	fetches := t.data.batches(rng, batchSeries, t.fetchCount, false)
	forecasts := t.data.batches(rng, batchSeries, 0, false)
	for n := 0; t.rt.Now() < t.w.end; n++ {
		if n%2 == 0 {
			t.fetchOnce(rs, gwc, fetches[n/2%len(fetches)], int64(n))
		} else {
			t.forecastOnce(rs, gwc, forecasts[n/2%len(forecasts)], 0, int64(n))
		}
	}
}

// runTCP runs one pass of a TCP workload: set-up (repeated, the last
// stack kept), warm-up, the measured closed loops, then the output checks
// and, on the traced pass, the per-layer harvest and probes.
func runTCP(name string, p params) (*result, error) {
	wl := tcpWorkloads[name]
	seed, seconds, traced := p.seed, p.seconds, p.traced
	r := newResult(name, traced)
	data := newSeriesSet(seed, wl.cfg.series)

	var stack *tcpStack
	var setups []float64
	for i := 0; i < p.setups; i++ {
		if stack != nil {
			stack.close()
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		if stack, err = newTCPStack(wl.cfg, data, traced); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer stack.close()
	r.set("setup_s", median(setups))

	t := &tcpRun{name: name, seed: seed, fetchCount: wl.fetchCount, stack: stack, data: data, rt: stack.tr.Runtime()}
	loops := wl.roles(t)
	roles := make([]*roleStats, len(loops))
	now := t.rt.Now()
	t.w = window{start: now + tcpWarmup, end: now + tcpWarmup + time.Duration(seconds*float64(time.Second))}

	var wg sync.WaitGroup
	for k, loop := range loops {
		rs := &roleStats{client: k, stored: make([]int, wl.cfg.series)}
		for i := range rs.stored {
			rs.stored[i] = wl.cfg.history
		}
		if traced {
			rs.log = newSpanLog(k)
		}
		roles[k] = rs
		wg.Add(1)
		go func() {
			defer wg.Done()
			loop(rs)
		}()
	}
	time.Sleep(t.w.start - t.rt.Now())
	before, counters := readRuntime(), readCounters(stack.reg)
	time.Sleep(t.w.end - t.rt.Now())
	after := readRuntime()
	for k, v := range readCounters(stack.reg) {
		counters[k] = v - counters[k]
	}
	wg.Wait()

	var all roleStats
	for _, rs := range roles {
		if rs.err != nil {
			return nil, fmt.Errorf("%s: client %d: %w", name, rs.client, rs.err)
		}
		all.fetch.merge(&rs.fetch)
		all.forecast.merge(&rs.forecast)
		all.store.merge(&rs.store)
		if rs.log != nil {
			r.spans = append(r.spans, rs.log.spans...)
		}
	}
	t.report(r, &all, seconds, before, after)
	t.checkOutputs(r, roles[0].stored) // the writer, when there is one, is role 0
	if traced {
		if err := t.harvest(r, counters, p.refRate); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
	}
	return r, nil
}

// report turns the merged client statistics into metrics.
func (t *tcpRun) report(r *result, all *roleStats, seconds float64, before, after runtimeSample) {
	ops := 0
	for _, kind := range []struct {
		name string
		o    *opStats
	}{{"fetch", &all.fetch}, {"forecast", &all.forecast}, {"store", &all.store}} {
		if kind.o.attempted == 0 {
			continue
		}
		r.Attempted += kind.o.attempted
		r.Failed += kind.o.failed
		ops += kind.o.attempted
		ms := millis(kind.o.lat)
		r.set("client."+kind.name+"_qps", float64(kind.o.items)/seconds)
		r.set("client."+kind.name+"_p50_ms", quantile(ms, 0.50))
		r.set("client."+kind.name+"_p90_ms", quantile(ms, 0.90))
		r.set("client."+kind.name+"_p99_ms", quantile(ms, 0.99))
	}
	r.set("client.samples", float64(len(all.fetch.lat)+len(all.forecast.lat)+len(all.store.lat)))
	after.since(before).report(r, ops)

	// The workload's headline pair: what it exists to answer, and how long
	// its reader waits.
	rate, lat := "fetch", "fetch"
	switch t.name {
	case "tcp_forecast":
		rate, lat = "forecast", "forecast"
	case "tcp_ingest_mix":
		rate = "store"
	}
	r.set("work_per_s", r.Values["client."+rate+"_qps"])
	r.set("latency_p50_ms", r.Values["client."+lat+"_p50_ms"])
	r.set("latency_p90_ms", r.Values["client."+lat+"_p90_ms"])
}

// checkOutputs runs the after-load output checks.
func (t *tcpRun) checkOutputs(r *result, stored []int) {
	r.check("answers", r.Failed == 0, "%d of %d operations failed or answered wrongly", r.Failed, r.Attempted)
	st, err := t.stack.open("checker")
	if err != nil {
		r.check("checker", false, "%v", err)
		return
	}
	switch t.name {
	case "tcp_forecast":
		t.checkForecasts(r, st, stored)
	case "tcp_ingest_mix":
		t.checkStores(r, st, stored)
	}
}

// checkForecasts asks a fresh gateway client for 64 seeded series —
// preferring ones the load stored to, whose forecasts must have moved —
// and compares each answer bit for bit with predict.Run over the window
// read back from the series' primary. The explicit history length keeps
// the gateway's TTL'd forecast cache (keyed by series and count) out of
// the comparison.
func (t *tcpRun) checkForecasts(r *result, st *proto.Station, stored []int) {
	const want = 64
	rng := rand.New(rand.NewSource(t.seed ^ 0x5eed))
	var picks []int
	for _, i := range rng.Perm(len(stored)) {
		if stored[i] > t.stack.cfg.history {
			picks = append(picks, i)
		}
	}
	for _, i := range rng.Perm(len(stored)) {
		if len(picks) >= want {
			break
		}
		if stored[i] == t.stack.cfg.history {
			picks = append(picks, i)
		}
	}
	picks = picks[:want]
	reqs := make([]proto.SeriesRequest, want)
	for k, i := range picks {
		reqs[k] = proto.SeriesRequest{Series: t.data.names[i], Count: t.stack.cfg.history}
	}
	gwc, err := gateway.Connect(st, nsHost)
	if err != nil {
		r.check("forecast_matches_predict_run", false, "connect: %v", err)
		return
	}
	res, err := gwc.ForecastMany(reqs)
	if err != nil {
		r.check("forecast_matches_predict_run", false, "forecast: %v", err)
		return
	}
	mem := memoryClients(st)
	for k, i := range picks {
		samples, err := mem[i%memServers].Fetch(t.data.names[i], t.stack.cfg.history)
		if err != nil {
			r.check("forecast_matches_predict_run", false, "fetch %s: %v", t.data.names[i], err)
			return
		}
		if n, ok := t.data.stored(i, samples[len(samples)-1]); !ok || n != stored[i]-1 {
			r.check("forecast_matches_predict_run", false, "%s: newest sample is #%d, stored #%d", t.data.names[i], n, stored[i]-1)
			return
		}
		values := make([]float64, len(samples))
		for j, sm := range samples {
			values[j] = sm.Value
		}
		want, _ := predict.Run(values)
		got := res[k].Prediction
		same := res[k].Err == nil && got.Method == want.Method && got.N == len(samples) &&
			math.Float64bits(got.Value) == math.Float64bits(want.Value) &&
			math.Float64bits(got.MAE) == math.Float64bits(want.MAE) &&
			math.Float64bits(got.MSE) == math.Float64bits(want.MSE)
		if !same {
			r.check("forecast_matches_predict_run", false, "%s: gateway answered %+v (err %v), predict.Run gives %+v",
				t.data.names[i], got, res[k].Err, want)
			return
		}
	}
	r.check("forecast_matches_predict_run", true, "")
}

// checkStores reads every series' retained window back from its primary
// after the load has stopped: it must be exactly the newest samples the
// writer had acknowledged.
func (t *tcpRun) checkStores(r *result, st *proto.Station, stored []int) {
	mem := memoryClients(st)
	for i, name := range t.data.names {
		got, err := mem[i%memServers].Fetch(name, 0)
		if err != nil {
			r.check("acknowledged_stores_readable", false, "fetch %s: %v", name, err)
			return
		}
		want := t.data.window(i, stored[i]-memory.DefaultRetention, stored[i])
		if len(got) != len(want) {
			r.check("acknowledged_stores_readable", false, "%s: %d samples retained, want %d", name, len(got), len(want))
			return
		}
		for j := range want {
			if got[j] != want[j] {
				r.check("acknowledged_stores_readable", false, "%s: sample %d is %+v, want %+v", name, j, got[j], want[j])
				return
			}
		}
	}
	r.check("acknowledged_stores_readable", true, "")
}
