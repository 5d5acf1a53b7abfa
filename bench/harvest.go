package main

import (
	"context"
	"fmt"
	"sort"
	"time"

	"nwsenv/internal/nws/forecast"
	"nwsenv/internal/nws/gateway"
	"nwsenv/internal/nws/proto"
	"nwsenv/internal/query"
	"nwsenv/internal/reconcile"
	"nwsenv/internal/scenlab"
	"nwsenv/internal/telemetry"
)

// windowCounters are the registry counters the TCP ledger reads as
// differences over the measured window.
var windowCounters = [][2]string{
	{"proto", "bytes_out"},
	{"query", "lookup_hits"}, {"query", "lookup_calls"},
	{"query", "forecast_hits"}, {"query", "forecast_calls"}, {"query", "batch_calls"},
	{"gateway", "requests"}, {"gateway", "admission_queued"}, {"gateway", "shed_total"},
	{"replica", "writes_total"}, {"replica", "fanout_drops"},
}

// readCounters samples windowCounters (nil registry: nil map).
func readCounters(reg *telemetry.Registry) map[string]float64 {
	if reg == nil {
		return nil
	}
	out := make(map[string]float64, len(windowCounters))
	for _, k := range windowCounters {
		out[k[0]+"/"+k[1]] = float64(reg.Counter(k[0], k[1], nil).Value())
	}
	return out
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// budgetRow is one layer's share of a batch's median latency, in µs.
type budgetRow struct {
	Layer string  `json:"layer"`
	What  string  `json:"what"`
	US    float64 `json:"us"`
}

// budgetTable states a workload's end-to-end median as the sum of its
// layers' self times plus the residual nobody accounts for.
type budgetTable struct {
	Workload   string      `json:"workload"`
	Metric     string      `json:"metric"`
	E2EUS      float64     `json:"e2e_p50_us"`
	Rows       []budgetRow `json:"rows"`
	SumUS      float64     `json:"layers_sum_us"`
	ResidualUS float64     `json:"residual_us"`
	// Spans are the medians of the program's own spans under the load:
	// where in the stack the residual sits.
	Spans []budgetRow `json:"spans_under_load"`
}

func newBudget(workload, metric string, e2eUS float64, rows []budgetRow, spans spanStats) budgetTable {
	b := budgetTable{Workload: workload, Metric: metric, E2EUS: e2eUS, Rows: rows}
	for _, name := range []string{"gateway/fetch", "gateway/forecast", "query/forecast_many", "query/fetch_many", "query/backend"} {
		if len(spans.dur[name]) > 0 {
			b.Spans = append(b.Spans, budgetRow{Layer: name, What: fmt.Sprintf("median of %d spans", len(spans.dur[name])), US: spans.p50(name)})
		}
	}
	for _, row := range rows {
		b.SumUS += row.US
	}
	b.ResidualUS = e2eUS - b.SumUS
	return b
}

// harvest fills the per-layer ledger of a traced TCP pass: registry
// counters and spans of the window, probes of each layer, and the budget.
func (t *tcpRun) harvest(r *result, counters map[string]float64, refRate float64) error {
	reg := t.stack.reg
	ops := float64(r.Attempted)
	r.set("proto.tcptransport.bytes_per_batch", ratio(counters["proto/bytes_out"], ops))
	r.set("query.lookup_hit_ratio", ratio(counters["query/lookup_hits"], counters["query/lookup_hits"]+counters["query/lookup_calls"]))
	r.set("query.forecast_hit_ratio", ratio(counters["query/forecast_hits"], counters["query/forecast_hits"]+counters["query/forecast_calls"]))
	r.set("query.batch_calls_per_req", ratio(counters["query/batch_calls"], counters["gateway/requests"]))
	r.set("gateway.admission_queued", counters["gateway/admission_queued"])
	r.set("gateway.shed_total", counters["gateway/shed_total"])
	if t.stack.cfg.replicas {
		r.set("replica.writes_per_store", ratio(counters["replica/writes_total"], r.Values["client.store_qps"]*(t.w.end-t.w.start).Seconds()))
		r.set("replica.fanout_drops", counters["replica/fanout_drops"])
	}
	if refRate > 0 {
		r.set("telemetry.trace_overhead_pct", (refRate-r.Values["work_per_s"])/refRate*100)
	}

	r.spans = append(r.spans, programSpans(reg)...)
	spans := summarize(r.spans, t.w.start, t.w.end)
	if len(spans.dur["gateway/fetch"]) > 0 {
		r.set("gateway.fetch_span_us", spans.p50("gateway/fetch"))
	}

	snap := reg.Snapshot()
	flat := snap.Flatten()
	r.set("gateway.queue_depth_max", flat["gateway/queue_depth:max"])
	if t.stack.cfg.replicas {
		r.set("replica.lag_p95", flat["replica/lag:p95"])
	}
	r.set("telemetry.spans_dropped", float64(snap.Dropped))

	probeCodec(r, t.data)
	probePredict(r, t.data)
	probeTelemetry(r)
	if err := probeWire(r); err != nil {
		return fmt.Errorf("wire probe: %w", err)
	}
	if err := probeNameserver(r, t.stack.cfg.series); err != nil {
		return fmt.Errorf("nameserver probe: %w", err)
	}
	if err := probeMemory(r, t.data); err != nil {
		return fmt.Errorf("memory probe: %w", err)
	}
	if err := t.probeStack(r); err != nil {
		return fmt.Errorf("stack probe: %w", err)
	}
	switch t.name {
	case "tcp_fetch":
		t.fetchBudget(r, spans)
	case "tcp_forecast":
		t.forecastBudget(r, spans)
	}
	return nil
}

// probeStack times the query plane on the workload's own, now idle,
// stack with one caller: a fresh query.Client including its discovery, a
// warm one, the same request through the gateway, and the forecaster
// asked directly.
func (t *tcpRun) probeStack(r *result) error {
	b := t.data.batches(t.rng(&roleStats{client: 99}), batchSeries, t.fetchCount, false)[0]
	var opErr error
	check := func(res []query.Result) {
		for _, x := range res {
			if x.Err != nil || len(x.Samples) != t.fetchCount {
				opErr = fmt.Errorf("%s: %d samples, err=%v", x.Series, len(x.Samples), x.Err)
			}
		}
	}
	var cold []float64
	for i := 0; i < 10; i++ {
		st, err := t.stack.open(fmt.Sprintf("cold%d", i))
		if err != nil {
			return err
		}
		t0 := time.Now()
		check(query.New(st, nsHost).FetchMany(b.reqs))
		cold = append(cold, micros(time.Since(t0)))
	}
	st, err := t.stack.open("warm")
	if err != nil {
		return err
	}
	qc := query.New(st, nsHost)
	gwc, err := gateway.Connect(st, nsHost)
	if err != nil {
		return err
	}
	// Direct and through the gateway alternate, so that drift in the
	// process (heap size, GC phase) lands on both sides of gateway.hop_us.
	var warm, via []float64
	for i := 0; i < 500; i++ {
		t0 := time.Now()
		check(qc.FetchMany(b.reqs))
		t1 := time.Now()
		res, err := gwc.FetchMany(b.reqs)
		t2 := time.Now()
		if err != nil {
			return err
		}
		check(res)
		warm, via = append(warm, micros(t1.Sub(t0))), append(via, micros(t2.Sub(t1)))
	}
	sort.Float64s(warm)
	sort.Float64s(via)
	r.set("query.fetchmany_cold_us", median(cold))
	r.set("query.fetchmany_warm_us", quantile(warm, 0.5))
	r.set("gateway.hop_us", quantile(via, 0.5)-quantile(warm, 0.5))

	if t.name == "tcp_forecast" {
		fc := forecast.NewClient(st, fcHost)
		reqs := t.data.batches(nil, batchSeries, 0, true)[0].reqs
		direct := eachOp(30, func() {
			res, err := fc.BatchForecast(reqs)
			if err != nil || len(res) != len(reqs) || res[0].Error != "" {
				opErr = fmt.Errorf("batch forecast: %d results, err=%v", len(res), err)
			}
		})
		r.set("forecast.batch20_ms", quantile(direct, 0.5)/1e3)
	}
	return opErr
}

// encDec is the codec's host µs to encode and decode m once.
func encDec(m proto.Message) float64 {
	enc, dec := codecCost(m)
	return (enc + dec) / 1e3
}

// shareOf is a request or reply for one memory server's share of a
// 20-series batch.
func shareOf(m proto.Message) proto.Message {
	m.Queries = m.Queries[:min(len(m.Queries), batchSeries/memServers)]
	m.Results = m.Results[:min(len(m.Results), batchSeries/memServers)]
	return m
}

// fetchBudget decomposes the traced tcp_fetch median. A FetchMany blocks
// on two nested round trips (client↔gateway, gateway↔memory, the four
// memory calls in parallel); each layer's share is measured on its own,
// so what the layers do not explain is left over as the residual:
// queueing and scheduling with two clients on two CPUs.
func (t *tcpRun) fetchBudget(r *result, spans spanStats) {
	v := r.Values
	req, reply := requestMessage(t.data, t.fetchCount), replyMessage(t.data, t.fetchCount)
	whole := encDec(req) + encDec(reply)
	rows := []budgetRow{
		{"proto.station", "2 nested request/reply hops at ping size (station + tcptransport)", 2 * v["proto.station.call_rtt_us"]},
		{"proto.codec", "encode+decode of the 20-series request and reply and of one memory server's share", whole + encDec(shareOf(req)) + encDec(shareOf(reply))},
		{"memory", "BatchFetch 20x8 round trip beyond a ping and its codec work", max(0, v["memory.batchfetch20x8_us"]-v["proto.station.call_rtt_us"]-whole)},
		{"query", "query/fetch_many span minus its backend children", spans.selfP50("query/fetch_many")},
		{"gateway", "gateway/fetch span minus the query/fetch_many span inside it", max(0, spans.p50("gateway/fetch")-spans.p50("query/fetch_many"))},
	}
	b := newBudget(t.name, "client.fetch_p50_ms", v["client.fetch_p50_ms"]*1e3, rows, spans)
	r.budget = append(r.budget, b)
	r.set("budget.fetch_layers_us", b.SumUS)
	r.set("budget.fetch_residual_us", b.ResidualUS)
}

// forecastBudget decomposes the traced tcp_forecast median: three nested
// hops (client↔gateway↔forecaster↔memory), the 256-sample windows through
// the codec, and the battery replayed over each of the 20 windows.
func (t *tcpRun) forecastBudget(r *result, spans spanStats) {
	v := r.Values
	req, windows := encDec(requestMessage(t.data, 0)), encDec(replyMessage(t.data, 256))
	predictUS := batchSeries * v["predict.run256_us"]
	rows := []budgetRow{
		{"proto.station", "3 nested request/reply hops at ping size (station + tcptransport)", 3 * v["proto.station.call_rtt_us"]},
		{"proto.codec", "request on 3 hops; the four 5x256 window replies, two at a time on two CPUs", 3*req + windows/2},
		{"memory", "BatchFetch 20x256 round trip beyond a ping and its codec work", max(0, v["memory.batchfetch20x256_us"]-v["proto.station.call_rtt_us"]-req-windows)},
		{"predict", "predict.Run over 20 windows of 256 samples", predictUS},
		{"query", "query/forecast_many (gateway) and query/fetch_many (forecaster) spans minus their backend children", spans.selfP50("query/forecast_many") + spans.selfP50("query/fetch_many")},
		{"gateway", "gateway/forecast span minus the query/forecast_many span inside it", max(0, spans.p50("gateway/forecast")-spans.p50("query/forecast_many"))},
	}
	b := newBudget(t.name, "client.forecast_p50_ms", v["client.forecast_p50_ms"]*1e3, rows, spans)
	r.budget = append(r.budget, b)
	r.set("budget.forecast_layers_us", b.SumUS)
	r.set("budget.forecast_residual_us", b.ResidualUS)
	r.set("budget.forecast_predict_share", ratio(predictUS, b.E2EUS))
}

// harvestStorm fills the storm's per-layer ledger from the last
// repetition's registry and the simulator probes.
func harvestStorm(r *result, o *stormOutcome) error {
	flat := o.stack.reg.Snapshot().Flatten()
	r.set("gateway.admission_queued", flat["gateway/admission_queued"])
	r.set("gateway.shed_total", flat["gateway/shed_total"])
	r.set("gateway.queue_depth_max", flat["gateway/queue_depth:max"])
	r.set("simnet.route_cache_hit_ratio", flat["simnet/route_cache_hit_rate"])
	r.set("simnet.flow_settles_per_transfer", ratio(flat["simnet/flow_settles"], flat["simnet/transfers"]))
	return probeSimulator(r)
}

// harvestLifecycle fills the lifecycle's per-layer ledger: the staged
// deployment's host and virtual times, then one quiet and one repairing
// reconcile round driven on it directly.
func harvestLifecycle(r *result, spec *scenlab.Spec, res *scenlab.Result, s *staged) error {
	r.set("simnet.route_cache_hit_ratio", res.Metrics["simnet/route_cache_hit_rate"])
	r.set("simnet.flow_settles_per_transfer", ratio(res.Metrics["simnet/flow_settles"], res.Metrics["simnet/transfers"]))
	r.set("env.map_wall_s", s.wall["map"].Seconds())
	r.set("env.probe_count", float64(s.mapping.Merged.Stats.Probes))
	r.set("env.probe_bytes", float64(s.mapping.Merged.Stats.ProbeBytes))
	r.set("deploy.plan_wall_ms", s.wall["plan"].Seconds()*1e3)
	r.set("deploy.apply_wall_s", s.wall["apply"].Seconds())
	r.set("deploy.cliques", float64(len(s.plan.Plan.Cliques)))
	r.set("deploy.max_clique_size", float64(s.plan.Validation.MaxCliqueSize))

	ctx := context.Background()
	if err := s.stage("applydelta_noop", func() error {
		_, err := s.dep.ApplyDelta(ctx, s.dep.Plan, s.dep.Resolve)
		return err
	}); err != nil {
		return err
	}
	r.set("deploy.applydelta_noop_us", micros(s.wall["applydelta_noop"]))

	rec := reconcile.New(s.pl, s.dep, reconcile.Config{Runs: s.runs, Interval: spec.ReconcileEvery()})
	var round reconcile.Round
	step := func() error { round = rec.Step(ctx); return round.Err }
	if err := s.stage("steady_step", step); err != nil {
		return err
	}
	if round.Drifted() {
		return fmt.Errorf("steady reconcile round drifted: %s", round.Diff)
	}
	r.set("reconcile.steady_step_wall_s", s.wall["steady_step"].Seconds())
	r.set("reconcile.steady_step_v_s", s.virt["steady_step"].Seconds())

	victims, _ := scenlab.PlanVictimsFor(spec.Fault, s.dep.Plan, s.dep.Resolve, s.tp)
	if len(victims) == 0 {
		return fmt.Errorf("no fault victim in the plan")
	}
	hosts := len(s.dep.Plan.Hosts)
	s.net.CrashHost(victims[0])
	if err := s.stage("repair_step", step); err != nil {
		return err
	}
	if !round.Repaired() {
		return fmt.Errorf("reconcile round after crashing %s repaired nothing", victims[0])
	}
	r.set("reconcile.repair_step_wall_s", s.wall["repair_step"].Seconds())
	r.set("reconcile.redeploy_fraction", ratio(float64(round.Delta.Redeployed()), float64(hosts)))
	return probeSimulator(r)
}
