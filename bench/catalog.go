package main

// The catalogue: every workload and metric the benchmark reports.
// BENCHMARK.json at the repository root is this catalogue in the
// driver's format (bench_test.go keeps the two equal) and README.md
// explains it.
//
// Three clocks, never mixed. A metric reads exactly one:
//   - host time on loopback sockets: every metric of a tcp_* workload
//     that does not say otherwise;
//   - virtual time on the simulator: names with _v_ and units starting
//     v_; deterministic, must repeat exactly for a fixed seed;
//   - host time spent simulating: names with _wall_, and the end-to-end
//     metrics of the sim_* workloads.

// workloadDef is one workload and why it is here.
type workloadDef struct {
	Name string
	Why  string
}

var workloads = []workloadDef{
	{"tcp_fetch", "read fast path: 2 closed-loop clients FetchMany 20x8 of 2000 series through the gateway on loopback TCP; codec, station, transport, warm query caches, memory lastN work; predictor idle"},
	{"tcp_forecast", "cold forecast path: 1 client ForecastMany 20 over 8192 series (above the forecast cache cap, so each forecast replays 256 samples) plus fresh stores; predict.Run and window fetch dominate"},
	{"tcp_ingest_mix", "writes beside reads, hot caches: 1 writer storing single samples to k=1 replicated memory servers at retention, 1 reader alternating FetchMany 20x64 and cache-hit ForecastMany"},
	{"sim_storm", "query edge in virtual time: open-loop storms below and above the admission capacity of 2 gateways on a 100-host simulated grid; moves with vclock, simnet, SimTransport, admission; not with TCP"},
	{"sim_lifecycle", "the paper's pipeline: map, plan, apply, monitor, two memory-primary crashes and reconcile repairs with k=1 replication on a 48-host simulated grid; the query plane is a rounding error here"},
}

// metricDef is one reported metric.
type metricDef struct {
	Name   string
	Unit   string
	Better string   // higher | lower
	Bound  float64  // end-to-end only: share of the parent's median it may worsen by
	On     []string // workloads that measure it (nil: all); elsewhere it reads 0
	Doc    string
}

var (
	allTCP = []string{"tcp_fetch", "tcp_forecast", "tcp_ingest_mix"}
	allSim = []string{"sim_storm", "sim_lifecycle"}
)

// endToEnd are the metrics a user of the system sees, measured with
// tracing off, on host time. Every workload reports every one; the
// workload says what the work item and the timed operation are (README).
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25,
		Doc: "stack build + preload up to the start of warm-up (sim_lifecycle: topology, Map, Plan, Apply); median of the run's set-ups"},
	{Name: "work_per_s", Unit: "1/s", Better: "higher", Bound: 0.25,
		Doc: "correct work items per host second: series (tcp_fetch), forecasts (tcp_forecast), acknowledged stores (tcp_ingest_mix), answered series of both storm phases (sim_storm), simulated virtual seconds (sim_lifecycle)"},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25,
		Doc: "median host time of the workload's operation: FetchMany batch (tcp_fetch; the reader's on tcp_ingest_mix), ForecastMany batch (tcp_forecast), one storm repetition (sim_storm), one whole scenario (sim_lifecycle)"},
	{Name: "latency_p90_ms", Unit: "ms", Better: "lower", Bound: 0.25,
		Doc: "p90 (nearest rank) of the same operation; client.samples says over how many"},
}

// perLayer are the traced pass's metrics, one module each.
var perLayer = []metricDef{
	{Name: "proto.codec.encode_req20_ns", Unit: "ns", Better: "lower", On: allTCP, Doc: "AppendEncode of a 20-series gateway request"},
	{Name: "proto.codec.decode_reply20x8_ns", Unit: "ns", Better: "lower", On: allTCP, Doc: "Decode of a 20-series reply, 8 samples each"},
	{Name: "proto.codec.decode_reply20x256_ns", Unit: "ns", Better: "lower", On: allTCP, Doc: "Decode of a 20-series reply, 256 samples each"},
	{Name: "proto.codec.reply20x8_bytes", Unit: "B", Better: "lower", On: allTCP, Doc: "EncodedSize of the 20x8 reply"},
	{Name: "proto.codec.reply20x256_bytes", Unit: "B", Better: "lower", On: allTCP, Doc: "EncodedSize of the 20x256 reply"},
	{Name: "proto.codec.allocs_per_msg", Unit: "count", Better: "lower", On: allTCP, Doc: "heap allocations to encode and decode the 20x8 reply"},
	{Name: "proto.station.call_rtt_us", Unit: "us", Better: "lower", On: allTCP, Doc: "Station.Call MsgPing to MsgPong against an idle server, median"},
	{Name: "proto.tcptransport.dial_us", Unit: "us", Better: "lower", On: allTCP, Doc: "first Send to a host not yet dialed, median"},
	{Name: "proto.tcptransport.bytes_per_batch", Unit: "B", Better: "lower", On: allTCP, Doc: "proto/bytes_out of every host over the window per client operation"},
	{Name: "proto.simtransport.call_wall_ns", Unit: "ns", Better: "lower", On: allSim, Doc: "host time per simulated Station.Call"},
	{Name: "nameserver.register_us", Unit: "us", Better: "lower", On: allTCP, Doc: "Register into a directory of the workload's size"},
	{Name: "nameserver.lookup_name_us", Unit: "us", Better: "lower", On: allTCP, Doc: "LookupName in that directory"},
	{Name: "nameserver.lookup_kind_us", Unit: "us", Better: "lower", On: allTCP, Doc: "LookupKind listing every series of that directory"},
	{Name: "memory.store1_us", Unit: "us", Better: "lower", On: allTCP, Doc: "Store of one sample to a window at retention"},
	{Name: "memory.fetch1_us", Unit: "us", Better: "lower", On: allTCP, Doc: "Fetch of one series, 8 samples"},
	{Name: "memory.batchfetch20x8_us", Unit: "us", Better: "lower", On: allTCP, Doc: "BatchFetch of 20 series, 8 samples each"},
	{Name: "memory.batchfetch20x256_us", Unit: "us", Better: "lower", On: allTCP, Doc: "BatchFetch of 20 series, 256 samples each"},
	{Name: "replica.writes_per_store", Unit: "ratio", Better: "higher", On: []string{"tcp_ingest_mix"}, Doc: "replica/writes_total per acknowledged store (k=1: want 1.0)"},
	{Name: "replica.fanout_drops", Unit: "count", Better: "lower", On: []string{"tcp_ingest_mix"}, Doc: "fan-out messages dropped on a full replica queue"},
	{Name: "replica.lag_p95", Unit: "count", Better: "lower", On: []string{"tcp_ingest_mix"}, Doc: "p95 of the replicas' apply-lag watermark, in samples"},
	{Name: "predict.run256_us", Unit: "us", Better: "lower", On: allTCP, Doc: "predict.Run over a 256-sample window"},
	{Name: "predict.run256_allocs", Unit: "count", Better: "lower", On: allTCP, Doc: "heap allocations of that call"},
	{Name: "predict.update_ns", Unit: "ns", Better: "lower", On: allTCP, Doc: "Battery.Update of one sample"},
	{Name: "forecast.batch20_ms", Unit: "ms", Better: "lower", On: []string{"tcp_forecast"}, Doc: "forecast.Client.BatchForecast of 20 series asked of the forecaster directly"},
	{Name: "query.fetchmany_cold_us", Unit: "us", Better: "lower", On: allTCP, Doc: "FetchMany on a fresh query.Client, discovery included"},
	{Name: "query.fetchmany_warm_us", Unit: "us", Better: "lower", On: allTCP, Doc: "FetchMany on a warm query.Client, one caller, idle stack"},
	{Name: "query.lookup_hit_ratio", Unit: "ratio", Better: "higher", On: allTCP, Doc: "discovery-cache hits per resolution over the window"},
	{Name: "query.forecast_hit_ratio", Unit: "ratio", Better: "higher", On: allTCP, Doc: "forecast-cache hits per forecast over the window"},
	{Name: "query.batch_calls_per_req", Unit: "ratio", Better: "lower", On: allTCP, Doc: "backend round trips per admitted gateway request"},
	{Name: "gateway.hop_us", Unit: "us", Better: "lower", On: allTCP, Doc: "gateway.Client.FetchMany median minus query.fetchmany_warm_us"},
	{Name: "gateway.fetch_span_us", Unit: "us", Better: "lower", On: []string{"tcp_fetch", "tcp_ingest_mix"}, Doc: "median gateway/fetch span over the window"},
	{Name: "gateway.admission_queued", Unit: "count", Better: "lower", On: []string{"tcp_fetch", "tcp_forecast", "tcp_ingest_mix", "sim_storm"}, Doc: "requests that waited for an admission token"},
	{Name: "gateway.shed_total", Unit: "count", Better: "lower", On: []string{"tcp_fetch", "tcp_forecast", "tcp_ingest_mix", "sim_storm"}, Doc: "requests answered overloaded"},
	{Name: "gateway.queue_depth_max", Unit: "count", Better: "lower", On: []string{"tcp_fetch", "tcp_forecast", "tcp_ingest_mix", "sim_storm"}, Doc: "most requests ever waiting at once"},
	{Name: "gateway.storm_v_qps", Unit: "1/v_s", Better: "higher", On: []string{"sim_storm"}, Doc: "answered series per virtual second in the overload phase: capacity"},
	{Name: "gateway.storm_v_p50_ms", Unit: "v_ms", Better: "lower", On: []string{"sim_storm"}, Doc: "batch latency from due time, phase below capacity, median"},
	{Name: "gateway.storm_v_p99_ms", Unit: "v_ms", Better: "lower", On: []string{"sim_storm"}, Doc: "the same, p99 of 2000 batches"},
	{Name: "gateway.storm_v_shed_share", Unit: "ratio", Better: "lower", On: []string{"sim_storm"}, Doc: "batches refused on every replica in the overload phase (expected, typed backpressure)"},
	{Name: "gateway.storm_v_lateness_ms", Unit: "v_ms", Better: "lower", On: []string{"sim_storm"}, Doc: "worst start of a batch after its due time (0 by construction)"},
	{Name: "vclock.event_ns", Unit: "ns", Better: "lower", On: allSim, Doc: "host time per scheduled and executed event"},
	{Name: "vclock.chan_rtt_ns", Unit: "ns", Better: "lower", On: allSim, Doc: "host time per virtual-channel round trip between two processes"},
	{Name: "simnet.transfer_wall_ns", Unit: "ns", Better: "lower", On: allSim, Doc: "host time per simulated 10 kB transfer across sites"},
	{Name: "simnet.route_cache_hit_ratio", Unit: "ratio", Better: "higher", On: allSim, Doc: "route-cache hits per route lookup in the workload"},
	{Name: "simnet.flow_settles_per_transfer", Unit: "ratio", Better: "lower", On: allSim, Doc: "fair-share settle operations per completed transfer in the workload"},
	{Name: "env.map_wall_s", Unit: "s", Better: "lower", On: []string{"sim_lifecycle"}, Doc: "host time of Pipeline.Map"},
	{Name: "env.map_v_s", Unit: "v_s", Better: "lower", On: []string{"sim_lifecycle"}, Doc: "virtual duration of the ENV mapping: the paper's mapping cost"},
	{Name: "env.probe_count", Unit: "count", Better: "lower", On: []string{"sim_lifecycle"}, Doc: "bandwidth experiments the mapping ran"},
	{Name: "env.probe_bytes", Unit: "B", Better: "lower", On: []string{"sim_lifecycle"}, Doc: "traffic the mapping injected"},
	{Name: "deploy.plan_wall_ms", Unit: "ms", Better: "lower", On: []string{"sim_lifecycle"}, Doc: "host time of Pipeline.Plan, validation included"},
	{Name: "deploy.apply_wall_s", Unit: "s", Better: "lower", On: []string{"sim_lifecycle"}, Doc: "host time of Pipeline.Apply"},
	{Name: "deploy.cliques", Unit: "count", Better: "lower", On: []string{"sim_lifecycle"}, Doc: "cliques planned"},
	{Name: "deploy.max_clique_size", Unit: "count", Better: "lower", On: []string{"sim_lifecycle"}, Doc: "largest clique planned"},
	{Name: "deploy.applydelta_noop_us", Unit: "us", Better: "lower", On: []string{"sim_lifecycle"}, Doc: "host time of ApplyDelta to the plan already running"},
	{Name: "reconcile.steady_step_wall_s", Unit: "s", Better: "lower", On: []string{"sim_lifecycle"}, Doc: "host time of a Reconciler.Step that finds no drift"},
	{Name: "reconcile.steady_step_v_s", Unit: "v_s", Better: "lower", On: []string{"sim_lifecycle"}, Doc: "virtual time of that round"},
	{Name: "reconcile.repair_step_wall_s", Unit: "s", Better: "lower", On: []string{"sim_lifecycle"}, Doc: "host time of a Reconciler.Step repairing a crashed memory primary"},
	{Name: "reconcile.redeploy_fraction", Unit: "ratio", Better: "lower", On: []string{"sim_lifecycle"}, Doc: "agents that repair restarted or started, per planned host"},
	{Name: "reconcile.repair_v_p95_s", Unit: "v_s", Better: "lower", On: []string{"sim_lifecycle"}, Doc: "p95 fault to repaired over the scenario (Recovery.P95TimeToRepair)"},
	{Name: "reconcile.rounds", Unit: "count", Better: "lower", On: []string{"sim_lifecycle"}, Doc: "reconcile rounds of the scenario"},
	{Name: "reconcile.repairs", Unit: "count", Better: "lower", On: []string{"sim_lifecycle"}, Doc: "rounds that repaired"},
	{Name: "telemetry.counter_inc_ns", Unit: "ns", Better: "lower", On: allTCP, Doc: "Counter.Inc"},
	{Name: "telemetry.span_ns", Unit: "ns", Better: "lower", On: allTCP, Doc: "StartSpan + End"},
	{Name: "telemetry.trace_overhead_pct", Unit: "%", Better: "lower", On: allTCP, Doc: "work_per_s lost with the registry wired, against the untraced reference"},
	{Name: "telemetry.spans_dropped", Unit: "count", Better: "lower", On: allTCP, Doc: "program spans past the registry's buffer (the ledger uses those it kept)"},
	{Name: "runtime.alloc_bytes_per_op", Unit: "B", Better: "lower", Doc: "heap bytes allocated by the whole process per client operation"},
	{Name: "runtime.allocs_per_op", Unit: "count", Better: "lower", Doc: "heap allocations per client operation"},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower", Doc: "stop-the-world pause total over the measured part"},
	{Name: "runtime.peak_rss_mb", Unit: "MB", Better: "lower", Doc: "resident-set high-water mark of the process"},
	{Name: "client.fetch_qps", Unit: "1/s", Better: "higher", On: []string{"tcp_fetch", "tcp_ingest_mix"}, Doc: "correctly answered series per second (traced)"},
	{Name: "client.fetch_p50_ms", Unit: "ms", Better: "lower", On: []string{"tcp_fetch", "tcp_ingest_mix"}, Doc: "FetchMany batch latency (traced)"},
	{Name: "client.fetch_p90_ms", Unit: "ms", Better: "lower", On: []string{"tcp_fetch", "tcp_ingest_mix"}},
	{Name: "client.fetch_p99_ms", Unit: "ms", Better: "lower", On: []string{"tcp_fetch", "tcp_ingest_mix"}, Doc: "reported, not gated: did not repeat within a tenth"},
	{Name: "client.forecast_qps", Unit: "1/s", Better: "higher", On: []string{"tcp_forecast", "tcp_ingest_mix"}, Doc: "correctly answered forecasts per second (traced)"},
	{Name: "client.forecast_p50_ms", Unit: "ms", Better: "lower", On: []string{"tcp_forecast", "tcp_ingest_mix"}, Doc: "ForecastMany batch latency (traced)"},
	{Name: "client.forecast_p90_ms", Unit: "ms", Better: "lower", On: []string{"tcp_forecast", "tcp_ingest_mix"}},
	{Name: "client.forecast_p99_ms", Unit: "ms", Better: "lower", On: []string{"tcp_forecast", "tcp_ingest_mix"}},
	{Name: "client.store_qps", Unit: "1/s", Better: "higher", On: []string{"tcp_forecast", "tcp_ingest_mix"}, Doc: "acknowledged stores per second (traced)"},
	{Name: "client.store_p50_ms", Unit: "ms", Better: "lower", On: []string{"tcp_forecast", "tcp_ingest_mix"}, Doc: "Store latency (traced)"},
	{Name: "client.store_p90_ms", Unit: "ms", Better: "lower", On: []string{"tcp_forecast", "tcp_ingest_mix"}},
	{Name: "client.store_p99_ms", Unit: "ms", Better: "lower", On: []string{"tcp_forecast", "tcp_ingest_mix"}},
	{Name: "client.samples", Unit: "count", Better: "higher", Doc: "latency samples behind the percentiles (sim_*: repetitions)"},
	{Name: "budget.fetch_layers_us", Unit: "us", Better: "lower", On: []string{"tcp_fetch"}, Doc: "sum of the layers' self times of a FetchMany batch"},
	{Name: "budget.fetch_residual_us", Unit: "us", Better: "lower", On: []string{"tcp_fetch"}, Doc: "client.fetch_p50_ms minus that sum: what no layer explains"},
	{Name: "budget.forecast_layers_us", Unit: "us", Better: "lower", On: []string{"tcp_forecast"}, Doc: "sum of the layers' self times of a ForecastMany batch"},
	{Name: "budget.forecast_residual_us", Unit: "us", Better: "lower", On: []string{"tcp_forecast"}, Doc: "client.forecast_p50_ms minus that sum"},
	{Name: "budget.forecast_predict_share", Unit: "ratio", Better: "lower", On: []string{"tcp_forecast"}, Doc: "predict's share of the batch median"},
}

// measuredOn reports whether workload w measures metric m.
func (m metricDef) measuredOn(w string) bool {
	if m.On == nil {
		return true
	}
	for _, on := range m.On {
		if on == w {
			return true
		}
	}
	return false
}
