// Gateway-scaling benchmarks: the query edge under an open-loop storm,
// swept over 1→3 gateway replicas fronting the same serving stack.
//
// The driver injects a fixed-rate stream of batch fetches — one batch
// every gwStormEvery of virtual time for gwStormLength, regardless of
// completions, as an open-loop load generator — through one balanced
// gateway.Client over the full replica set. The injection rate is set
// well above a single gateway's admission capacity, so at gw=1 the
// storm queues and sheds while at gw=3 the replicas absorb it: the
// virtual-time throughput scales with the replica count while
// wall-clock ns/op (the simulator's own cost) barely moves. That is
// why the CI acceptance gate runs on the custom queries/s metric (a
// ratio row of bench-gates.json), not on ns/op.
//
// Reported per sweep point, all from the deterministic virtual clock:
//
//	queries/s  answered series per virtual second (throughput)
//	p50-ms, p95-ms, p99-ms  batch completion latency quantiles
//	shed-batches  batches answered CodeOverloaded on every replica
//
// and one host-side count, deterministic for a given build:
//
//	allocs-per-batch  heap objects allocated from the first injection to
//	                  the drain, per injected batch (the simulator's,
//	                  the servers' and the injector's together)
//
// CI regenerates BENCH_gateway.json and fails on ns/op regressions
// against the committed baseline; the machine-independent gates assert
// queries/s at gw=3 >= 2x gw=1 and ceilings on allocs/op and B/op.
package nwsenv

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"testing"
	"time"

	"nwsenv/internal/nws/gateway"
	"nwsenv/internal/nws/proto"
	"nwsenv/internal/query"
)

// gatewayHosts places the swept replicas on distinct switches of the
// 100-host grid, clear of the stack's own hosts (h0-0-*, h*-0-1).
var gatewayHosts = []string{"h0-1-0", "h1-1-0", "h0-2-0"}

const (
	// gwAdmitLimit/gwShedAt shrink each gateway's admission window so a
	// benchmark-sized storm saturates one replica without needing
	// thousands of in-flight processes.
	gwAdmitLimit = 4
	gwShedAt     = 16
	// gwBatchSeries is the series per injected batch.
	gwBatchSeries = 20
	// gwStormLength/gwStormEvery define the open-loop injection window:
	// one batch per interval, completions never pace the next send.
	gwStormLength = 20 * time.Second
	gwStormEvery  = 2 * time.Millisecond
)

// gwStormStats is one storm's outcome, measured in virtual time.
type gwStormStats struct {
	injected  int
	answered  int // batches fully answered
	shed      int // batches overloaded on every replica
	latencies []time.Duration
	elapsed   time.Duration // injection start -> last completion drained
	mallocs   uint64        // heap objects allocated over the same span
}

func (s *gwStormStats) quantile(q float64) time.Duration {
	if len(s.latencies) == 0 {
		return 0
	}
	i := int(q * float64(len(s.latencies)))
	if i >= len(s.latencies) {
		i = len(s.latencies) - 1
	}
	return s.latencies[i]
}

// runGatewayStorm builds a fresh 100-host stack with n gateway
// replicas, drives the open-loop storm, and returns its virtual-time
// stats. Deterministic: the same n always yields the same numbers.
func runGatewayStorm(b *testing.B, n int) gwStormStats {
	st := newQueryStack(b, 100, 4)
	for i := 0; i < n; i++ {
		h := gatewayHosts[i]
		ep, err := st.tr.Open(h)
		if err != nil {
			b.Fatal(err)
		}
		g := gateway.New(proto.NewStation(st.tr.Runtime(), ep), st.nsHost)
		g.SetAdmission(gwAdmitLimit, gwShedAt)
		st.sim.Go("gw:"+h, g.Run)
	}

	// Discover the full pool once; the storm shares the balanced client,
	// like a deployment's user population behind one front door.
	var gwc *gateway.Client
	st.drive(b, func() {
		// Let the replicas' directory registrations land first.
		st.client.Runtime().NewInbox("settle").RecvTimeout(2 * time.Second)
		c, err := gateway.Connect(st.client, st.nsHost)
		if err != nil {
			b.Errorf("connect: %v", err)
			return
		}
		if got := len(c.Hosts()); got != n {
			b.Errorf("discovered %d replicas, want %d", got, n)
			return
		}
		gwc = c
	})
	if gwc == nil {
		b.FailNow()
	}
	reqs := make([]proto.SeriesRequest, gwBatchSeries)
	for i := range reqs {
		reqs[i] = proto.SeriesRequest{Series: st.series[i], Count: 1}
	}

	var stats gwStormStats
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	mallocs := mem.Mallocs
	inflight := 0
	start := st.sim.Now()
	injectDone := false
	st.sim.Go("inject", func() {
		pause := st.client.Runtime().NewInbox("inject-pause")
		for seq := 0; st.sim.Now()-start < gwStormLength; seq++ {
			stats.injected++
			inflight++
			st.sim.Go(fmt.Sprintf("batch-%d", seq), func() {
				defer func() { inflight-- }()
				t0 := st.sim.Now()
				res, err := gwc.FetchMany(reqs)
				if err != nil {
					if errors.Is(err, query.ErrOverloaded) {
						stats.shed++
						return
					}
					b.Errorf("batch: %v", err)
					return
				}
				for _, r := range res {
					if r.Err != nil || len(r.Samples) == 0 {
						b.Errorf("series %s: %v (%d samples)", r.Series, r.Err, len(r.Samples))
						return
					}
				}
				stats.answered++
				stats.latencies = append(stats.latencies, st.sim.Now()-t0)
			})
			pause.RecvTimeout(gwStormEvery)
		}
		injectDone = true
	})

	// Drain: advance virtual time until the injector stopped and every
	// in-flight batch completed (answered, shed, or failed).
	deadline := start + gwStormLength + time.Hour
	for at := st.sim.Now() + time.Second; !injectDone || inflight > 0; at += time.Second {
		if at > deadline {
			b.Fatalf("storm stuck: %d batches still in flight", inflight)
		}
		if err := st.sim.RunUntil(at); err != nil {
			b.Fatal(err)
		}
	}
	stats.elapsed = st.sim.Now() - start
	runtime.ReadMemStats(&mem)
	stats.mallocs = mem.Mallocs - mallocs
	sort.Slice(stats.latencies, func(i, j int) bool { return stats.latencies[i] < stats.latencies[j] })
	return stats
}

// BenchmarkGatewayScale: the open-loop storm against 1, 2 and 3 gateway
// replicas. ns/op tracks the simulator's wall cost (regression gate);
// the virtual-time custom metrics carry the scaling story.
func BenchmarkGatewayScale(b *testing.B) {
	for _, n := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("gw=%d", n), func(b *testing.B) {
			var stats gwStormStats
			for i := 0; i < b.N; i++ {
				stats = runGatewayStorm(b, n)
			}
			if stats.answered == 0 {
				b.Fatal("storm answered nothing")
			}
			b.ReportMetric(float64(stats.answered*gwBatchSeries)/stats.elapsed.Seconds(), "queries/s")
			b.ReportMetric(stats.quantile(0.50).Seconds()*1e3, "p50-ms")
			b.ReportMetric(stats.quantile(0.95).Seconds()*1e3, "p95-ms")
			b.ReportMetric(stats.quantile(0.99).Seconds()*1e3, "p99-ms")
			b.ReportMetric(float64(stats.shed), "shed-batches")
			b.ReportMetric(float64(stats.mallocs)/float64(stats.injected), "allocs-per-batch")
		})
	}
}
