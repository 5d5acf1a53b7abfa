// Scale benchmarks, transfer half: the flow engine on SyntheticGrid
// platforms of 100/500/1000 hosts, with hundreds of standing background
// flows and a churn of probe transfers — the load shape `nwsmanager
// -watch` plus the reconciler generate. Each benchmark runs once on
// Network and once (…Naive, the row name the CI ratio gate reads) on the
// test-only ReferenceNetwork, so BENCH_scale.json records what
// component-scoped recomputation buys over global progressive filling.
// An external test package because topo.SyntheticGrid imports simnet.
package simnet_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"nwsenv/internal/simnet"
	"nwsenv/internal/topo"
	"nwsenv/internal/vclock"
)

// scaleConfigs maps a host count to its grid shape (hosts = sites ×
// switches × 10).
var scaleConfigs = map[int]topo.GridConfig{
	100:  {Sites: 2, SwitchesPerSite: 5, HostsPerSwitch: 10, Seed: 42},
	500:  {Sites: 5, SwitchesPerSite: 10, HostsPerSwitch: 10, Seed: 42},
	1000: {Sites: 10, SwitchesPerSite: 10, HostsPerSwitch: 10, Seed: 42},
}

// transferSim is what the churn drives: simnet.Network or the reference.
type transferSim interface {
	Transfer(src, dst string, bytes int64, tag string) (simnet.TransferStats, error)
	Records() []simnet.TransferStats
	Topology() *simnet.Topology
}

const (
	// bgPairsPerSwitch standing flows per leaf segment occupy hosts
	// h0..h7; the probe churn runs on the reserved pair (h8, h9), so
	// every flow set is resource-disjoint from the others — the
	// best case for component-scoped recomputation and the worst case
	// for the global reference.
	bgPairsPerSwitch = 4
	probesPerSwitch  = 20
	// bgBytes keeps a background flow alive (at its 12.5 MB/s fair
	// share) well past the last probe, yet lets it finish inside the
	// 5-minute window so every simulation process exits and iterations
	// do not leak goroutines.
	bgBytes = int64(400_000_000)
)

// runScaleTransfers drives the probe churn against standing background
// flows and reports the wall cost per completed probe transfer.
func runScaleTransfers(b *testing.B, hosts int, reference bool) {
	cfg, ok := scaleConfigs[hosts]
	if !ok {
		b.Fatalf("no grid config for %d hosts", hosts)
	}
	groups := topo.GridHostGroups(cfg)
	expected := len(groups) * (probesPerSwitch + bgPairsPerSwitch)
	var lastNet transferSim
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		runtime.GC() // isolate iterations from each other's garbage
		tp, _ := topo.SyntheticGrid(cfg)
		sim := vclock.New()
		var net transferSim = simnet.NewNetwork(sim, tp)
		if reference {
			net = simnet.NewReferenceNetwork(sim, tp)
		}
		lastNet = net
		for _, g := range groups {
			for p := 0; p < bgPairsPerSwitch; p++ {
				src, dst := g[2*p], g[2*p+1]
				sim.Go("bg:"+src, func() {
					net.Transfer(src, dst, bgBytes, "")
				})
			}
		}
		for w, g := range groups {
			w, g := w, g
			sim.Go(fmt.Sprintf("probe%d", w), func() {
				// Jittered start and sizes de-synchronize completions so
				// every probe pays its own arrival + completion event.
				sim.Sleep(time.Second + time.Duration(w*7)*time.Millisecond)
				for k := 0; k < probesPerSwitch; k++ {
					bytes := int64(2_000_000 + w*1009 + k*50023)
					if _, err := net.Transfer(g[8], g[9], bytes, ""); err != nil {
						b.Errorf("probe transfer: %v", err)
						return
					}
				}
			})
		}
		// Let the background flows arrive before the clock starts.
		if err := sim.RunUntil(900 * time.Millisecond); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := sim.RunUntil(5 * time.Minute); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if got := len(net.Records()); got != expected {
			b.Fatalf("completed %d transfers, want %d", got, expected)
		}
		b.StartTimer()
	}
	total := b.N * len(groups) * probesPerSwitch
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(total), "ns/xfer")
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "xfers/s")
	b.ReportMetric(float64(hosts), "hosts")
	b.ReportMetric(float64(len(groups)*bgPairsPerSwitch), "bgflows")
	hits, misses := lastNet.Topology().RouteCacheStats()
	if hits+misses > 0 {
		b.ReportMetric(float64(hits)/float64(hits+misses), "routeHitRate")
	}
}

func BenchmarkScaleGridTransfers(b *testing.B) {
	for _, hosts := range []int{100, 500, 1000} {
		b.Run(fmt.Sprintf("hosts=%d", hosts), func(b *testing.B) {
			runScaleTransfers(b, hosts, false)
		})
	}
}

func BenchmarkScaleGridTransfersNaive(b *testing.B) {
	for _, hosts := range []int{100, 500, 1000} {
		b.Run(fmt.Sprintf("hosts=%d", hosts), func(b *testing.B) {
			runScaleTransfers(b, hosts, true)
		})
	}
}
