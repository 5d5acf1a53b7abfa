// Scale benchmarks, routing half: the route search, fault-scoped
// route-cache invalidation and the validator's collision analysis on
// SyntheticGrid platforms of up to 1,000 hosts. The transfer
// half (BenchmarkScaleGridTransfers and its reference twin) lives in
// internal/simnet/scalebench_test.go, beside the test-only reference
// simulator; the scale entry of bench-gates.json (`benchjson scale`)
// runs both packages so BENCH_scale.json carries every Scale row, and
// gates each on allocs/op and B/op ceilings.
package nwsenv

import (
	"fmt"
	"math/rand"
	"testing"

	"nwsenv/internal/deploy"
	"nwsenv/internal/simnet"
	"nwsenv/internal/topo"
)

// scaleGrid1000 is the 1,000-host grid (10 sites × 10 switches × 10).
var scaleGrid1000 = topo.GridConfig{Sites: 10, SwitchesPerSite: 10, HostsPerSwitch: 10, Seed: 42}

// scalePairs derives a deterministic cross-site pair list.
func scalePairs(tp *simnet.Topology, n int, seed int64) [][2]string {
	hosts := tp.HostIDs()
	rng := rand.New(rand.NewSource(seed))
	var pairs [][2]string
	for len(pairs) < n {
		a := hosts[rng.Intn(len(hosts))]
		b := hosts[rng.Intn(len(hosts))]
		if a != b && a != "world" && b != "world" {
			pairs = append(pairs, [2]string{a, b})
		}
	}
	return pairs
}

// BenchmarkScaleRoutingCold measures the route search itself: every
// query below hits a cold cache on a 1,000-host grid.
func BenchmarkScaleRoutingCold(b *testing.B) {
	const queries = 100
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tp, _ := topo.SyntheticGrid(scaleGrid1000)
		pairs := scalePairs(tp, queries, int64(i)+1)
		b.StartTimer()
		for _, p := range pairs {
			if _, err := tp.Path(p[0], p[1]); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*queries), "ns/path")
}

// BenchmarkScaleFaultRerouting measures fault-scoped route-cache
// invalidation: leaf-host crashes evict only the routes through the
// victim, so a warm 400-pair cache keeps serving during a crash storm
// (the old behavior wiped the whole cache on every fault).
func BenchmarkScaleFaultRerouting(b *testing.B) {
	tp, _ := topo.SyntheticGrid(scaleGrid1000)
	pairs := scalePairs(tp, 400, 7)
	inPairs := map[string]bool{}
	for _, p := range pairs {
		inPairs[p[0]] = true
		inPairs[p[1]] = true
	}
	var victims []string
	for _, h := range tp.HostIDs() {
		if !inPairs[h] && h != "world" {
			victims = append(victims, h)
		}
	}
	for _, p := range pairs { // warm the cache
		if _, err := tp.Path(p[0], p[1]); err != nil {
			b.Fatal(err)
		}
	}
	h0, m0 := tp.RouteCacheStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tp.SetNodeDown(victims[i%len(victims)], true)
		for _, p := range pairs {
			if _, err := tp.Path(p[0], p[1]); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	hits, misses := tp.RouteCacheStats()
	hits, misses = hits-h0, misses-m0
	if hits+misses > 0 {
		b.ReportMetric(float64(hits)/float64(hits+misses), "routeHitRate")
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(pairs)), "ns/path")
	for i := 0; i < b.N && i < len(victims); i++ {
		tp.SetNodeDown(victims[i], false)
	}
}

// BenchmarkScaleValidate measures deploy.Validate on a cold route cache:
// a 4-site grid of 200, 400 or 1,000 hosts with one clique per site
// (50, 100 or 250 members) and a bridge clique of each site's first
// host, so the collision analysis routes every ordered member pair of
// every clique once. It reports the collision risks found.
func BenchmarkScaleValidate(b *testing.B) {
	for _, hosts := range []int{200, 400, 1000} {
		b.Run(fmt.Sprintf("hosts=%d", hosts), func(b *testing.B) {
			cfg := topo.GridConfig{Sites: 4, SwitchesPerSite: 5, HostsPerSwitch: hosts / 20, Seed: 42}
			var risks int
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				tp, truth := topo.SyntheticGrid(cfg)
				p := siteCliquePlan(cfg, truth)
				b.StartTimer()
				v, err := deploy.Validate(p, tp, nil)
				if err != nil {
					b.Fatal(err)
				}
				risks = len(v.CollisionRisks)
			}
			b.ReportMetric(float64(risks), "risks")
		})
	}
}

// siteCliquePlan is a plan over the grid's hosts, the external target
// aside: one clique per site, then a bridge clique of each site's first
// host.
func siteCliquePlan(cfg topo.GridConfig, truth map[string]topo.NetworkTruth) *deploy.Plan {
	p := &deploy.Plan{}
	bridge := deploy.CliqueSpec{Name: "bridge"}
	for s := 0; s < cfg.Sites; s++ {
		site := deploy.CliqueSpec{Name: fmt.Sprintf("site%d", s)}
		for w := 0; w < cfg.SwitchesPerSite; w++ {
			site.Members = append(site.Members, truth[fmt.Sprintf("s%d-%d", s, w)].Hosts...)
		}
		bridge.Members = append(bridge.Members, site.Members[0])
		p.Cliques = append(p.Cliques, site)
		p.Hosts = append(p.Hosts, site.Members...)
	}
	p.Cliques = append(p.Cliques, bridge)
	return p
}
