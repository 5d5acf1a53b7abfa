package simnet

import (
	"fmt"
	"testing"
	"time"

	"nwsenv/internal/vclock"
)

// TestCollisionAggregationBounded: repeated collisions of the same tag
// pair on the same resource fold into one aggregate with a running
// count and first/last timestamps, so collision memory is bounded under
// long -watch runs.
func TestCollisionAggregationBounded(t *testing.T) {
	topo := NewTopology()
	topo.AddHub("hub", 100*Mbps)
	for _, h := range []string{"a", "b", "c", "d"} {
		topo.AddHost(h, h, h, "lan")
		topo.Connect(h, "hub")
	}
	sim := vclock.New()
	net := NewNetwork(sim, topo)
	const rounds = 25
	sim.Go("p1", func() {
		for i := 0; i < rounds; i++ {
			net.Transfer("a", "b", 500_000, "probe:ab")
			sim.Sleep(10 * time.Millisecond)
		}
	})
	sim.Go("p2", func() {
		for i := 0; i < rounds; i++ {
			net.Transfer("c", "d", 500_000, "probe:cd")
			sim.Sleep(10 * time.Millisecond)
		}
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	cols := net.Collisions()
	if len(cols) == 0 {
		t.Fatal("expected hub collisions")
	}
	// Distinct aggregates are bounded by tag-pair × resource, not by
	// occurrence count.
	if len(cols) > 4 {
		t.Fatalf("aggregation failed: %d distinct collision entries", len(cols))
	}
	total := 0
	for _, c := range cols {
		total += c.Count
	}
	if total <= len(cols) {
		t.Fatalf("expected repeated occurrences to accumulate: %d aggregates, %d total", len(cols), total)
	}
	for _, c := range cols {
		if c.Count < 1 {
			t.Fatalf("aggregate with zero count: %+v", c)
		}
		if c.Last < c.At {
			t.Fatalf("aggregate timestamps inverted: %+v", c)
		}
		if c.Count > 1 && c.Last == c.At {
			t.Fatalf("repeated aggregate kept a stale Last: %+v", c)
		}
	}
}

// TestRouteCacheScopedInvalidation: crashing a node evicts only the
// cached routes through it; unrelated warm routes keep serving from the
// cache.
func TestRouteCacheScopedInvalidation(t *testing.T) {
	topo, hosts := randomLAN(5, 3, 3)
	// Warm two disjoint intra-subnet routes plus one through subnet 2.
	pairs := [][2]string{
		{hosts[0], hosts[1]}, // subnet 0, stays on seg0
		{hosts[3], hosts[4]}, // subnet 1, stays on seg1
		{hosts[0], hosts[6]}, // subnet 0 -> subnet 2, crosses root
	}
	for _, p := range pairs {
		if _, err := topo.Path(p[0], p[1]); err != nil {
			t.Fatal(err)
		}
	}
	h0, m0 := topo.RouteCacheStats()

	// Crash a subnet-2 host: only routes touching it may be evicted.
	topo.SetNodeDown(hosts[6], true)
	if _, err := topo.Path(hosts[0], hosts[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := topo.Path(hosts[3], hosts[4]); err != nil {
		t.Fatal(err)
	}
	hits, misses := topo.RouteCacheStats()
	if got := hits - h0; got != 2 {
		t.Fatalf("unrelated routes should stay cached after a crash: %d hits, %d misses", hits-h0, misses-m0)
	}
	if misses != m0 {
		t.Fatalf("unrelated routes recomputed: %d extra misses", misses-m0)
	}
	// The route through the victim is gone.
	if _, err := topo.Path(hosts[0], hosts[6]); err == nil {
		t.Fatal("route to a crashed endpoint should fail")
	}

	// Restoring wipes the cache: better paths may reappear anywhere.
	topo.SetNodeDown(hosts[6], false)
	if _, err := topo.Path(hosts[0], hosts[1]); err != nil {
		t.Fatal(err)
	}
	_, misses2 := topo.RouteCacheStats()
	if misses2 == misses {
		t.Fatal("restore should invalidate cached routes")
	}
	if _, err := topo.Path(hosts[0], hosts[6]); err != nil {
		t.Fatalf("route should exist again after restore: %v", err)
	}
}

// TestRouteCacheIndexExactness: after a fault evicts and a query
// re-caches a route around the victim, a later fault on a node of the
// OLD path must not evict the new path (the index is de-indexed on
// eviction, not left stale).
func TestRouteCacheIndexExactness(t *testing.T) {
	// Diamond: a - m1 - b and a - m2 - b.
	topo := NewTopology()
	topo.AddHost("a", "a", "a", "lan")
	topo.AddHost("b", "b", "b", "lan")
	topo.AddRouter("m1", "m1", "m1")
	topo.AddRouter("m2", "m2", "m2")
	topo.Connect("a", "m1")
	topo.Connect("m1", "b")
	topo.Connect("a", "m2", LinkLatency(time.Millisecond)) // longer detour
	topo.Connect("m2", "b", LinkLatency(time.Millisecond))
	p, err := topo.Path("a", "b")
	if err != nil || len(p) != 3 || p[1] != "m1" {
		t.Fatalf("want a-m1-b, got %v (%v)", p, err)
	}
	topo.SetNodeDown("m1", true) // evicts a->b, which re-routes via m2
	if p, err = topo.Path("a", "b"); err != nil || p[1] != "m2" {
		t.Fatalf("want detour a-m2-b, got %v (%v)", p, err)
	}
	_, m0 := topo.RouteCacheStats()
	// m1 is already down; a second fault event on it (idempotent crash)
	// must not evict the m2 route.
	topo.SetNodeDown("m1", true)
	if _, err = topo.Path("a", "b"); err != nil {
		t.Fatal(err)
	}
	if _, m := topo.RouteCacheStats(); m != m0 {
		t.Fatalf("stale index evicted the re-cached detour: %d extra misses", m-m0)
	}
}

// TestLinkCutScopedInvalidation mirrors the node case for links.
func TestLinkCutScopedInvalidation(t *testing.T) {
	topo, hosts := randomLAN(8, 3, 3)
	intra := [2]string{hosts[0], hosts[1]}  // seg0 only
	crossA := [2]string{hosts[0], hosts[3]} // via r0-root-r1
	for _, p := range [][2]string{intra, crossA} {
		if _, err := topo.Path(p[0], p[1]); err != nil {
			t.Fatal(err)
		}
	}
	h0, m0 := topo.RouteCacheStats()
	// Cut the r1 uplink: the cross route breaks, the intra route stays.
	topo.SetLinkDisabled("r1", "root", true)
	if _, err := topo.Path(intra[0], intra[1]); err != nil {
		t.Fatal(err)
	}
	hits, misses := topo.RouteCacheStats()
	if hits-h0 != 1 || misses != m0 {
		t.Fatalf("intra-subnet route should stay cached: +%d hits +%d misses", hits-h0, misses-m0)
	}
	if _, err := topo.Path(crossA[0], crossA[1]); err == nil {
		t.Fatal("cross route should be severed")
	}
	topo.SetLinkDisabled("r1", "root", false)
	if _, err := topo.Path(crossA[0], crossA[1]); err != nil {
		t.Fatalf("cross route should heal: %v", err)
	}
}

// TestIncrementalManyDisjointFlows drives hundreds of resource-disjoint
// flows and checks every one gets its full fair share — the allocation
// the component-scoped engine must preserve at scale.
func TestIncrementalManyDisjointFlows(t *testing.T) {
	topo := NewTopology()
	topo.AddSwitch("sw")
	const pairs = 150
	for i := 0; i < pairs; i++ {
		s, d := fmt.Sprintf("s%d", i), fmt.Sprintf("d%d", i)
		topo.AddHost(s, s, s, "lan")
		topo.AddHost(d, d, d, "lan")
		topo.Connect(s, "sw")
		topo.Connect(d, "sw")
	}
	sim := vclock.New()
	net := NewNetwork(sim, topo)
	rates := make([]float64, pairs)
	for i := 0; i < pairs; i++ {
		i := i
		sim.Go("f", func() {
			st, err := net.Transfer(fmt.Sprintf("s%d", i), fmt.Sprintf("d%d", i), 4_000_000, "")
			if err != nil {
				t.Errorf("pair %d: %v", i, err)
				return
			}
			rates[i] = st.AvgBps
		})
	}
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	for i, r := range rates {
		if r < 99*Mbps || r > 101*Mbps {
			t.Fatalf("pair %d got %.1f Mbps, want ~100 (disjoint flows must not share)", i, r/1e6)
		}
	}
}
