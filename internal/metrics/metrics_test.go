package metrics

import (
	"testing"
	"time"

	"nwsenv/internal/deploy"
	"nwsenv/internal/simnet"
	"nwsenv/internal/telemetry"
	"nwsenv/internal/vclock"
)

func hubNet(t *testing.T) (*vclock.Sim, *simnet.Network) {
	t.Helper()
	topo := simnet.NewTopology()
	topo.AddHost("a", "1", "a", "x")
	topo.AddHost("b", "2", "b", "x")
	topo.AddHost("c", "3", "c", "x")
	topo.AddHub("hub", 100*simnet.Mbps)
	topo.Connect("a", "hub")
	topo.Connect("b", "hub")
	topo.Connect("c", "hub")
	sim := vclock.New()
	return sim, simnet.NewNetwork(sim, topo)
}

func TestObserveCountsAndRates(t *testing.T) {
	sim, net := hubNet(t)
	sim.Go("p", func() {
		for i := 0; i < 6; i++ {
			net.Transfer("a", "b", 1_000_000, "probe:x")
			sim.Sleep(10 * time.Second)
		}
		net.Transfer("a", "c", 1_000_000, "other:y")
	})
	if err := sim.RunUntil(2 * time.Minute); err != nil {
		t.Fatal(err)
	}
	r := Observe(net, "probe:", 2*time.Minute)
	if r.Probes != 6 {
		t.Fatalf("probes %d", r.Probes)
	}
	if r.ProbeBytes != 6_000_000 {
		t.Fatalf("bytes %d", r.ProbeBytes)
	}
	// 6 probes over 2 minutes = 3/min on the single pair.
	if f := r.PairFrequency["a->b"]; f < 2.9 || f > 3.1 {
		t.Fatalf("frequency %v", f)
	}
	if r.Collisions != 0 || r.CollisionRate != 0 {
		t.Fatalf("collisions %d", r.Collisions)
	}
}

func TestObservePairPercentiles(t *testing.T) {
	sim, net := hubNet(t)
	sim.Go("p", func() {
		// a->b measured 4x, a->c 2x, b->c 1x over one minute: a skewed
		// distribution the percentiles must rank, not average.
		for i := 0; i < 4; i++ {
			net.Transfer("a", "b", 100_000, "probe:x")
		}
		net.Transfer("a", "c", 100_000, "probe:x")
		net.Transfer("a", "c", 100_000, "probe:x")
		net.Transfer("b", "c", 100_000, "probe:x")
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	r := Observe(net, "probe:", time.Minute)
	// Frequencies sorted: [1, 2, 4] per minute. Nearest rank: p50 is
	// the 2nd (2/min), p95 and p99 the 3rd (4/min).
	if r.P50PairPerMinute != 2 {
		t.Fatalf("p50 %v, want 2", r.P50PairPerMinute)
	}
	if r.P95PairPerMinute != 4 || r.P99PairPerMinute != 4 {
		t.Fatalf("p95/p99 %v/%v, want 4/4", r.P95PairPerMinute, r.P99PairPerMinute)
	}
}

func TestObservePercentilesEmpty(t *testing.T) {
	_, net := hubNet(t)
	r := Observe(net, "probe:", time.Minute)
	if len(r.PairFrequency) != 0 {
		t.Fatalf("pairs %v", r.PairFrequency)
	}
	if r.P50PairPerMinute != 0 || r.P95PairPerMinute != 0 || r.P99PairPerMinute != 0 {
		t.Fatalf("percentiles of an empty set must be 0: %+v", r)
	}
}

func TestObservePercentilesSinglePair(t *testing.T) {
	sim, net := hubNet(t)
	sim.Go("p", func() {
		net.Transfer("a", "b", 100_000, "probe:x")
		net.Transfer("a", "b", 100_000, "probe:x")
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	r := Observe(net, "probe:", time.Minute)
	// One pair at 2/min: every percentile collapses onto it.
	for _, p := range []float64{r.P50PairPerMinute, r.P95PairPerMinute, r.P99PairPerMinute} {
		if p != 2 {
			t.Fatalf("single-pair percentiles must all equal the pair's frequency: %+v", r)
		}
	}
	if r.MinPairPerMinute != 2 || r.MaxPairPerMinute != 2 {
		t.Fatalf("min/max %v/%v", r.MinPairPerMinute, r.MaxPairPerMinute)
	}
}

func TestFloatPercentileBounds(t *testing.T) {
	if got := telemetry.Percentile([]float64(nil), 0.95); got != 0 {
		t.Fatalf("empty: %v", got)
	}
	sorted := []float64{1, 2, 3, 4}
	if got := telemetry.Percentile(sorted, -1); got != 1 {
		t.Fatalf("p<0 must clamp to the minimum: %v", got)
	}
	if got := telemetry.Percentile(sorted, 2); got != 4 {
		t.Fatalf("p>1 must clamp to the maximum: %v", got)
	}
	if got := telemetry.Percentile(sorted, 0.5); got != 2 {
		t.Fatalf("p50 of [1 2 3 4] is 2 by nearest rank: %v", got)
	}
}

func TestObserveCollisions(t *testing.T) {
	sim, net := hubNet(t)
	sim.Go("p1", func() { net.Transfer("a", "b", 2_000_000, "probe:1") })
	sim.Go("p2", func() { net.Transfer("c", "b", 2_000_000, "probe:2") })
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	r := Observe(net, "probe:", time.Minute)
	if r.Collisions != 1 {
		t.Fatalf("collisions %d, want 1", r.Collisions)
	}
	if r.CollisionRate != 0.5 {
		t.Fatalf("rate %v, want 0.5", r.CollisionRate)
	}
}

func TestAccuracyAgainstGroundTruth(t *testing.T) {
	sim, net := hubNet(t)
	_ = sim
	p := &deploy.Plan{
		Hosts:    []string{"a", "b", "c"},
		MemoryOf: map[string]string{},
		Cliques: []deploy.CliqueSpec{
			{Name: "hub", Members: []string{"a", "b"}, Shared: true, Represents: []string{"a", "b", "c"}},
		},
	}
	// Pretend the clique measured exactly the ground truth for (a,b).
	est := deploy.NewEstimator(p, func(from, to string) (float64, float64, bool) {
		if (from == "a" && to == "b") || (from == "b" && to == "a") {
			return 1.0, 100, true // 1 ms RTT, 100 Mbps
		}
		return 0, 0, false
	})
	resolve := map[string]string{"a": "a", "b": "b", "c": "c"}
	sum := Accuracy(est, net.Topology(), resolve, [][2]string{{"a", "b"}, {"a", "c"}, {"b", "c"}})
	if len(sum.Pairs) != 3 {
		t.Fatalf("pairs %d", len(sum.Pairs))
	}
	for _, pa := range sum.Pairs {
		if pa.BWRelErr > 0.01 {
			t.Fatalf("bw error %v for %s->%s (hub represented pairs share truth)", pa.BWRelErr, pa.From, pa.To)
		}
	}
	if sum.MedianBWRelErr > 0.01 {
		t.Fatalf("median %v", sum.MedianBWRelErr)
	}
}

func TestAccuracySkipsUnresolvable(t *testing.T) {
	sim, net := hubNet(t)
	_ = sim
	p := &deploy.Plan{Hosts: []string{"a", "b"}, MemoryOf: map[string]string{},
		Cliques: []deploy.CliqueSpec{{Name: "c", Members: []string{"a", "b"}}}}
	est := deploy.NewEstimator(p, func(a, b string) (float64, float64, bool) { return 1, 1, true })
	sum := Accuracy(est, net.Topology(), map[string]string{"a": "a"}, [][2]string{{"a", "b"}})
	if len(sum.Pairs) != 0 {
		t.Fatalf("unresolvable pair should be skipped: %+v", sum.Pairs)
	}
}
