// The comparison points of the paper's evaluation, beside the
// experiments that use them (E4 and E6 in bench_test.go): deployments
// built without topology knowledge, and the naive exhaustive mapping
// algorithm whose cost §4.3 estimates at about 50 days for 20 hosts.
// Experiment code, not product: nothing outside this package's tests
// plans a full mesh or a blind partition.
package nwsenv

import (
	"context"
	"fmt"
	"sort"
	"testing"
	"time"

	"nwsenv/internal/deploy"
	"nwsenv/internal/env"
	"nwsenv/internal/nws/proto"
	"nwsenv/internal/simnet"
	"nwsenv/internal/topo"
	"nwsenv/internal/vclock"
)

// FullMesh builds the no-knowledge deployment: every host in one giant
// clique. It is trivially collision-free and complete, but the token
// ring serializes all n(n-1) experiments, so the per-pair measurement
// frequency collapses (§2.3 "Scalability concerns").
func FullMesh(hosts []string, master string, gap time.Duration) *deploy.Plan {
	sorted := append([]string(nil), hosts...)
	sort.Strings(sorted)
	if master == "" {
		master = sorted[0]
	}
	memoryOf := map[string]string{}
	for _, h := range sorted {
		memoryOf[h] = master
	}
	return &deploy.Plan{
		Label:         "fullmesh-" + master,
		Master:        master,
		NameServer:    master,
		Forecaster:    master,
		MemoryServers: []string{master},
		MemoryOf:      memoryOf,
		Hosts:         sorted,
		Cliques: []deploy.CliqueSpec{{
			Name:    "all",
			Members: sorted,
			Period:  gap,
		}},
	}
}

// BlindPartition splits hosts into k cliques by name order, ignoring the
// topology, then chains them with bridge cliques. On real networks the
// chunks straddle physical segments, so concurrent cliques collide on
// shared links — the failure mode ENV-driven planning exists to avoid.
func BlindPartition(hosts []string, master string, k int, gap time.Duration) *deploy.Plan {
	sorted := append([]string(nil), hosts...)
	sort.Strings(sorted)
	if master == "" {
		master = sorted[0]
	}
	if k < 1 {
		k = 1
	}
	if k > len(sorted) {
		k = len(sorted)
	}
	memoryOf := map[string]string{}
	for _, h := range sorted {
		memoryOf[h] = master
	}
	p := &deploy.Plan{
		Label:         fmt.Sprintf("blind-%d-%s", k, master),
		Master:        master,
		NameServer:    master,
		Forecaster:    master,
		MemoryServers: []string{master},
		MemoryOf:      memoryOf,
		Hosts:         sorted,
	}
	size := (len(sorted) + k - 1) / k
	var firstOf []string
	for i := 0; i < len(sorted); i += size {
		end := i + size
		if end > len(sorted) {
			end = len(sorted)
		}
		chunk := sorted[i:end]
		if len(chunk) < 2 {
			if len(firstOf) > 0 {
				// Fold a trailing single host into a bridge with the
				// previous chunk head.
				p.Cliques = append(p.Cliques, deploy.CliqueSpec{
					Name:    fmt.Sprintf("blind-%d", len(p.Cliques)),
					Members: []string{firstOf[len(firstOf)-1], chunk[0]},
					Period:  gap,
				})
			}
			continue
		}
		p.Cliques = append(p.Cliques, deploy.CliqueSpec{
			Name:    fmt.Sprintf("blind-%d", len(p.Cliques)),
			Members: chunk,
			Period:  gap,
		})
		firstOf = append(firstOf, chunk[0])
	}
	for i := 0; i+1 < len(firstOf); i++ {
		p.Cliques = append(p.Cliques, deploy.CliqueSpec{
			Name:    fmt.Sprintf("bridge-%d", i),
			Members: []string{firstOf[i], firstOf[i+1]},
			Period:  gap,
		})
	}
	return p
}

// NaiveMappingCost is §4.3's cost model for the exhaustive mapping
// algorithm: with n hosts there are L = n(n-1) directed links; testing
// whether each ordered pair of distinct links interferes takes one
// experiment of perExperiment (the paper assumes 30 s so the network
// settles): L × (L-1) experiments. For n=20 and 30 s this is 49.99
// days — the paper's "about 50 days for 20 hosts".
func NaiveMappingCost(n int, perExperiment time.Duration) time.Duration {
	links := n * (n - 1)
	return time.Duration(links) * time.Duration(links-1) * perExperiment
}

// NaiveMappingStats reports a simulated naive mapping campaign.
type NaiveMappingStats struct {
	Hosts    int
	Probes   int
	Bytes    int64
	Duration time.Duration
}

// SimulateNaiveMapping actually runs the naive algorithm on a simulated
// network for small n: it measures every directed link alone, then every
// ordered pair of distinct links concurrently, with a settle delay
// between experiments. Must be called from a simulation process.
func SimulateNaiveMapping(net *simnet.Network, hosts []string, probeBytes int64, settle time.Duration) (NaiveMappingStats, error) {
	sim := net.Sim()
	start := sim.Now()
	st := NaiveMappingStats{Hosts: len(hosts)}

	type link struct{ a, b string }
	var links []link
	for _, a := range hosts {
		for _, b := range hosts {
			if a != b {
				links = append(links, link{a, b})
			}
		}
	}
	// Solo pass.
	for _, l := range links {
		if _, err := net.Transfer(l.a, l.b, probeBytes, "naive"); err != nil {
			return st, err
		}
		st.Probes++
		st.Bytes += probeBytes
		sim.Sleep(settle)
	}
	// Pairwise interference pass.
	for i, l1 := range links {
		for j, l2 := range links {
			if i == j {
				continue
			}
			done := vclock.NewChan[struct{}](sim, "naive")
			l2 := l2
			sim.Go("naive-jam", func() {
				net.Transfer(l2.a, l2.b, probeBytes*4, "naive")
				done.Send(struct{}{})
			})
			if _, err := net.Transfer(l1.a, l1.b, probeBytes, "naive"); err != nil {
				return st, err
			}
			done.Recv()
			st.Probes += 2
			st.Bytes += probeBytes * 5
			sim.Sleep(settle)
		}
	}
	st.Duration = sim.Now() - start
	return st, nil
}

func TestFullMeshPlanComplete(t *testing.T) {
	hosts := []string{"a", "b", "c", "d"}
	p := FullMesh(hosts, "a", time.Second)
	if len(p.Cliques) != 1 || len(p.Cliques[0].Members) != 4 {
		t.Fatalf("plan %+v", p.Cliques)
	}
	est := deploy.NewEstimator(p, func(a, b string) (float64, float64, bool) { return 1, 1, true })
	if ok, missing := est.Complete(); !ok {
		t.Fatalf("full mesh must be complete: %v", missing)
	}
}

func TestBlindPartitionChainsChunks(t *testing.T) {
	hosts := []string{"h1", "h2", "h3", "h4", "h5", "h6"}
	p := BlindPartition(hosts, "h1", 3, time.Second)
	est := deploy.NewEstimator(p, func(a, b string) (float64, float64, bool) { return 1, 1, true })
	if ok, missing := est.Complete(); !ok {
		t.Fatalf("blind partition with bridges must stay complete: %v", missing)
	}
	// 3 chunk cliques + 2 bridges.
	if len(p.Cliques) != 5 {
		t.Fatalf("cliques %d: %+v", len(p.Cliques), p.Cliques)
	}
}

func TestNaiveMappingCostMatchesPaper(t *testing.T) {
	// §4.3: "the whole process would last about 50 days for 20 hosts"
	// at 30 s per experiment.
	got := NaiveMappingCost(20, 30*time.Second)
	days := got.Hours() / 24
	if days < 49 || days > 51 {
		t.Fatalf("naive cost for n=20: %.1f days, want ~50", days)
	}
	// Quadratic-in-links growth: n=40 is ~16x n=20.
	ratio := float64(NaiveMappingCost(40, 30*time.Second)) / float64(got)
	if ratio < 15 || ratio > 18 {
		t.Fatalf("cost growth ratio %.1f, want ~16", ratio)
	}
}

func TestSimulatedNaiveMappingTracksFormula(t *testing.T) {
	// For small n the simulated campaign's probe count must equal the
	// model: L solo + 2·L(L-1) paired probes, L = n(n-1).
	tp, _ := topo.RandomLAN(7, 2, 2)
	sim := vclock.New()
	net := simnet.NewNetwork(sim, tp)
	hosts := []string{"h0-0", "h0-1", "h1-0"}
	var st NaiveMappingStats
	var err error
	sim.Go("naive", func() {
		st, err = SimulateNaiveMapping(net, hosts, 1<<20, time.Second)
	})
	if e := sim.RunUntil(24 * time.Hour); e != nil {
		t.Fatal(e)
	}
	if err != nil {
		t.Fatal(err)
	}
	links := len(hosts) * (len(hosts) - 1)
	wantProbes := links + 2*links*(links-1)
	if st.Probes != wantProbes {
		t.Fatalf("probes %d, want %d", st.Probes, wantProbes)
	}
	if st.Duration <= 0 {
		t.Fatal("no duration recorded")
	}
	// The settle delays alone are links + links(links-1) seconds.
	minDur := time.Duration(links+links*(links-1)) * time.Second
	if st.Duration < minDur {
		t.Fatalf("duration %v below settle floor %v", st.Duration, minDur)
	}
}

func TestBlindPartitionCollidesWhereENVDoesNot(t *testing.T) {
	// On the ENS-Lyon hubs, blind chunks by name straddle physical
	// segments: concurrent cliques collide. This is E6's core claim.
	e := topo.NewEnsLyon()
	sim := vclock.New()
	net := simnet.NewNetwork(sim, e.Topo)
	tr := proto.NewSimTransport(net)

	// Monitored hosts: the public side plus gateways (single zone so the
	// blind plan's cliques are all routable).
	hosts := []string{"the-doors", "canaria", "moby", "popc0", "myri0", "sci0"}
	resolve := map[string]string{}
	for _, h := range hosts {
		resolve[h] = h
	}
	p := BlindPartition(hosts, "the-doors", 3, 500*time.Millisecond)
	dep, err := deploy.Apply(context.Background(), tr, env.SimSubstrate{Net: net}, p, resolve, deploy.ApplyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.RunUntil(5 * time.Minute); err != nil {
		t.Fatal(err)
	}
	dep.Stop()
	if len(net.Collisions()) == 0 {
		t.Fatalf("blind partition on hubs should collide; cliques: %s", p.Summary())
	}
}

func TestFullMeshFrequencyCollapses(t *testing.T) {
	// Frequency per pair under a full mesh falls as 1/n² while a split
	// deployment holds it steady; sanity check the 1/n trend per host.
	perPair := func(n int) float64 {
		tp, _ := topo.RandomLAN(3, 1, n)
		sim := vclock.New()
		net := simnet.NewNetwork(sim, tp)
		tr := proto.NewSimTransport(net)
		var hosts []string
		for _, h := range tp.HostIDs() {
			if h != "world" {
				hosts = append(hosts, h)
			}
		}
		resolve := map[string]string{}
		for _, h := range hosts {
			resolve[h] = h
		}
		p := FullMesh(hosts, hosts[0], 200*time.Millisecond)
		dep, err := deploy.Apply(context.Background(), tr, env.SimSubstrate{Net: net}, p, resolve, deploy.ApplyOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.RunUntil(10 * time.Minute); err != nil {
			t.Fatal(err)
		}
		dep.Stop()
		count := 0
		for _, row := range net.Traffic() {
			if row.Src == hosts[0] && row.Dst == hosts[1] && row.Tag != "" {
				count += row.Done
			}
		}
		return float64(count)
	}
	small, large := perPair(3), perPair(9)
	if small <= large*1.5 {
		t.Fatalf("full mesh frequency should collapse with n: n=3 %.0f vs n=9 %.0f", small, large)
	}
}
