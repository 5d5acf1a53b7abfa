package deploy

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"nwsenv/internal/simnet"
	"nwsenv/internal/topo"
)

// collisionRisksNested is the collision analysis as first written: for
// every clique pair, every (pair of A) × (pair of B) asks the topology
// whether the two paths share a resource, and the first hit is the
// witness. Kept as the reference collisionRisks is checked against.
func collisionRisksNested(cliques []CliqueSpec, tp *simnet.Topology, resolve map[string]string) []CollisionRisk {
	id := func(name string) string {
		if node, ok := resolve[name]; ok {
			return node
		}
		return name
	}
	var risks []CollisionRisk
	for i := 0; i < len(cliques); i++ {
	next:
		for j := i + 1; j < len(cliques); j++ {
			for _, pa := range orderedPairs(cliques[i].Members) {
				for _, pb := range orderedPairs(cliques[j].Members) {
					shared, err := tp.SharedResources(id(pa[0]), id(pa[1]), id(pb[0]), id(pb[1]))
					if err != nil {
						continue // unroutable pair: such experiments never run
					}
					if shared {
						risks = append(risks, CollisionRisk{
							CliqueA: cliques[i].Name, CliqueB: cliques[j].Name,
							PairA: pa, PairB: pb,
						})
						continue next
					}
				}
			}
		}
	}
	return risks
}

// randomCliques draws overlapping cliques of 1–4 members from hosts.
func randomCliques(rng *rand.Rand, hosts []string) []CliqueSpec {
	cliques := make([]CliqueSpec, 2+rng.Intn(5))
	for i := range cliques {
		perm := rng.Perm(len(hosts))
		n := 1 + rng.Intn(4)
		if n > len(hosts) {
			n = len(hosts)
		}
		cliques[i].Name = fmt.Sprintf("c%d", i)
		for _, h := range perm[:n] {
			cliques[i].Members = append(cliques[i].Members, hosts[h])
		}
	}
	return cliques
}

func TestCollisionRisksMatchNestedLoops(t *testing.T) {
	check := func(label string, cliques []CliqueSpec, tp *simnet.Topology, resolve map[string]string) (hits int) {
		t.Helper()
		got, err := collisionRisks(cliques, tp, resolve)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		want := collisionRisksNested(cliques, tp, resolve)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: cliques %v\n got %v\nwant %v", label, cliques, got, want)
		}
		return len(got)
	}

	// Random LANs: hub and switch subnets behind one root, so cliques
	// collide on hub domains, on shared uplinks, or not at all.
	hits, clean := 0, 0
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tp, truth := topo.RandomLAN(seed, 2+rng.Intn(3), 2+rng.Intn(3))
		var hosts []string
		for _, seg := range []string{"seg0", "seg1", "seg2", "seg3"} {
			hosts = append(hosts, truth[seg].Hosts...)
		}
		n := check(fmt.Sprintf("lan seed %d", seed), randomCliques(rng, hosts), tp, nil)
		hits += n
		if n == 0 {
			clean++
		}
	}
	if hits == 0 || clean == 0 {
		t.Fatalf("random LANs cover only one outcome: %d risks, %d collision-free plans", hits, clean)
	}

	// ENS-Lyon: names go through resolve.
	e, _, p, resolve := planEnsLyon(t)
	check("ens-lyon plan", p.Cliques, e.Topo, resolve)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20; i++ {
		check(fmt.Sprintf("ens-lyon draw %d", i), randomCliques(rng, p.Hosts), e.Topo, resolve)
	}

	// Two islands with no link between them: cross-island pairs are
	// unroutable and must be skipped, not reported and not an error.
	islands := simnet.NewTopology()
	var hosts []string
	for _, side := range []string{"x", "y"} {
		islands.AddHub("hub-"+side, 100*simnet.Mbps)
		for h := 0; h < 3; h++ {
			id := fmt.Sprintf("%s%d", side, h)
			islands.AddHost(id, fmt.Sprintf("10.%d.0.%d", len(hosts)/3, h+1), id, "lan")
			islands.Connect(id, "hub-"+side)
			hosts = append(hosts, id)
		}
	}
	if _, err := islands.Path("x0", "y0"); err == nil {
		t.Fatal("islands are connected")
	}
	for i := 0; i < 20; i++ {
		check(fmt.Sprintf("islands draw %d", i), randomCliques(rng, hosts), islands, nil)
	}

	if _, err := collisionRisks([]CliqueSpec{{Name: "c", Members: []string{"h0-0", "nowhere"}}}, e.Topo, nil); err == nil {
		t.Fatal("an unresolvable member must be an error")
	}
}
