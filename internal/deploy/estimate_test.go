package deploy

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"nwsenv/internal/env"
	"nwsenv/internal/simnet"
	"nwsenv/internal/topo"
	"nwsenv/internal/vclock"
)

// completeByPairs is completeness as first written: one Estimate (a
// BFS) per host pair, with data for every measured pair. Kept as the
// reference the union-find Complete is checked against.
func completeByPairs(p *Plan) (bool, []string) {
	est := NewEstimator(p, func(a, b string) (float64, float64, bool) { return 1, 1, true })
	var missing []string
	for _, a := range p.Hosts {
		for _, b := range p.Hosts {
			if a >= b {
				continue
			}
			if _, err := est.Estimate(a, b); err != nil {
				missing = append(missing, a+" <-> "+b)
			}
		}
	}
	sort.Strings(missing)
	return len(missing) == 0, missing
}

// planTopology maps tp with ENV in one run from its first host and
// plans the result, as the pipeline does for a generated topology.
func planTopology(t *testing.T, tp *simnet.Topology) *Plan {
	t.Helper()
	var hosts []string
	for _, h := range tp.HostIDs() {
		if h != tp.ExternalTarget {
			hosts = append(hosts, h)
		}
	}
	sim := vclock.New()
	net := simnet.NewNetwork(sim, tp)
	var res *env.Result
	var err error
	sim.Go("map", func() {
		res, err = env.NewMapperOn(env.SimSubstrate{Net: net}, env.Config{Master: hosts[0], Hosts: hosts}).Run(context.Background())
	})
	if er := sim.RunUntil(24 * time.Hour); er != nil {
		t.Fatal(er)
	}
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPlan(env.Single(res), PlanConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestCompleteMatchesPerPairEstimates: on mapped random LANs and
// synthetic grids, whole, with cliques dropped at random and with
// random overlapping cliques over the same hosts, the union-find
// Complete gives the per-pair BFS loop's verdict and missing list
// exactly.
func TestCompleteMatchesPerPairEstimates(t *testing.T) {
	var plans []*Plan
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tp, _ := topo.RandomLAN(seed, 2+rng.Intn(3), 2+rng.Intn(3))
		plans = append(plans, planTopology(t, tp))
	}
	for seed := int64(1); seed <= 3; seed++ {
		tp, _ := topo.SyntheticGrid(topo.GridConfig{
			Sites: 1 + int(seed), SwitchesPerSite: 3, HostsPerSwitch: 3,
			HubFraction: 0.5, Seed: seed,
		})
		plans = append(plans, planTopology(t, tp))
	}

	rng := rand.New(rand.NewSource(41))
	shapes, complete, incomplete := 0, 0, 0
	for i, base := range plans {
		for draw := 0; draw < 11; draw++ {
			p := *base
			switch {
			case draw >= 8:
				p.Cliques = randomCliques(rng, base.Hosts)
			case draw > 0:
				// Keep each clique with probability 1/2..7/8, so later
				// draws drop fewer of them.
				p.Cliques = nil
				for _, c := range base.Cliques {
					if rng.Intn(draw+1) != 0 {
						p.Cliques = append(p.Cliques, c)
					}
				}
			}
			label := fmt.Sprintf("plan %d draw %d (%d of %d cliques)", i, draw, len(p.Cliques), len(base.Cliques))
			wantOK, wantMissing := completeByPairs(&p)
			gotOK, gotMissing := NewEstimator(&p, nil).Complete()
			if gotOK != wantOK || !reflect.DeepEqual(gotMissing, wantMissing) {
				t.Fatalf("%s: Complete() = %v %v, per-pair loop %v %v", label, gotOK, gotMissing, wantOK, wantMissing)
			}
			if draw == 0 && !gotOK {
				t.Fatalf("%s: the planned shape is incomplete: %v", label, gotMissing)
			}
			shapes++
			if gotOK {
				complete++
			} else {
				incomplete++
			}
		}
	}
	if shapes < 50 || complete == 0 || incomplete == 0 {
		t.Fatalf("%d shapes, %d complete, %d incomplete: want >= 50 covering both verdicts", shapes, complete, incomplete)
	}
}
