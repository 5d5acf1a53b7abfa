package nwsenv

import (
	"context"
	"math"
	"testing"
	"time"

	"nwsenv/internal/core"
	"nwsenv/internal/nws/proto"
	"nwsenv/internal/platform"
	"nwsenv/internal/simnet"
	"nwsenv/internal/topo"
	"nwsenv/internal/vclock"
)

// ENV's probe law on one topology family, measured here, not stated by
// the paper: on SyntheticGrid{Sites: 4, SwitchesPerSite: 5,
// HostsPerSwitch: h}, one ENV run over every host (topo.MapAll through
// core.Pipeline.Map) makes exactly probeLawSlope·hosts + probeLawBase
// bandwidth probes, and its virtual time is linear in hosts.
// TestENVProbeLaw checks both at each of probeLawSizes, and the ledger's
// probe-law block renders the law into EXPERIMENTS.md beside E4.
const (
	probeLawSlope = 3
	probeLawBase  = 33
	// probeLawStep bounds how far the virtual seconds per host of each
	// step between sizes may stray from those of the whole range.
	probeLawStep = 0.05
)

// probeLawSizes are the HostsPerSwitch values the law is checked at.
var probeLawSizes = []int{2, 5, 10}

func probeLawGrid(h int) topo.GridConfig {
	return topo.GridConfig{Sites: 4, SwitchesPerSite: 5, HostsPerSwitch: h, Seed: 1}
}

// probeLawHosts is the host count of the grid with h hosts a switch.
func probeLawHosts(h int) int {
	g := probeLawGrid(h)
	return g.Sites * g.SwitchesPerSite * h
}

func TestENVProbeLaw(t *testing.T) {
	var hosts, secs []float64
	for _, h := range probeLawSizes {
		tp, _ := topo.SyntheticGrid(probeLawGrid(h))
		sim := vclock.New()
		net := simnet.NewNetwork(sim, tp)
		pl := core.NewPipeline(platform.NewSimPlatform(net, proto.NewSimTransport(net)))
		runs := topo.MapAll(tp)
		var m *core.Mapping
		var err error
		var took time.Duration
		sim.Go("map", func() {
			start := sim.Now()
			m, err = pl.Map(context.Background(), runs...)
			took = sim.Now() - start
		})
		if err := sim.Run(); err != nil {
			t.Fatal(err)
		}
		if err != nil {
			t.Fatal(err)
		}
		n := len(runs[0].Hosts)
		if n != probeLawHosts(h) {
			t.Fatalf("h=%d: MapAll maps %d hosts, want %d", h, n, probeLawHosts(h))
		}
		probes := 0
		for _, r := range m.Results {
			probes += r.Stats.Probes
		}
		if want := probeLawSlope*n + probeLawBase; probes != want {
			t.Errorf("h=%d: %d hosts mapped in %d probes, want %d·hosts + %d = %d", h, n, probes, probeLawSlope, probeLawBase, want)
		}
		t.Logf("h=%d: %d hosts, %d probes, %v virtual", h, n, probes, took)
		hosts, secs = append(hosts, float64(n)), append(secs, took.Seconds())
	}
	last := len(hosts) - 1
	whole := (secs[last] - secs[0]) / (hosts[last] - hosts[0])
	for i := 1; i <= last; i++ {
		step := (secs[i] - secs[i-1]) / (hosts[i] - hosts[i-1])
		if math.Abs(step/whole-1) > probeLawStep {
			t.Errorf("from %g to %g hosts Map takes %.4f virtual s a host, %.4f over the whole range: not linear within %g",
				hosts[i-1], hosts[i], step, whole, probeLawStep)
		}
	}
}
