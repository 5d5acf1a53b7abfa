package sensor

import (
	"strings"
	"testing"

	"nwsenv/internal/env"
	"nwsenv/internal/simnet"
	"nwsenv/internal/vclock"
)

func rig(t *testing.T) (*vclock.Sim, *simnet.Network) {
	t.Helper()
	topo := simnet.NewTopology()
	topo.AddHost("a", "10.0.0.1", "a.lan", "lan")
	topo.AddHost("b", "10.0.0.2", "b.lan", "lan")
	topo.AddHost("m", "10.0.0.3", "m.lan", "lan")
	topo.AddSwitch("sw")
	topo.Connect("a", "sw")
	topo.Connect("b", "sw")
	topo.Connect("m", "sw")
	sim := vclock.New()
	return sim, simnet.NewNetwork(sim, topo)
}

func TestLinkExperimentsProduceThreeSeries(t *testing.T) {
	sim, net := rig(t)
	var ms []Measurement
	var err error
	sim.Go("probe", func() {
		l := NewLink("a", "b")
		ms, err = LinkExperiments(env.SimSubstrate{Net: net}, sim.Now, &l, "test")
	})
	if e := sim.Run(); e != nil {
		t.Fatal(e)
	}
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 3 {
		t.Fatalf("measurements %d", len(ms))
	}
	bySeries := map[string]float64{}
	for _, m := range ms {
		bySeries[m.Series] = m.Value
	}
	// Latency: 2 hops × 250 µs each way = 1 ms RTT.
	if v := bySeries[LatencySeries("a", "b")]; v < 0.9 || v > 1.2 {
		t.Fatalf("latency %v ms, want ~1", v)
	}
	// Bandwidth ~100 Mbps.
	if v := bySeries[BandwidthSeries("a", "b")]; v < 80 || v > 105 {
		t.Fatalf("bandwidth %v Mbps, want ~100", v)
	}
	// Connect time 1.5 RTT = 1.5 ms.
	if v := bySeries[ConnectSeries("a", "b")]; v < 1.4 || v > 1.6 {
		t.Fatalf("connect %v ms, want ~1.5", v)
	}
}

func TestLinkExperimentsErrorOnUnreachable(t *testing.T) {
	sim, net := rig(t)
	var err error
	sim.Go("probe", func() {
		l := NewLink("a", "ghost")
		_, err = LinkExperiments(env.SimSubstrate{Net: net}, sim.Now, &l, "t")
	})
	if e := sim.Run(); e != nil {
		t.Fatal(e)
	}
	if err == nil {
		t.Fatal("expected error")
	}
}

func TestSeriesNames(t *testing.T) {
	if LatencySeries("x", "y") != "latency.x.y" ||
		BandwidthSeries("x", "y") != "bandwidth.x.y" ||
		ConnectSeries("x", "y") != "connectTime.x.y" {
		t.Fatal("series naming changed")
	}
	if strings.Contains(BandwidthSeries("a", "b"), " ") {
		t.Fatal("series names must not contain spaces")
	}
}
