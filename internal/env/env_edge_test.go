package env_test

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	. "nwsenv/internal/env"
	"nwsenv/internal/gridml"
	"nwsenv/internal/simnet"
	"nwsenv/internal/topo"
	"nwsenv/internal/vclock"
)

// vlanLAN builds two VLANs on one physical switch joined by a
// router-on-a-stick whose stick link has the given capacity.
func vlanLAN(stickMbps float64) *simnet.Topology {
	tp := simnet.NewTopology()
	tp.AddSwitch("sw")
	tp.AddRouter("r", "10.0.0.254", "r.lan")
	tp.AddRouter("r-out", "193.51.1.254", "r-out")
	tp.AddHost("world", "193.51.1.1", "world.example.net", "example.net")
	tp.Connect("sw", "r", simnet.LinkVLANs(10, 20), simnet.LinkBW(stickMbps*simnet.Mbps))
	tp.Connect("r", "r-out")
	tp.Connect("r-out", "world")
	for i, h := range []string{"staff1", "staff2", "staff3"} {
		tp.AddHost(h, "10.0.10."+string(rune('1'+i)), h+".lan", "lan", simnet.WithVLAN(10))
		tp.Connect(h, "sw", simnet.LinkVLANs(10))
	}
	for i, h := range []string{"lap1", "lap2", "lap3"} {
		tp.AddHost(h, "10.0.20."+string(rune('1'+i)), h+".lan", "lan", simnet.WithVLAN(20))
		tp.Connect(h, "sw", simnet.LinkVLANs(20))
	}
	tp.ExternalTarget = "world"
	return tp
}

// TestVLANVisibility documents the paper's §3.1 VLAN concern from both
// sides. With a full-capacity inter-VLAN router, the logical split is
// *invisible* to a purely bandwidth-based mapper ("extra provisions are
// needed to take such things into account when mapping the network");
// the merged network is still safe to monitor as one switched clique.
// When the router-on-a-stick is a bottleneck — the common reality — the
// host-to-host ratio test splits the VLANs.
func TestVLANVisibility(t *testing.T) {
	hosts := []string{"staff1", "staff2", "staff3", "lap1", "lap2", "lap3"}

	// Full-capacity stick: one merged switched network.
	sim := vclock.New()
	net := simnet.NewNetwork(sim, vlanLAN(100))
	res := runMapper(t, net, Config{Master: "staff1", Hosts: hosts})
	staff := findNetworkWith(res.Networks, "staff2.lan")
	laps := findNetworkWith(res.Networks, "lap1.lan")
	if staff == nil || laps == nil {
		t.Fatalf("networks: %+v", res.Networks)
	}
	if staff != laps {
		t.Fatal("equal-capacity VLANs should be indistinguishable to ENV (the §3.1 concern)")
	}
	// Some jam rotations pair hosts across the VLANs and share the stick,
	// dragging the averaged ratio to the 0.9 boundary: the run lands on
	// Switched or on the paper's "values are not significant enough"
	// (Unknown) — never on Shared.
	if staff.Class == Shared {
		t.Fatalf("merged VLAN network %v; must not be shared", staff.Class)
	}

	// 20 Mbps stick: the inter-VLAN ratio (100/20 = 5 > 3) splits them.
	sim2 := vclock.New()
	net2 := simnet.NewNetwork(sim2, vlanLAN(20))
	res2 := runMapper(t, net2, Config{Master: "staff1", Hosts: hosts})
	staff2 := findNetworkWith(res2.Networks, "staff2.lan")
	laps2 := findNetworkWith(res2.Networks, "lap1.lan")
	if staff2 == nil || laps2 == nil {
		t.Fatalf("networks: %+v", res2.Networks)
	}
	if staff2 == laps2 {
		t.Fatal("bottlenecked VLANs must split on the host-to-host ratio")
	}
}

// TestMappingFailsCleanlyOnFirewalledHost: including an unreachable host
// in a run surfaces a probe error instead of wrong results.
func TestMappingFailsCleanlyOnFirewalledHost(t *testing.T) {
	e := topo.NewEnsLyon()
	sim := vclock.New()
	net := simnet.NewNetwork(sim, e.Topo)
	var err error
	sim.Go("map", func() {
		// the-doors cannot probe sci1 through the firewall.
		_, err = mapSim(net, Config{
			Master: "the-doors",
			Hosts:  []string{"the-doors", "canaria", "sci1"},
		})
	})
	if er := sim.RunUntil(time.Hour); er != nil {
		t.Fatal(er)
	}
	if err == nil {
		t.Fatal("expected a probe error for the firewalled host")
	}
	if !strings.Contains(err.Error(), "firewall") && !strings.Contains(err.Error(), "probe") {
		t.Fatalf("unhelpful error: %v", err)
	}
}

// TestMappingUnderBackgroundLoad: §4.3 reliability — moderate cross
// traffic must not flip the hub/switch classifications (the thresholds
// have margin).
func TestMappingUnderBackgroundLoad(t *testing.T) {
	e := topo.NewEnsLyon()
	sim := vclock.New()
	net := simnet.NewNetwork(sim, e.Topo)
	// Bursty background flows inside the private domain while the inside
	// run maps it: ~10% duty on the sci switch.
	backgroundLoad(net, "sci5", "sci6", 1_000_000, 500*time.Millisecond, 42)
	backgroundLoad(net, "myri1", "myri2", 300_000, time.Second, 43)
	res := runMapper(t, net, Config{
		Master: e.InsideMaster, Hosts: e.InsideHosts, Names: e.InsideNames,
	})
	sci := findNetworkWith(res.Networks, "sci3.popc.private")
	if sci == nil || sci.Class != Switched {
		t.Fatalf("sci misclassified under load: %+v", sci)
	}
	myri := findNetworkWith(res.Networks, "myri1.popc.private")
	if myri == nil || myri.Class != Shared {
		t.Fatalf("myri misclassified under load: %+v", myri)
	}
}

// backgroundLoad starts bursty, seeded cross traffic for the first
// virtual hour: every period, jittered by up to ±50%, a transfer of
// bytes from src to dst with probability 0.1.
func backgroundLoad(net *simnet.Network, src, dst string, bytes int64, period time.Duration, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	sim := net.Sim()
	sim.Go("loadgen:"+src+"->"+dst, func() {
		for {
			sim.Sleep(time.Duration(float64(period) * (1 + 0.5*(2*rng.Float64()-1))))
			if sim.Now() >= time.Hour {
				return
			}
			if rng.Float64() > 0.1 {
				continue
			}
			if _, err := net.Transfer(src, dst, bytes, ""); err != nil {
				return
			}
		}
	})
}

// TestStrictPaperOutsideRunMissesHub2: with the unmodified §4.2.2.4
// experiment, the outside run classifies the gateways' hub as switched —
// the bottleneck masks the sharing. This is the blind spot the merge
// (and our fallback) repairs; pinning it keeps the ablation honest.
func TestStrictPaperOutsideRunMissesHub2(t *testing.T) {
	e := topo.NewEnsLyon()
	sim := vclock.New()
	net := simnet.NewNetwork(sim, e.Topo)
	res := runMapper(t, net, Config{
		Master: e.OutsideMaster, Hosts: e.OutsideHosts, Names: e.OutsideNames,
		StrictPaper: true,
	})
	gws := findNetworkWith(res.Networks, "popc.ens-lyon.fr")
	if gws == nil {
		t.Fatal("no gateway network")
	}
	if gws.Class != Switched {
		t.Fatalf("strict-paper outside run classified hub2 as %v; the documented blind spot expects switched", gws.Class)
	}
	// The non-strict run repairs it.
	sim2 := vclock.New()
	net2 := simnet.NewNetwork(sim2, topo.NewEnsLyon().Topo)
	res2 := runMapper(t, net2, Config{
		Master: e.OutsideMaster, Hosts: e.OutsideHosts, Names: e.OutsideNames,
	})
	gws2 := findNetworkWith(res2.Networks, "popc.ens-lyon.fr")
	if gws2.Class != Shared {
		t.Fatalf("fallback classification %v, want shared", gws2.Class)
	}
}

// TestMasterOnlyRun: a degenerate single-host mapping yields one
// unknown network containing the master and no probes.
func TestMasterOnlyRun(t *testing.T) {
	e := topo.NewEnsLyon()
	sim := vclock.New()
	net := simnet.NewNetwork(sim, e.Topo)
	res := runMapper(t, net, Config{Master: "canaria", Hosts: []string{"canaria"}})
	if len(res.Networks) != 1 {
		t.Fatalf("networks %d", len(res.Networks))
	}
	nw := res.Networks[0]
	if !nw.ContainsMaster || nw.Class != Unknown || res.Stats.Probes != 0 {
		t.Fatalf("degenerate run: %+v probes=%d", nw, res.Stats.Probes)
	}
}

// TestNonRespondingRouterKeptPositionally: a silent router appears as a
// "*" hop; hosts behind it still cluster correctly (§4.3 "Dropped
// traceroute": "clusters are still split based on bandwidth measures").
func TestNonRespondingRouterKeptPositionally(t *testing.T) {
	tp := simnet.NewTopology()
	tp.AddRouter("r1", "10.0.0.254", "r1", simnet.WithNoTracerouteResponse())
	tp.AddRouter("r-out", "193.51.1.254", "r-out")
	tp.AddHost("world", "193.51.1.1", "world.example.net", "example.net")
	tp.AddSwitch("sw")
	tp.Connect("sw", "r1")
	tp.Connect("r1", "r-out")
	tp.Connect("r-out", "world")
	for _, h := range []string{"x1", "x2", "x3"} {
		tp.AddHost(h, h, h+".lan", "lan")
		tp.Connect(h, "sw")
	}
	tp.ExternalTarget = "world"
	sim := vclock.New()
	net := simnet.NewNetwork(sim, tp)
	res := runMapper(t, net, Config{Master: "x1", Hosts: []string{"x1", "x2", "x3"}})
	nw := findNetworkWith(res.Networks, "x2.lan")
	if nw == nil {
		t.Fatalf("cluster lost behind silent router: %+v", res.Networks)
	}
	if nw.Class != Switched {
		t.Fatalf("class %v", nw.Class)
	}
	// The structural tree contains the "*" hop.
	starSeen := false
	res.Struct.Walk(func(n *StructNode) {
		if n.Hop == "*" {
			starSeen = true
		}
	})
	if !starSeen {
		t.Fatal("silent router should appear as a * hop")
	}
}

// TestProbeAccountingMonotonic: the mapper's cost accounting agrees
// with the network's probe counters and consumes virtual time.
func TestProbeAccountingMonotonic(t *testing.T) {
	e := topo.NewEnsLyon()
	sim := vclock.New()
	net := simnet.NewNetwork(sim, e.Topo)
	res := runMapper(t, net, Config{Master: e.InsideMaster, Hosts: e.InsideHosts, Names: e.InsideNames})
	if res.Stats.Probes <= 0 || res.Stats.ProbeBytes <= 0 {
		t.Fatal("no probe accounting")
	}
	if res.Stats.Traceroutes != len(e.InsideHosts) {
		t.Fatalf("traceroutes %d, want %d", res.Stats.Traceroutes, len(e.InsideHosts))
	}
	if res.Stats.Finished <= res.Stats.Started {
		t.Fatal("mapping consumed no virtual time")
	}
	_, count := net.ProbeTraffic()
	if count != res.Stats.Probes {
		t.Fatalf("network saw %d probes, mapper counted %d", count, res.Stats.Probes)
	}
}

// TestPairwiseSplitsSilentSegments: the case where pairwise tests are
// actually numerous: two segments hidden behind silent routers
// (identical "*" traceroute chains merge them into ONE structural
// cluster) with equal 10 Mbps uplinks (no host-to-host split). Only the
// §4.2.2.2 experiments can separate them, and cross-segment pairs are
// independent, so the run keeps testing pairs that never union.
func TestPairwiseSplitsSilentSegments(t *testing.T) {
	tp := simnet.NewTopology()
	tp.AddRouter("root", "10.255.0.254", "root.lan")
	tp.AddRouter("r-out", "193.51.1.254", "r-out")
	tp.AddHost("world", "193.51.1.1", "world.example.net", "example.net")
	tp.Connect("root", "r-out")
	tp.Connect("r-out", "world")
	tp.AddHost("m", "10.255.0.1", "m.lan", "lan")
	tp.Connect("m", "root")
	for _, side := range []string{"a", "b"} {
		r := "r-" + side
		sw := "sw-" + side
		tp.AddRouter(r, "10.1.0.254", "", simnet.WithNoTracerouteResponse())
		tp.AddSwitch(sw)
		tp.Connect(r, "root", simnet.LinkBW(10*simnet.Mbps))
		tp.Connect(sw, r)
		for i := 1; i <= 3; i++ {
			h := side + string(rune('0'+i))
			tp.AddHost(h, h, h+".lan", "lan")
			tp.Connect(h, sw)
		}
	}
	tp.ExternalTarget = "world"
	hosts := []string{"m", "a1", "a2", "a3", "b1", "b2", "b3"}
	res := runMapper(t, simnet.NewNetwork(vclock.New(), tp), Config{Master: "m", Hosts: hosts})
	na := findNetworkWith(res.Networks, "a1.lan")
	nb := findNetworkWith(res.Networks, "b1.lan")
	if na == nil || nb == nil {
		t.Fatalf("segments unmapped: %+v", res.Networks)
	}
	if na == nb {
		t.Fatalf("independent segments not split (probes=%d)", res.Stats.Probes)
	}
}

// BenchmarkEnsLyonInsideMapping measures the real-time cost of a full
// inside-run mapping campaign.
func BenchmarkEnsLyonInsideMapping(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := topo.NewEnsLyon()
		sim := vclock.New()
		net := simnet.NewNetwork(sim, e.Topo)
		var err error
		sim.Go("map", func() {
			_, err = mapSim(net, Config{Master: e.InsideMaster, Hosts: e.InsideHosts, Names: e.InsideNames})
		})
		if er := sim.RunUntil(24 * time.Hour); er != nil {
			b.Fatal(er)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

// TestBidirectionalDetectsAsymmetry: the §4.3 future work, implemented.
// A one-way run reports 10 Mbps for the gateways and is blind to the
// 100 Mbps reverse path (E10); the bidirectional option measures both
// and flags the asymmetry.
func TestBidirectionalDetectsAsymmetry(t *testing.T) {
	e := topo.NewEnsLyon()
	sim := vclock.New()
	net := simnet.NewNetwork(sim, e.Topo)
	res := runMapper(t, net, Config{
		Master: e.OutsideMaster, Hosts: e.OutsideHosts, Names: e.OutsideNames,
		Bidirectional: true,
	})
	gws := findNetworkWith(res.Networks, "popc.ens-lyon.fr")
	if gws == nil {
		t.Fatal("no gateway network")
	}
	if gws.BaseBW > 12 {
		t.Fatalf("forward BW %.1f, want ~10", gws.BaseBW)
	}
	if gws.ReverseBW < 80 {
		t.Fatalf("reverse BW %.1f, want ~100", gws.ReverseBW)
	}
	if !gws.Asymmetric(DefaultThresholds().BWRatio) {
		t.Fatal("asymmetric route not flagged")
	}
	// Hub1 is symmetric.
	h1 := findNetworkWith(res.Networks, "canaria.ens-lyon.fr")
	if h1.Asymmetric(DefaultThresholds().BWRatio) {
		t.Fatalf("hub1 flagged asymmetric: fwd %.1f rev %.1f", h1.BaseBW, h1.ReverseBW)
	}
	// The reverse value survives a GridML round trip.
	enc, err := res.Doc.Encode()
	if err != nil {
		t.Fatal(err)
	}
	doc, err := gridml.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	nets, err := FromGridML(doc)
	if err != nil {
		t.Fatal(err)
	}
	back := findNetworkWith(nets, "popc.ens-lyon.fr")
	if back == nil || back.ReverseBW < 80 {
		t.Fatalf("reverse BW lost in GridML: %+v", back)
	}
	// Cost: roughly one extra probe per host over the one-way run.
	sim2 := vclock.New()
	net2 := simnet.NewNetwork(sim2, topo.NewEnsLyon().Topo)
	oneWay := runMapper(t, net2, Config{Master: e.OutsideMaster, Hosts: e.OutsideHosts, Names: e.OutsideNames})
	extra := res.Stats.Probes - oneWay.Stats.Probes
	if extra != len(e.OutsideHosts)-1 {
		t.Fatalf("bidirectional overhead %d probes, want %d", extra, len(e.OutsideHosts)-1)
	}
}
