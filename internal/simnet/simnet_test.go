package simnet

import (
	"math"
	"slices"
	"testing"
	"time"

	"nwsenv/internal/vclock"
)

// lan builds: a, b, c hosts on a switch; the switch uplinks to a router;
// d hangs off the router. All links 100 Mbps, 250 µs.
func lan(t *testing.T) (*vclock.Sim, *Network) {
	t.Helper()
	topo := NewTopology()
	topo.AddHost("a", "10.0.0.1", "a.lan", "lan")
	topo.AddHost("b", "10.0.0.2", "b.lan", "lan")
	topo.AddHost("c", "10.0.0.3", "c.lan", "lan")
	topo.AddHost("d", "10.0.1.1", "d.lan", "lan")
	topo.AddSwitch("sw")
	topo.AddRouter("r", "10.0.0.254", "r.lan")
	topo.Connect("a", "sw")
	topo.Connect("b", "sw")
	topo.Connect("c", "sw")
	topo.Connect("sw", "r")
	topo.Connect("r", "d")
	sim := vclock.New()
	return sim, NewNetwork(sim, topo)
}

// hubNet builds three hosts on a 100 Mbps hub.
func hubNet(t *testing.T) (*vclock.Sim, *Network) {
	t.Helper()
	topo := NewTopology()
	topo.AddHost("a", "10.1.0.1", "a.hub", "hub")
	topo.AddHost("b", "10.1.0.2", "b.hub", "hub")
	topo.AddHost("c", "10.1.0.3", "c.hub", "hub")
	topo.AddHub("hub", 100*Mbps)
	topo.Connect("a", "hub")
	topo.Connect("b", "hub")
	topo.Connect("c", "hub")
	sim := vclock.New()
	return sim, NewNetwork(sim, topo)
}

func runOne(t *testing.T, sim *vclock.Sim, fn func()) {
	t.Helper()
	sim.Go("test", fn)
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSingleTransferRate(t *testing.T) {
	sim, net := lan(t)
	var st TransferStats
	runOne(t, sim, func() {
		var err error
		st, err = net.Transfer("a", "b", 10_000_000, "")
		if err != nil {
			t.Error(err)
		}
	})
	// 10 MB over 100 Mbps = 0.8 s.
	want := 0.8
	if got := st.Duration.Seconds(); math.Abs(got-want) > 0.001 {
		t.Fatalf("duration %.4fs, want %.4fs", got, want)
	}
	if math.Abs(st.AvgBps-100*Mbps)/Mbps > 0.2 {
		t.Fatalf("rate %.2f Mbps, want ~100", st.AvgBps/Mbps)
	}
}

func TestSwitchIsolatesFlows(t *testing.T) {
	// a→b and c→d share no directed link: both should run at full rate.
	sim, net := lan(t)
	var ab, cd TransferStats
	sim.Go("ab", func() { ab, _ = net.Transfer("a", "b", 10_000_000, "") })
	sim.Go("cd", func() { cd, _ = net.Transfer("c", "d", 10_000_000, "") })
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	for _, st := range []TransferStats{ab, cd} {
		if math.Abs(st.AvgBps-100*Mbps)/Mbps > 1 {
			t.Fatalf("%s->%s got %.2f Mbps, want ~100 (switched paths are independent)",
				st.Src, st.Dst, st.AvgBps/Mbps)
		}
	}
}

func TestSharedDirectedLinkHalves(t *testing.T) {
	// a→b and a→c share the a→sw directed edge: each gets ~50 Mbps.
	sim, net := lan(t)
	var ab, ac TransferStats
	sim.Go("ab", func() { ab, _ = net.Transfer("a", "b", 10_000_000, "") })
	sim.Go("ac", func() { ac, _ = net.Transfer("a", "c", 10_000_000, "") })
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	for _, st := range []TransferStats{ab, ac} {
		if math.Abs(st.AvgBps-50*Mbps)/Mbps > 2 {
			t.Fatalf("%s->%s got %.2f Mbps, want ~50", st.Src, st.Dst, st.AvgBps/Mbps)
		}
	}
}

func TestHubSharesOneCollisionDomain(t *testing.T) {
	// On a hub even disjoint host pairs share capacity: a→b and... with 3
	// hosts use a→b and c→a (distinct endpoints imposs. with 3; c→b works:
	// shares only the hub domain with a→b, not any directed edge).
	sim, net := hubNet(t)
	var ab, cb TransferStats
	sim.Go("ab", func() { ab, _ = net.Transfer("a", "b", 10_000_000, "") })
	sim.Go("cb", func() { cb, _ = net.Transfer("c", "b", 10_000_000, "") })
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	// Both flows also share b's inbound edge here; the essential check is
	// each gets half of the domain. (§2.3: colliding measurements "report
	// an availability of about the half of the real value".)
	for _, st := range []TransferStats{ab, cb} {
		if math.Abs(st.AvgBps-50*Mbps)/Mbps > 2 {
			t.Fatalf("%s->%s got %.2f Mbps, want ~50", st.Src, st.Dst, st.AvgBps/Mbps)
		}
	}
}

func TestHubHalfDuplex(t *testing.T) {
	// Opposite-direction flows a→b and b→a share the hub domain even
	// though directed edges differ: each ~50. On a switch they'd both get
	// 100 (full duplex).
	sim, net := hubNet(t)
	var ab, ba TransferStats
	sim.Go("ab", func() { ab, _ = net.Transfer("a", "b", 10_000_000, "") })
	sim.Go("ba", func() { ba, _ = net.Transfer("b", "a", 10_000_000, "") })
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	for _, st := range []TransferStats{ab, ba} {
		if math.Abs(st.AvgBps-50*Mbps)/Mbps > 2 {
			t.Fatalf("hub duplex: %s->%s got %.2f Mbps, want ~50", st.Src, st.Dst, st.AvgBps/Mbps)
		}
	}
}

func TestSwitchFullDuplex(t *testing.T) {
	sim, net := lan(t)
	var ab, ba TransferStats
	sim.Go("ab", func() { ab, _ = net.Transfer("a", "b", 10_000_000, "") })
	sim.Go("ba", func() { ba, _ = net.Transfer("b", "a", 10_000_000, "") })
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	for _, st := range []TransferStats{ab, ba} {
		if math.Abs(st.AvgBps-100*Mbps)/Mbps > 1 {
			t.Fatalf("switch duplex: %s->%s got %.2f Mbps, want ~100", st.Src, st.Dst, st.AvgBps/Mbps)
		}
	}
}

func TestBottleneckWaterFilling(t *testing.T) {
	// d is behind r; make r-d a 10 Mbps link. a→d is bottlenecked at 10;
	// a concurrent b→c (sw only) keeps ~100... and a→c sharing nothing
	// with a→d except... build explicit: a→d (10 via r-d) and b→d would
	// share r→d. Use a→d + b→c: independent.
	topo := NewTopology()
	topo.AddHost("a", "10.0.0.1", "a", "lan")
	topo.AddHost("b", "10.0.0.2", "b", "lan")
	topo.AddHost("c", "10.0.0.3", "c", "lan")
	topo.AddHost("d", "10.0.1.1", "d", "lan")
	topo.AddSwitch("sw")
	topo.AddRouter("r", "10.0.0.254", "r")
	topo.Connect("a", "sw")
	topo.Connect("b", "sw")
	topo.Connect("c", "sw")
	topo.Connect("sw", "r")
	topo.Connect("r", "d", LinkBW(10*Mbps))
	sim := vclock.New()
	net := NewNetwork(sim, topo)
	var ad, bc TransferStats
	sim.Go("ad", func() { ad, _ = net.Transfer("a", "d", 2_000_000, "") })
	sim.Go("bc", func() { bc, _ = net.Transfer("b", "c", 10_000_000, "") })
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(ad.AvgBps-10*Mbps)/Mbps > 0.5 {
		t.Fatalf("a->d got %.2f Mbps, want ~10", ad.AvgBps/Mbps)
	}
	if math.Abs(bc.AvgBps-100*Mbps)/Mbps > 1 {
		t.Fatalf("b->c got %.2f Mbps, want ~100", bc.AvgBps/Mbps)
	}
}

func TestMaxMinUnusedShareRedistributed(t *testing.T) {
	// Two flows share a 100 Mbps edge, but one is limited to 10 elsewhere:
	// the other should get 90, not 50.
	topo := NewTopology()
	topo.AddHost("a", "1", "a", "x")
	topo.AddHost("b", "2", "b", "x")
	topo.AddHost("c", "3", "c", "x")
	topo.AddSwitch("sw")
	topo.AddRouter("r", "4", "r")
	topo.Connect("a", "sw")                 // shared first hop
	topo.Connect("sw", "r")                 // shared
	topo.Connect("r", "b", LinkBW(10*Mbps)) // limits a→b
	topo.Connect("r", "c")                  // full for a→c
	sim := vclock.New()
	net := NewNetwork(sim, topo)
	var ab, ac TransferStats
	sim.Go("ab", func() { ab, _ = net.Transfer("a", "b", 2_000_000, "") })
	sim.Go("ac", func() { ac, _ = net.Transfer("a", "c", 20_000_000, "") })
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(ab.AvgBps-10*Mbps)/Mbps > 0.5 {
		t.Fatalf("a->b got %.2f Mbps, want ~10", ab.AvgBps/Mbps)
	}
	// a→c runs at 90 while a→b is active, then 100: average in between.
	if ac.AvgBps < 89*Mbps || ac.AvgBps > 101*Mbps {
		t.Fatalf("a->c got %.2f Mbps, want in [90,100]", ac.AvgBps/Mbps)
	}
}

func TestAsymmetricBandwidth(t *testing.T) {
	topo := NewTopology()
	topo.AddHost("a", "1", "a", "x")
	topo.AddHost("b", "2", "b", "x")
	topo.Connect("a", "b", LinkBWAsym(10*Mbps, 100*Mbps))
	sim := vclock.New()
	net := NewNetwork(sim, topo)
	var ab, ba TransferStats
	runOne(t, sim, func() {
		ab, _ = net.Transfer("a", "b", 1_000_000, "")
		ba, _ = net.Transfer("b", "a", 1_000_000, "")
	})
	if math.Abs(ab.AvgBps-10*Mbps)/Mbps > 0.5 {
		t.Fatalf("a->b %.2f Mbps, want ~10", ab.AvgBps/Mbps)
	}
	if math.Abs(ba.AvgBps-100*Mbps)/Mbps > 1 {
		t.Fatalf("b->a %.2f Mbps, want ~100", ba.AvgBps/Mbps)
	}
}

func TestPingRTT(t *testing.T) {
	sim, net := lan(t)
	var rtt time.Duration
	runOne(t, sim, func() { rtt, _ = net.Ping("a", "d", 4) })
	// a-sw-r-d: 3 hops × 250 µs each way = 1.5 ms + tiny serialization.
	if rtt < 1500*time.Microsecond || rtt > 1600*time.Microsecond {
		t.Fatalf("rtt %v, want ~1.5ms", rtt)
	}
}

func TestConnectTime(t *testing.T) {
	sim, net := lan(t)
	var ct time.Duration
	runOne(t, sim, func() { ct, _ = net.ConnectTime("a", "b") })
	// 3 one-way trips of 2 hops × 250 µs = 1.5 ms.
	if ct != 1500*time.Microsecond {
		t.Fatalf("connect %v, want 1.5ms", ct)
	}
}

func TestTracerouteShowsOnlyRouters(t *testing.T) {
	sim, net := lan(t)
	_ = sim
	hops, err := net.Topology().Traceroute("a", "d")
	if err != nil {
		t.Fatal(err)
	}
	if len(hops) != 1 || hops[0].Identifier != "r.lan" {
		t.Fatalf("hops %+v, want single router r.lan (switch must be invisible)", hops)
	}
}

// TestTracerouteToItself: a one-node path has no hops between its ends,
// and is an error, not a slice out of range.
func TestTracerouteToItself(t *testing.T) {
	_, net := lan(t)
	if hops, err := net.Topology().Traceroute("a", "a"); err == nil {
		t.Fatalf("traceroute a->a gave %+v, want an error", hops)
	}
}

func TestTracerouteNonResponding(t *testing.T) {
	topo := NewTopology()
	topo.AddHost("a", "1", "a", "x")
	topo.AddHost("b", "2", "b", "x")
	topo.AddRouter("r1", "3", "r1")
	topo.AddRouter("r2", "4", "", WithNoTracerouteResponse())
	topo.Connect("a", "r1")
	topo.Connect("r1", "r2")
	topo.Connect("r2", "b")
	hops, err := topo.Traceroute("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if len(hops) != 2 {
		t.Fatalf("hops %+v", hops)
	}
	if hops[0].Identifier != "r1" || hops[1].Identifier != "*" {
		t.Fatalf("hops %+v, want [r1 *]", hops)
	}
}

func TestTracerouteNoDNSShowsIP(t *testing.T) {
	topo := NewTopology()
	topo.AddHost("a", "1", "a", "x")
	topo.AddHost("b", "2", "b", "x")
	topo.AddRouter("r", "192.168.254.1", "")
	topo.Connect("a", "r")
	topo.Connect("r", "b")
	hops, _ := topo.Traceroute("a", "b")
	if len(hops) != 1 || hops[0].Identifier != "192.168.254.1" {
		t.Fatalf("hops %+v, want bare IP", hops)
	}
}

func TestFirewallZones(t *testing.T) {
	topo := NewTopology()
	topo.AddHost("pub", "1", "pub", "x", WithZones("public"))
	topo.AddHost("priv", "2", "priv", "y", WithZones("private"))
	topo.AddHost("gw", "3", "gw", "y", WithZones("public", "private"))
	topo.AddRouter("r", "4", "r")
	topo.Connect("pub", "r")
	topo.Connect("gw", "r")
	topo.Connect("priv", "gw")
	sim := vclock.New()
	net := NewNetwork(sim, topo)
	runOne(t, sim, func() {
		if _, err := net.Transfer("pub", "priv", 100, ""); err == nil {
			t.Error("firewall should block pub->priv")
		}
		if _, err := net.Transfer("pub", "gw", 100, ""); err != nil {
			t.Errorf("pub->gw should pass: %v", err)
		}
		if _, err := net.Transfer("gw", "priv", 100, ""); err != nil {
			t.Errorf("gw->priv should pass: %v", err)
		}
	})
}

func TestRouteOverrideAsymmetricPath(t *testing.T) {
	// Diamond: a - r1 - b fast; a - r2 - b slow. Force a→b through r2.
	topo := NewTopology()
	topo.AddHost("a", "1", "a", "x")
	topo.AddHost("b", "2", "b", "x")
	topo.AddRouter("r1", "3", "r1")
	topo.AddRouter("r2", "4", "r2")
	topo.Connect("a", "r1")
	topo.Connect("r1", "b")
	topo.Connect("a", "r2", LinkBW(10*Mbps))
	topo.Connect("r2", "b", LinkBW(10*Mbps))
	topo.SetRoute("a", "b", []string{"a", "r2", "b"})
	fwd, _ := topo.Path("a", "b")
	rev, _ := topo.Path("b", "a")
	if fwd[1] != "r2" {
		t.Fatalf("forward path %v, want via r2", fwd)
	}
	if rev[1] != "r1" {
		t.Fatalf("reverse path %v, want via r1 (shortest)", rev)
	}
	fbw, _ := topo.AloneBandwidth("a", "b")
	rbw, _ := topo.AloneBandwidth("b", "a")
	if fbw != 10*Mbps || rbw != 100*Mbps {
		t.Fatalf("asymmetric bw %v/%v, want 10/100 Mbps", fbw/Mbps, rbw/Mbps)
	}
}

func TestVLANForcesRouterPath(t *testing.T) {
	// Two hosts on one switch but in different VLANs: the switch port
	// link to each host carries only its VLAN, so traffic detours via the
	// router-on-a-stick that carries both.
	topo := NewTopology()
	topo.AddHost("a", "1", "a", "x", WithVLAN(10))
	topo.AddHost("b", "2", "b", "x", WithVLAN(20))
	topo.AddSwitch("sw")
	topo.AddRouter("r", "3", "r")
	topo.Connect("a", "sw", LinkVLANs(10))
	topo.Connect("b", "sw", LinkVLANs(20))
	topo.Connect("sw", "r", LinkVLANs(10, 20))
	p, err := topo.Path("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	// Must traverse r: a sw r sw b.
	found := false
	for _, n := range p {
		if n == "r" {
			found = true
		}
	}
	if !found {
		t.Fatalf("path %v does not traverse the router despite VLAN split", p)
	}
}

func TestCollisionAccounting(t *testing.T) {
	sim, net := hubNet(t)
	sim.Go("p1", func() { net.Transfer("a", "b", 1_000_000, "probe:ab") })
	sim.Go("p2", func() { net.Transfer("c", "b", 1_000_000, "probe:cb") })
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if len(net.Collisions()) == 0 {
		t.Fatal("expected a probe collision on the hub")
	}
	bytes, count := net.ProbeTraffic()
	if bytes != 2_000_000 || count != 2 {
		t.Fatalf("probe traffic %d bytes / %d probes", bytes, count)
	}
}

func TestNoCollisionWhenSequential(t *testing.T) {
	sim, net := hubNet(t)
	runOne(t, sim, func() {
		net.Transfer("a", "b", 1_000_000, "probe:1")
		net.Transfer("c", "b", 1_000_000, "probe:2")
	})
	if n := len(net.Collisions()); n != 0 {
		t.Fatalf("%d collisions for sequential probes", n)
	}
}

func TestSharedResourcesPredicate(t *testing.T) {
	sim, net := lan(t)
	_ = sim
	topo := net.Topology()
	shared, err := topo.SharedResources("a", "b", "a", "c")
	if err != nil || !shared {
		t.Fatalf("a->b and a->c share a:sw edge; got shared=%v err=%v", shared, err)
	}
	shared, err = topo.SharedResources("a", "b", "c", "d")
	if err != nil || shared {
		t.Fatalf("a->b and c->d are disjoint; got shared=%v err=%v", shared, err)
	}
}

func TestTransferErrors(t *testing.T) {
	sim, net := lan(t)
	runOne(t, sim, func() {
		if _, err := net.Transfer("a", "a", 100, ""); err == nil {
			t.Error("self transfer should fail")
		}
		if _, err := net.Transfer("a", "nope", 100, ""); err == nil {
			t.Error("unknown destination should fail")
		}
		if _, err := net.Transfer("a", "sw", 100, ""); err == nil {
			t.Error("transfer to a switch should fail")
		}
	})
}

func TestValidation(t *testing.T) {
	topo := NewTopology()
	if err := topo.Validate(); err == nil {
		t.Fatal("empty topology should not validate")
	}
	topo.AddHost("a", "1", "a", "x")
	if err := topo.Validate(); err == nil {
		t.Fatal("isolated node should not validate")
	}
	topo.AddHost("b", "2", "b", "x")
	topo.Connect("a", "b")
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestLoadGenPerturbsProbe(t *testing.T) {
	sim, net := hubNet(t)
	LoadGen{Src: "a", Dst: "b", Bytes: 5_000_000, Period: 100 * time.Millisecond, Seed: 1, Until: 10 * time.Second}.Start(net)
	var st TransferStats
	sim.Go("probe", func() {
		sim.Sleep(200 * time.Millisecond)
		st, _ = net.Transfer("c", "b", 5_000_000, "probe")
	})
	if err := sim.RunUntil(11 * time.Second); err != nil {
		t.Fatal(err)
	}
	if st.AvgBps >= 95*Mbps {
		t.Fatalf("probe saw %.2f Mbps despite background load", st.AvgBps/Mbps)
	}
}

func TestDeterministicReplay(t *testing.T) {
	type replay struct {
		load, probes []TransferStats
		traffic      []TrafficRow
	}
	run := func() replay {
		var r replay
		sim, net := hubNet(t)
		LoadGen{Src: "a", Dst: "b", Bytes: 2_000_000, Period: 50 * time.Millisecond, Jitter: 0.5, Seed: 7, Until: 2 * time.Second, Log: &r.load}.Start(net)
		sim.Go("probe", func() {
			for i := 0; i < 5; i++ {
				st, _ := net.Transfer("c", "b", 1_000_000, "p")
				r.probes = append(r.probes, st)
				sim.Sleep(100 * time.Millisecond)
			}
		})
		sim.RunUntil(3 * time.Second)
		r.traffic = net.Traffic()
		return r
	}
	r1, r2 := run(), run()
	if len(r1.load) == 0 || !slices.Equal(r1.load, r2.load) || !slices.Equal(r1.probes, r2.probes) {
		t.Fatalf("transfer results differ:\n%+v %+v\n%+v %+v", r1.load, r1.probes, r2.load, r2.probes)
	}
	if !slices.Equal(r1.traffic, r2.traffic) {
		t.Fatalf("traffic tables differ:\n%+v\n%+v", r1.traffic, r2.traffic)
	}
}
