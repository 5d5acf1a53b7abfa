package topo

import (
	"testing"
	"time"

	"nwsenv/internal/simnet"
	"nwsenv/internal/vclock"
)

// reachable reports whether src may exchange traffic with dst: both
// share a firewall zone and a route joins them.
func reachable(tp *simnet.Topology, src, dst string) bool {
	a, b := tp.Node(src), tp.Node(dst)
	if a == nil || b == nil || !a.SharesZone(b) {
		return false
	}
	_, err := tp.Path(src, dst)
	return err == nil
}

func TestEnsLyonValidates(t *testing.T) {
	e := NewEnsLyon()
	if err := e.Topo.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(e.Topo.Hosts()) != 15 { // 14 lab hosts + world
		t.Fatalf("hosts: %d", len(e.Topo.Hosts()))
	}
}

func TestEnsLyonStructuralRoutes(t *testing.T) {
	e := NewEnsLyon()
	// Fig. 2: canaria exits via 140.77.13.1 then 192.168.254.1.
	hops, err := e.Topo.Traceroute("canaria", "world")
	if err != nil {
		t.Fatal(err)
	}
	if len(hops) != 2 || hops[0].Identifier != "140.77.13.1" || hops[1].Identifier != "192.168.254.1" {
		t.Fatalf("canaria hops %+v", hops)
	}
	// Gateways exit via routlhpc, routeur-backbone, root.
	hops, _ = e.Topo.Traceroute("popc0", "world")
	if len(hops) != 3 || hops[0].Identifier != "routlhpc" || hops[1].Identifier != "routeur-backbone" {
		t.Fatalf("popc0 hops %+v", hops)
	}
	// Private hosts exit through their forwarding gateway, which shows
	// up as a hop.
	hops, _ = e.Topo.Traceroute("sci3", "world")
	if len(hops) != 4 || hops[0].Identifier != "sci0.ens-lyon.fr" && hops[0].Identifier != "sci.ens-lyon.fr" {
		t.Fatalf("sci3 hops %+v", hops)
	}
}

func TestEnsLyonAsymmetricBottleneck(t *testing.T) {
	e := NewEnsLyon()
	in, err := e.Topo.AloneBandwidth("the-doors", "popc0")
	if err != nil {
		t.Fatal(err)
	}
	out, err := e.Topo.AloneBandwidth("popc0", "the-doors")
	if err != nil {
		t.Fatal(err)
	}
	if in != 10*simnet.Mbps {
		t.Fatalf("inbound %v Mbps, want 10 (§4.1 bottleneck)", in/simnet.Mbps)
	}
	if out != 100*simnet.Mbps {
		t.Fatalf("outbound %v Mbps, want 100 (asymmetric route)", out/simnet.Mbps)
	}
}

func TestEnsLyonFirewall(t *testing.T) {
	e := NewEnsLyon()
	if reachable(e.Topo, "the-doors", "sci1") {
		t.Fatal("firewall must block public->private")
	}
	if !reachable(e.Topo, "the-doors", "popc0") {
		t.Fatal("gateway must be publicly reachable")
	}
	if !reachable(e.Topo, "popc0", "sci1") {
		t.Fatal("gateway must reach private hosts")
	}
	if !reachable(e.Topo, "sci1", "myri1") {
		t.Fatal("private hosts must reach each other")
	}
}

func TestEnsLyonHubContention(t *testing.T) {
	// The hub-2 physics: two concurrent transfers on the gateways' hub
	// halve each other (the basis of the Shared classification).
	e := NewEnsLyon()
	sim := vclock.New()
	net := simnet.NewNetwork(sim, e.Topo)
	var a, b simnet.TransferStats
	sim.Go("a", func() { a, _ = net.Transfer("popc0", "myri0", 5_000_000, "") })
	sim.Go("b", func() { b, _ = net.Transfer("sci0", "myri0", 5_000_000, "") })
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if a.AvgBps > 60*simnet.Mbps || b.AvgBps > 60*simnet.Mbps {
		t.Fatalf("hub2 flows not sharing: %.1f / %.1f Mbps", a.AvgBps/simnet.Mbps, b.AvgBps/simnet.Mbps)
	}
	// The sci switch isolates disjoint pairs.
	var c, d simnet.TransferStats
	sim2 := vclock.New()
	net2 := simnet.NewNetwork(sim2, NewEnsLyon().Topo)
	sim2.Go("c", func() { c, _ = net2.Transfer("sci1", "sci2", 5_000_000, "") })
	sim2.Go("d", func() { d, _ = net2.Transfer("sci3", "sci4", 5_000_000, "") })
	if err := sim2.Run(); err != nil {
		t.Fatal(err)
	}
	if c.AvgBps < 95*simnet.Mbps || d.AvgBps < 95*simnet.Mbps {
		t.Fatalf("switch flows interfering: %.1f / %.1f Mbps", c.AvgBps/simnet.Mbps, d.AvgBps/simnet.Mbps)
	}
}

func TestDumbbell(t *testing.T) {
	d := Dumbbell(3, 10*simnet.Mbps)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	bw, err := d.AloneBandwidth("l0", "r0")
	if err != nil {
		t.Fatal(err)
	}
	if bw != 10*simnet.Mbps {
		t.Fatalf("cross bw %v, want bottleneck 10 Mbps", bw/simnet.Mbps)
	}
	local, _ := d.AloneBandwidth("l0", "l1")
	if local != 100*simnet.Mbps {
		t.Fatalf("local bw %v, want 100", local/simnet.Mbps)
	}
}

func TestTwoSite(t *testing.T) {
	w := TwoSite(3, 4)
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	lat, err := w.PathLatency("a0", "b0")
	if err != nil {
		t.Fatal(err)
	}
	if lat < 15*time.Millisecond {
		t.Fatalf("WAN latency %v, want >= 15ms", lat)
	}
	bw, _ := w.AloneBandwidth("a0", "b0")
	if bw != 34*simnet.Mbps {
		t.Fatalf("WAN bw %v, want 34 Mbps", bw/simnet.Mbps)
	}
}

func TestRandomLANDeterministic(t *testing.T) {
	t1, truth1 := RandomLAN(42, 4, 3)
	t2, truth2 := RandomLAN(42, 4, 3)
	if err := t1.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(t1.Hosts()) != len(t2.Hosts()) {
		t.Fatal("random LAN not deterministic")
	}
	for k, v := range truth1 {
		w, ok := truth2[k]
		if !ok || v.Shared != w.Shared || len(v.Hosts) != len(w.Hosts) {
			t.Fatalf("truth differs for %s", k)
		}
	}
	// All hosts reachable from each other (single zone).
	hosts := t1.HostIDs()
	for _, a := range hosts[:3] {
		for _, b := range hosts[:3] {
			if a != b && !reachable(t1, a, b) {
				t.Fatalf("%s cannot reach %s", a, b)
			}
		}
	}
}
