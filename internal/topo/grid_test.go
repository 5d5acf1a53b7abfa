package topo

import (
	"testing"
	"time"

	"nwsenv/internal/simnet"
	"nwsenv/internal/vclock"
)

func TestSyntheticGridShape(t *testing.T) {
	cfg := GridConfig{Sites: 3, SwitchesPerSite: 2, HostsPerSwitch: 4, HubFraction: 0.5, Seed: 7}
	tp, truth := SyntheticGrid(cfg)
	if err := tp.Validate(); err != nil {
		t.Fatal(err)
	}
	wantHosts := cfg.Hosts() + 1 // + external target
	if got := len(tp.HostIDs()); got != wantHosts {
		t.Fatalf("host count: got %d want %d", got, wantHosts)
	}
	if len(truth) != 6 {
		t.Fatalf("segment count: got %d want 6", len(truth))
	}
	hubs := 0
	for seg, nt := range truth {
		if len(nt.Hosts) != 4 {
			t.Fatalf("segment %s has %d hosts", seg, len(nt.Hosts))
		}
		for _, h := range nt.Hosts {
			if tp.Node(h) == nil {
				t.Fatalf("segment %s host %s missing from topology", seg, h)
			}
		}
		if nt.Shared {
			hubs++
			if n := tp.Node(seg); n == nil || n.Kind != simnet.Hub {
				t.Fatalf("truth says %s is shared but node is not a hub", seg)
			}
		}
	}
	if hubs == 0 || hubs == len(truth) {
		t.Fatalf("HubFraction 0.5 produced degenerate hub mix: %d/%d", hubs, len(truth))
	}
	if tp.ExternalTarget != "world" {
		t.Fatalf("external target: %q", tp.ExternalTarget)
	}
}

func TestSyntheticGridDeterministic(t *testing.T) {
	cfg := GridConfig{Sites: 2, SwitchesPerSite: 3, HostsPerSwitch: 3, HubFraction: 0.4, Seed: 11}
	t1, truth1 := SyntheticGrid(cfg)
	t2, truth2 := SyntheticGrid(cfg)
	if len(t1.Links()) != len(t2.Links()) {
		t.Fatal("link counts differ across identical configs")
	}
	for i, l1 := range t1.Links() {
		l2 := t2.Links()[i]
		if l1.A != l2.A || l1.B != l2.B || l1.BWAtoB != l2.BWAtoB || l1.LatAtoB != l2.LatAtoB {
			t.Fatalf("link %d differs: %+v vs %+v", i, l1, l2)
		}
	}
	for seg, nt1 := range truth1 {
		if truth2[seg].Shared != nt1.Shared {
			t.Fatalf("segment %s shared flag differs", seg)
		}
	}
}

func TestSyntheticGridCrossSiteTransfer(t *testing.T) {
	tp, _ := SyntheticGrid(GridConfig{Sites: 2, SwitchesPerSite: 2, HostsPerSwitch: 2, Seed: 1})
	sim := vclock.New()
	net := simnet.NewNetwork(sim, tp)
	var st simnet.TransferStats
	var err error
	sim.Go("xfer", func() {
		st, err = net.Transfer("h0-0-0", "h1-1-1", 1_000_000, "")
	})
	if e := sim.Run(); e != nil {
		t.Fatal(e)
	}
	if err != nil {
		t.Fatal(err)
	}
	// Host links are 100 Mbps and the backbone 1000 Mbps: the LAN edge is
	// the bottleneck.
	if st.AloneBps != 100*simnet.Mbps {
		t.Fatalf("alone bandwidth: got %.0f want %.0f", st.AloneBps, 100*simnet.Mbps)
	}
	lat, err := tp.PathLatency("h0-0-0", "h1-1-1")
	if err != nil {
		t.Fatal(err)
	}
	if lat < 5*time.Millisecond {
		t.Fatalf("cross-site latency %v should include two jittered WAN hops", lat)
	}
}

func TestSyntheticGridVLANRouting(t *testing.T) {
	tp, _ := SyntheticGrid(GridConfig{Sites: 2, SwitchesPerSite: 2, HostsPerSwitch: 4, VLANsPerSite: 2, Seed: 3})
	// h0-0-0 (vlan 1) and h0-0-1 (vlan 2) sit on the same switch but in
	// different VLANs: the path must detour through the site router.
	p, err := tp.Path("h0-0-0", "h0-0-1")
	if err != nil {
		t.Fatal(err)
	}
	viaRouter := false
	for _, id := range p {
		if id == "site0" {
			viaRouter = true
		}
	}
	if !viaRouter {
		t.Fatalf("inter-VLAN path %v skipped the site router", p)
	}
	// Same-VLAN neighbors stay on the switch.
	p, err = tp.Path("h0-0-0", "h0-0-2")
	if err != nil {
		t.Fatal(err)
	}
	if len(p) != 3 {
		t.Fatalf("same-VLAN path should be host-switch-host, got %v", p)
	}
}

func TestSyntheticGridSpecRoundTrip(t *testing.T) {
	tp, _ := SyntheticGrid(GridConfig{Sites: 2, SwitchesPerSite: 2, HostsPerSwitch: 3, HubFraction: 0.5, Seed: 5})
	spec := Export(tp)
	data, err := EncodeSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec2, err := DecodeSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	tp2, err := spec2.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(tp2.HostIDs()) != len(tp.HostIDs()) {
		t.Fatal("spec round trip lost hosts")
	}
	if !reachable(tp2, "h0-0-0", "h1-1-2") {
		t.Fatal("round-tripped grid lost cross-site reachability")
	}
}
