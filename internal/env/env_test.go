// The black-box tests build their platforms with topo, which imports
// env, so they live outside the package.
package env_test

import (
	"context"
	"strings"
	"testing"
	"time"

	. "nwsenv/internal/env"
	"nwsenv/internal/gridml"
	"nwsenv/internal/platform"
	"nwsenv/internal/simnet"
	"nwsenv/internal/topo"
	"nwsenv/internal/vclock"
)

// mapSim maps over a simulated network, from a simulation process.
func mapSim(net *simnet.Network, cfg Config) (*Result, error) {
	return NewMapperOn(SimSubstrate{Net: net}, cfg).Run(context.Background())
}

// runMapper executes one ENV run inside a fresh simulation.
func runMapper(t *testing.T, network *simnet.Network, cfg Config) *Result {
	t.Helper()
	var res *Result
	var err error
	network.Sim().Go("env", func() {
		res, err = mapSim(network, cfg)
	})
	if e := network.Sim().RunUntil(24 * time.Hour); e != nil {
		t.Fatal(e)
	}
	if err != nil {
		t.Fatal(err)
	}
	if res == nil {
		t.Fatal("mapping did not finish within the time budget")
	}
	return res
}

// ensOutside maps the public side of ENS-Lyon from the-doors.
func ensOutside(t *testing.T) (*topo.EnsLyon, *Result) {
	e := topo.NewEnsLyon()
	sim := vclock.New()
	net := simnet.NewNetwork(sim, e.Topo)
	res := runMapper(t, net, Config{
		Master: e.OutsideMaster,
		Hosts:  e.OutsideHosts,
		Names:  e.OutsideNames,
	})
	return e, res
}

// ensInside maps the private side from popc0.
func ensInside(t *testing.T) (*topo.EnsLyon, *Result) {
	e := topo.NewEnsLyon()
	sim := vclock.New()
	net := simnet.NewNetwork(sim, e.Topo)
	res := runMapper(t, net, Config{
		Master: e.InsideMaster,
		Hosts:  e.InsideHosts,
		Names:  e.InsideNames,
	})
	return e, res
}

func findNetworkWith(nets []*Network, host string) *Network {
	for _, n := range nets {
		for _, h := range n.Hosts {
			if h == host {
				return n
			}
		}
	}
	return nil
}

func TestStructuralTreeMatchesFigure2(t *testing.T) {
	_, res := ensOutside(t)
	// Fig. 2: root 192.168.254.1 with two branches: 140.77.13.1 holding
	// canaria/moby/the-doors, and routeur-backbone -> routlhpc holding
	// the gateways.
	root := res.Struct
	if len(root.Children) != 1 || root.Children[0].Hop != "192.168.254.1" {
		t.Fatalf("root children: %+v", root.Children)
	}
	rr := root.Children[0]
	if len(rr.Children) != 2 {
		t.Fatalf("root router children: %d", len(rr.Children))
	}
	var hub1Branch, bbBranch *StructNode
	for _, c := range rr.Children {
		switch c.Hop {
		case "140.77.13.1":
			hub1Branch = c
		case "routeur-backbone":
			bbBranch = c
		}
	}
	if hub1Branch == nil || bbBranch == nil {
		t.Fatalf("branches: %+v", rr.Children)
	}
	if len(hub1Branch.Hosts) != 3 {
		t.Fatalf("hub1 branch hosts %v", hub1Branch.Hosts)
	}
	if len(bbBranch.Children) != 1 || bbBranch.Children[0].Hop != "routlhpc" {
		t.Fatalf("backbone branch %+v", bbBranch.Children)
	}
	if len(bbBranch.Children[0].Hosts) != 3 {
		t.Fatalf("routlhpc hosts %v", bbBranch.Children[0].Hosts)
	}
}

func TestOutsideRunFindsBottleneckAndHub1(t *testing.T) {
	_, res := ensOutside(t)
	// Hub 1: the master's own cluster, classified shared.
	h1 := findNetworkWith(res.Networks, "canaria.ens-lyon.fr")
	if h1 == nil {
		t.Fatal("no network holds canaria")
	}
	if h1.Class != Shared {
		t.Fatalf("hub1 classified %v, want shared", h1.Class)
	}
	if !h1.ContainsMaster {
		t.Fatal("hub1 should contain the master the-doors")
	}
	// Gateways: base bandwidth through the 10 Mbps bottleneck, local
	// bandwidth on the 100 Mbps hub (§4.1: "links to reach popc0 and
	// myri0 from the-doors must go trough a bottleneck at 10 Mbps").
	gws := findNetworkWith(res.Networks, "popc.ens-lyon.fr")
	if gws == nil {
		t.Fatal("no network holds the gateways")
	}
	if len(gws.Hosts) != 3 {
		t.Fatalf("gateway cluster %v", gws.Hosts)
	}
	if gws.BaseBW > 12 || gws.BaseBW < 8 {
		t.Fatalf("gateway base BW %.1f Mbps, want ~10 (bottleneck)", gws.BaseBW)
	}
	if gws.LocalBW < 80 {
		t.Fatalf("gateway local BW %.1f Mbps, want ~100 (hub)", gws.LocalBW)
	}
}

func TestInsideRunClassifiesPerFigure1b(t *testing.T) {
	_, res := ensInside(t)
	// sci1..6: switched (the paper's ENV_Switched listing).
	sci := findNetworkWith(res.Networks, "sci3.popc.private")
	if sci == nil {
		t.Fatal("no sci network")
	}
	if sci.Class != Switched {
		t.Fatalf("sci cluster classified %v, want switched", sci.Class)
	}
	if len(sci.Hosts) != 6 {
		t.Fatalf("sci cluster %v", sci.Hosts)
	}
	if sci.LocalBW < 80 {
		t.Fatalf("sci local BW %.1f", sci.LocalBW)
	}
	// myri1/2: shared (Hub 3).
	myri := findNetworkWith(res.Networks, "myri1.popc.private")
	if myri == nil || myri.Class != Shared || len(myri.Hosts) != 2 {
		t.Fatalf("myri network %+v", myri)
	}
	// Gateways (master's own cluster): shared (Hub 2).
	gws := findNetworkWith(res.Networks, "sci0.popc.private")
	if gws == nil {
		t.Fatal("no gateway network")
	}
	if gws.Class != Shared {
		t.Fatalf("hub2 classified %v, want shared", gws.Class)
	}
	if !gws.ContainsMaster {
		t.Fatal("hub2 should contain master popc0")
	}
}

func TestGatewayHopsResolveToGateways(t *testing.T) {
	_, res := ensInside(t)
	sci := findNetworkWith(res.Networks, "sci3.popc.private")
	if sci.GatewayHop != "sci.ens-lyon.fr" {
		t.Fatalf("sci gateway hop %q (traceroute shows the gateway's DNS)", sci.GatewayHop)
	}
	myri := findNetworkWith(res.Networks, "myri1.popc.private")
	if myri.GatewayHop != "myri.ens-lyon.fr" {
		t.Fatalf("myri gateway hop %q", myri.GatewayHop)
	}
}

func TestMergeReproducesFigure1b(t *testing.T) {
	e := topo.NewEnsLyon()
	sim := vclock.New()
	net := simnet.NewNetwork(sim, e.Topo)
	var outside, inside *Result
	var err1, err2 error
	sim.Go("outside", func() {
		outside, err1 = mapSim(net, Config{Master: e.OutsideMaster, Hosts: e.OutsideHosts, Names: e.OutsideNames})
	})
	if e := sim.RunUntil(24 * time.Hour); e != nil {
		t.Fatal(e)
	}
	sim.Go("inside", func() {
		inside, err2 = mapSim(net, Config{Master: e.InsideMaster, Hosts: e.InsideHosts, Names: e.InsideNames})
	})
	if e := sim.RunUntil(48 * time.Hour); e != nil {
		t.Fatal(e)
	}
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	merged, err := Merge("Grid1", outside, inside, e.GatewayAliases)
	if err != nil {
		t.Fatal(err)
	}

	// Figure 1(b): four effective networks.
	want := map[string]struct {
		class Classification
		size  int
	}{
		"moby.cri2000.ens-lyon.fr": {Shared, 3}, // Hub 1 (canaria, moby, the-doors)
		"popc.ens-lyon.fr":         {Shared, 3}, // Hub 2 (the gateways; shared wins over the outside view)
		"myri1.popc.private":       {Shared, 2}, // Hub 3
		"sci3.popc.private":        {Switched, 6},
	}
	for probe, exp := range want {
		nw := findNetworkWith(merged.Networks, probe)
		if nw == nil {
			t.Fatalf("merged result lost host %s", probe)
		}
		if nw.Class != exp.class {
			t.Errorf("network of %s classified %v, want %v", probe, nw.Class, exp.class)
		}
		if len(nw.Hosts) != exp.size {
			t.Errorf("network of %s has %d hosts (%v), want %d", probe, len(nw.Hosts), nw.Hosts, exp.size)
		}
	}
	// The merged doc knows the gateways under both names.
	m := merged.Doc.FindMachine("popc0.popc.private")
	if m == nil || !m.HasName("popc.ens-lyon.fr") {
		t.Fatal("gateway aliases not merged")
	}
	if err := merged.Doc.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMappingLastsMinutesNotDays(t *testing.T) {
	// §4.3: "the mapping of our platform only last a few minutes".
	_, res := ensInside(t)
	d := res.Stats.Duration()
	if d > 30*time.Minute {
		t.Fatalf("inside mapping took %v of virtual time, want minutes", d)
	}
	if d < time.Second {
		t.Fatalf("mapping suspiciously fast: %v", d)
	}
	if res.Stats.Probes == 0 || res.Stats.ProbeBytes == 0 {
		t.Fatal("probe accounting empty")
	}
}

func TestGridMLOutputValidatesAndRoundTrips(t *testing.T) {
	_, res := ensOutside(t)
	if err := res.Doc.Validate(); err != nil {
		t.Fatal(err)
	}
	enc, err := res.Doc.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(enc), "ENV_base_BW") {
		t.Fatal("GridML output lacks ENV_base_BW properties")
	}
	back, err := gridml.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Sites) != len(res.Doc.Sites) {
		t.Fatal("round trip lost sites")
	}
	// Site grouping by domain: gateways carry ens-lyon.fr names.
	if back.SiteFor("ens-lyon.fr") == nil {
		t.Fatal("no ens-lyon.fr site")
	}
}

func TestThresholdSensitivityJammed(t *testing.T) {
	// With an absurdly low shared threshold, hubs are no longer detected
	// (the knob E11 ablates).
	e := topo.NewEnsLyon()
	sim := vclock.New()
	net := simnet.NewNetwork(sim, e.Topo)
	th := DefaultThresholds()
	th.JammedShared = 0.1   // nothing is "shared" anymore
	th.JammedSwitched = 0.2 // everything above 0.2 is "switched"
	res := runMapper(t, net, Config{
		Master: e.InsideMaster, Hosts: e.InsideHosts, Names: e.InsideNames, Thresholds: th,
	})
	myri := findNetworkWith(res.Networks, "myri1.popc.private")
	if myri.Class == Shared {
		t.Fatalf("with degenerate thresholds hub3 should not be shared")
	}
}

func TestDumbbellMasterSideView(t *testing.T) {
	// §4.3 master/slave information loss: mapping from l0 sees both
	// clusters but cannot see the inter-cluster link quality directly —
	// the r-cluster's base BW is the bottleneck 10 Mbps.
	d := topo.Dumbbell(3, 10*simnet.Mbps)
	sim := vclock.New()
	net := simnet.NewNetwork(sim, d)
	res := runMapper(t, net, Config{
		Master: "l0",
		Hosts:  []string{"l0", "l1", "l2", "r0", "r1", "r2"},
	})
	right := findNetworkWith(res.Networks, "r0.right.net")
	if right == nil {
		t.Fatal("right cluster missing")
	}
	if right.BaseBW > 12 {
		t.Fatalf("right base BW %.1f, want ~10 (bottleneck)", right.BaseBW)
	}
	if right.LocalBW < 80 {
		t.Fatalf("right local BW %.1f, want ~100", right.LocalBW)
	}
	if right.Class != Switched {
		t.Fatalf("right cluster %v, want switched", right.Class)
	}
}

func TestRandomLANClassificationAccuracy(t *testing.T) {
	// The mapper must recover hub/switch ground truth on generated LANs.
	for _, seed := range []int64{1, 2, 3} {
		tp, truth := topo.RandomLAN(seed, 4, 4)
		sim := vclock.New()
		net := simnet.NewNetwork(sim, tp)
		hosts := []string{}
		for _, h := range tp.HostIDs() {
			if h != "world" {
				hosts = append(hosts, h)
			}
		}
		res := runMapper(t, net, Config{Master: hosts[0], Hosts: hosts})
		for seg, tr := range truth {
			nw := findNetworkWith(res.Networks, tr.Hosts[0]+".rand.net")
			if nw == nil {
				t.Fatalf("seed %d: segment %s unmapped", seed, seg)
			}
			// The master's own segment uses the 2-host fallback when only
			// two probe hosts remain; all should still classify correctly.
			wantShared := tr.Shared
			if (nw.Class == Shared) != wantShared {
				t.Errorf("seed %d: segment %s classified %v, truth shared=%v",
					seed, seg, nw.Class, wantShared)
			}
		}
	}
}

// TestMapperRejections: a run that names the substrate's external
// traceroute target, as master or among its hosts, is refused with an
// error naming it, on the simulated ENS-Lyon testbed and on a static
// substrate alike (envmap -hosts world used to panic in Traceroute).
func TestMapperRejections(t *testing.T) {
	ens := topo.NewEnsLyon()
	onSim := func(cfg Config) error {
		sim := vclock.New()
		net := simnet.NewNetwork(sim, ens.Topo)
		var err error
		sim.Go("map", func() { _, err = mapSim(net, cfg) })
		if runErr := sim.RunUntil(time.Hour); runErr != nil {
			return runErr
		}
		return err
	}
	onStatic := func(cfg Config) error {
		_, err := NewMapperOn(platform.NewStaticSubstrate([]string{"a", "b"}), cfg).Run(context.Background())
		return err
	}
	for _, tc := range []struct {
		name string
		run  func(Config) error
		cfg  Config
		ext  string
	}{
		{"enslyon -hosts world", onSim, Config{Master: "world", Hosts: []string{"world"}}, "world"},
		{"enslyon world among hosts", onSim, Config{Master: "the-doors", Hosts: []string{"the-doors", "world"}}, "world"},
		{"enslyon world as master", onSim, Config{Master: "world", Hosts: []string{"the-doors"}}, "world"},
		{"static -hosts external", onStatic, Config{Master: "external", Hosts: []string{"external"}}, "external"},
		{"static external among hosts", onStatic, Config{Master: "a", Hosts: []string{"a", "external"}}, "external"},
	} {
		err := tc.run(tc.cfg)
		if err == nil || !strings.Contains(err.Error(), tc.ext+" is the external traceroute target") {
			t.Errorf("%s: got %v, want a refusal naming %s", tc.name, err, tc.ext)
		}
	}
}
