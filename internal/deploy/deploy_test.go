package deploy

import (
	"strings"
	"testing"
	"time"

	"nwsenv/internal/env"
	"nwsenv/internal/nws/proto"
	"nwsenv/internal/nws/proto/prototest"
	"nwsenv/internal/nws/sensor"
	"nwsenv/internal/simnet"
	"nwsenv/internal/topo"
	"nwsenv/internal/vclock"
)

// mapEnsLyon runs both ENV sides and merges, returning everything the
// planner needs.
func mapEnsLyon(t *testing.T) (*topo.EnsLyon, *simnet.Network, *env.Merged, map[string]string) {
	t.Helper()
	e := topo.NewEnsLyon()
	sim := vclock.New()
	net := simnet.NewNetwork(sim, e.Topo)
	var outside, inside *env.Result
	var err1, err2 error
	sim.Go("map", func() {
		outside, err1 = env.NewMapper(net, env.Config{Master: e.OutsideMaster, Hosts: e.OutsideHosts, Names: e.OutsideNames}).Run()
		inside, err2 = env.NewMapper(net, env.Config{Master: e.InsideMaster, Hosts: e.InsideHosts, Names: e.InsideNames}).Run()
	})
	if er := sim.RunUntil(24 * time.Hour); er != nil {
		t.Fatal(er)
	}
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	merged, err := env.Merge("Grid1", outside, inside, e.GatewayAliases)
	if err != nil {
		t.Fatal(err)
	}
	// Canonical machine name -> node ID.
	resolve := map[string]string{}
	for id, name := range e.OutsideNames {
		resolve[name] = id
	}
	for id, name := range e.InsideNames {
		if m := merged.Doc.FindMachine(name); m != nil {
			resolve[m.CanonicalName()] = id
		}
	}
	net.ResetAccounting()
	return e, net, merged, resolve
}

func planEnsLyon(t *testing.T) (*topo.EnsLyon, *simnet.Network, *Plan, map[string]string) {
	t.Helper()
	e, net, merged, resolve := mapEnsLyon(t)
	p, err := NewPlan(merged, PlanConfig{Master: "the-doors.ens-lyon.fr"})
	if err != nil {
		t.Fatal(err)
	}
	return e, net, p, resolve
}

func cliqueByNetworkSuffix(p *Plan, suffix string) *CliqueSpec {
	for i := range p.Cliques {
		if strings.HasSuffix(p.Cliques[i].Network, suffix) {
			return &p.Cliques[i]
		}
	}
	return nil
}

func TestPlanMatchesFigure3Shape(t *testing.T) {
	_, _, p, _ := planEnsLyon(t)

	// Shared networks get 2-host representative cliques; the sci switch
	// gets an all-members (+ gateway) clique; one bridge joins the hub1
	// component to the rest.
	var sciClique, myriClique *CliqueSpec
	var sharedTwo, bridges int
	for i := range p.Cliques {
		c := &p.Cliques[i]
		if strings.Contains(c.Network, "sci") && !c.Shared {
			sciClique = c
		}
		if c.Shared && len(c.Members) == 2 && strings.HasPrefix(c.Members[0], "myri1") {
			myriClique = c
		}
		if c.Shared && len(c.Members) == 2 {
			sharedTwo++
		}
		if strings.HasPrefix(c.Name, "bridge-") {
			bridges++
		}
	}
	if sciClique == nil {
		t.Fatalf("no switched sci clique: %s", p.Summary())
	}
	// 6 sci hosts + gateway sci0 (paper's Figure 3 shows sci0 with them).
	if len(sciClique.Members) != 7 {
		t.Fatalf("sci clique members %v", sciClique.Members)
	}
	if !contains(sciClique.Members, "sci.ens-lyon.fr") {
		t.Fatalf("sci clique lacks the gateway: %v", sciClique.Members)
	}
	if myriClique == nil {
		t.Fatalf("no myri representative clique: %s", p.Summary())
	}
	// Hub1, Hub2, Hub3 → three shared cliques of two.
	if sharedTwo != 3 {
		t.Fatalf("shared 2-host cliques: %d, want 3 (hub1, hub2, hub3)\n%s", sharedTwo, p.Summary())
	}
	if bridges < 1 {
		t.Fatalf("no bridge clique planned:\n%s", p.Summary())
	}
	// The hub1 representative pair excludes the master (paper picked
	// moby+canaria, not the-doors).
	for _, c := range p.Cliques {
		if c.Shared && contains(c.Represents, "moby.cri2000.ens-lyon.fr") {
			if contains(c.Members, "the-doors.ens-lyon.fr") {
				t.Fatalf("hub1 clique should not include the master: %v", c.Members)
			}
		}
	}
}

func TestPlanPlacement(t *testing.T) {
	_, _, p, _ := planEnsLyon(t)
	if p.NameServer != "the-doors.ens-lyon.fr" || p.Forecaster != "the-doors.ens-lyon.fr" {
		t.Fatalf("NS/forecaster on %s/%s, want master", p.NameServer, p.Forecaster)
	}
	if len(p.Gateways) != 1 || p.Gateways[0] != p.Master {
		t.Fatalf("gateways %v, want only the master %q", p.Gateways, p.Master)
	}
	// Two sites → two memory servers; the private site's one must be a
	// gateway (reachable from both zones).
	if len(p.MemoryServers) != 2 {
		t.Fatalf("memory servers %v", p.MemoryServers)
	}
	mem := p.MemoryOf["sci3.popc.private"]
	if !strings.HasSuffix(mem, "ens-lyon.fr") {
		t.Fatalf("private site's memory server %q should be a gateway (canonical public name)", mem)
	}
	// Every host has a memory assignment.
	for _, h := range p.Hosts {
		if p.MemoryOf[h] == "" {
			t.Fatalf("host %s has no memory server", h)
		}
	}
}

func TestPlanValidation(t *testing.T) {
	e, _, p, resolve := planEnsLyon(t)
	v, err := Validate(p, e.Topo, resolve)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Complete {
		t.Fatalf("plan incomplete, missing: %v\n%s", v.MissingPairs, p.Summary())
	}
	// Intrusiveness: far fewer direct pairs than the full mesh.
	if v.DirectPairs >= v.TotalPairs/2 {
		t.Fatalf("direct pairs %d of %d: not economical", v.DirectPairs, v.TotalPairs)
	}
	if v.MaxCliqueSize != 7 {
		t.Fatalf("max clique size %d, want 7 (sci)", v.MaxCliqueSize)
	}
}

func TestConfigRoundTrip(t *testing.T) {
	_, _, p, _ := planEnsLyon(t)
	data, err := EncodeConfig(p)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeConfig(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Master != p.Master || len(back.Cliques) != len(p.Cliques) {
		t.Fatalf("round trip mismatch")
	}
	if back.MemoryOf["sci3.popc.private"] != p.MemoryOf["sci3.popc.private"] {
		t.Fatal("memory map lost")
	}
}

func TestEstimatorComposition(t *testing.T) {
	// Synthetic plan: a-b measured, b-c measured: a-c composed with
	// latency sum and bandwidth min (§2.3's gateway example).
	p := &Plan{
		Hosts:    []string{"a", "b", "c"},
		MemoryOf: map[string]string{},
		Cliques: []CliqueSpec{
			{Name: "c1", Members: []string{"a", "b"}},
			{Name: "c2", Members: []string{"b", "c"}},
		},
	}
	data := func(from, to string) (float64, float64, bool) {
		switch from + ">" + to {
		case "a>b", "b>a":
			return 2.0, 100, true
		case "b>c", "c>b":
			return 3.0, 10, true
		}
		return 0, 0, false
	}
	est := NewEstimator(p, data)
	got, err := est.Estimate("a", "c")
	if err != nil {
		t.Fatal(err)
	}
	if got.Direct {
		t.Fatal("a-c should be composed")
	}
	if got.LatencyMS != 5.0 {
		t.Fatalf("latency %v, want 2+3", got.LatencyMS)
	}
	if got.BandwidthMbps != 10 {
		t.Fatalf("bandwidth %v, want min(100,10)", got.BandwidthMbps)
	}
	direct, err := est.Estimate("a", "b")
	if err != nil || !direct.Direct {
		t.Fatalf("a-b should be direct: %+v %v", direct, err)
	}
}

func TestEstimatorRepresentativePairs(t *testing.T) {
	// Shared network {x,y,z} monitored by pair (x,y): asking about (x,z)
	// or (y,z) must reuse the representative measurement (§5.1's NWS
	// shortcoming, solved here).
	p := &Plan{
		Hosts:    []string{"x", "y", "z"},
		MemoryOf: map[string]string{},
		Cliques: []CliqueSpec{
			{Name: "hub", Members: []string{"x", "y"}, Shared: true, Represents: []string{"x", "y", "z"}},
		},
	}
	calls := map[string]int{}
	data := func(from, to string) (float64, float64, bool) {
		calls[from+">"+to]++
		if (from == "x" && to == "y") || (from == "y" && to == "x") {
			return 1.0, 50, true
		}
		return 0, 0, false
	}
	est := NewEstimator(p, data)
	got, err := est.Estimate("x", "z")
	if err != nil {
		t.Fatal(err)
	}
	if got.BandwidthMbps != 50 || got.LatencyMS != 1.0 {
		t.Fatalf("representative estimate %+v", got)
	}
	if ok, missing := est.Complete(); !ok {
		t.Fatalf("shared representation should make the plan complete: %v", missing)
	}
}

func TestEstimatorIncomplete(t *testing.T) {
	p := &Plan{
		Hosts:    []string{"a", "b", "c"},
		MemoryOf: map[string]string{},
		Cliques:  []CliqueSpec{{Name: "c1", Members: []string{"a", "b"}}},
	}
	est := NewEstimator(p, func(a, b string) (float64, float64, bool) { return 1, 1, true })
	ok, missing := est.Complete()
	if ok || len(missing) != 2 {
		t.Fatalf("want 2 missing pairs, got ok=%v %v", ok, missing)
	}
}

// applyTorn is Apply for a test: the deployment is stopped when the test
// ends, and the test fails if anything it started is still running
// then (prototest.Teardown).
func applyTorn(t *testing.T, tr *proto.SimTransport, prober sensor.Prober, p *Plan, resolve map[string]string, opts ApplyOptions) *Deployment {
	t.Helper()
	stop := prototest.Teardown(t, tr.Runtime())
	dep, err := Apply(tr, prober, p, resolve, opts)
	if err != nil {
		t.Fatal(err)
	}
	stop(dep.Stop)
	return dep
}

func TestApplyAndQueryEndToEnd(t *testing.T) {
	// The full pipeline: map (done) → plan → apply → steady state →
	// live estimate of a never-directly-measured pair.
	e, net, p, resolve := planEnsLyon(t)
	tr := proto.NewSimTransport(net)
	prober := sensor.SimProber{Net: net}
	dep := applyTorn(t, tr, prober, p, resolve, ApplyOptions{TokenGap: time.Second})
	sim := net.Sim()
	base := sim.Now()
	if err := sim.RunUntil(base + 3*time.Minute); err != nil {
		t.Fatal(err)
	}

	// Query: moby (hub1) to sci3 (behind switch, private): never measured
	// directly (different cliques, firewall between them!), must compose.
	var est LinkEstimate
	var eerr error
	sim.Go("query", func() {
		master := dep.Agents[p.Master]
		es := dep.Estimator(master.Station())
		est, eerr = es.Estimate("moby.cri2000.ens-lyon.fr", "sci3.popc.private")
	})
	if err := sim.RunUntil(base + 4*time.Minute); err != nil {
		t.Fatal(err)
	}
	if eerr != nil {
		t.Fatal(eerr)
	}
	if est.Direct {
		t.Fatal("moby->sci3 cannot be a direct measurement")
	}
	// Ground truth: path crosses the 10 Mbps bottleneck.
	truthBW, _ := e.Topo.AloneBandwidth("moby", "sci3")
	if est.BandwidthMbps < truthBW/1e6*0.5 || est.BandwidthMbps > truthBW/1e6*2.5 {
		t.Fatalf("composed bw %.1f Mbps vs truth %.1f", est.BandwidthMbps, truthBW/1e6)
	}
}

func TestDeploymentCollisionRate(t *testing.T) {
	// The planned deployment's probe collisions stay rare compared with
	// its probe volume (the §2.3 goal).
	_, net, p, resolve := planEnsLyon(t)
	tr := proto.NewSimTransport(net)
	applyTorn(t, tr, sensor.SimProber{Net: net}, p, resolve, ApplyOptions{TokenGap: time.Second})
	sim := net.Sim()
	base := sim.Now()
	if err := sim.RunUntil(base + 5*time.Minute); err != nil {
		t.Fatal(err)
	}
	_, probes := net.ProbeTraffic()
	collisions := net.CollisionCount()
	if probes == 0 {
		t.Fatal("no probes ran")
	}
	if float64(collisions) > 0.05*float64(probes) {
		t.Fatalf("collision rate too high: %d collisions / %d probes", collisions, probes)
	}
}

func TestPairwiseSwitchedDeployment(t *testing.T) {
	// §6 relaxation: on a switched network, disjoint pairs may measure
	// concurrently. A token ring amortizes its gap over n-1 experiments
	// per hold, so the pairwise scheduler pays off in the high-frequency
	// regime (small gap), where serialized experiment time dominates:
	// the ring needs n(n-1)·t_exp per full sweep, the tournament only
	// 2(n-1)·t_exp.
	build := func() (*simnet.Network, *Plan, map[string]string) {
		tp := simnet.NewTopology()
		tp.AddSwitch("sw")
		resolve := map[string]string{}
		var hosts []string
		for i := 0; i < 8; i++ {
			h := string(rune('a' + i))
			tp.AddHost(h, h, h, "lan")
			tp.Connect(h, "sw")
			hosts = append(hosts, h)
			resolve[h] = h
		}
		sim := vclock.New()
		net := simnet.NewNetwork(sim, tp)
		p := &Plan{
			Label: "sw", Master: "a", NameServer: "a", Forecaster: "a",
			MemoryServers: []string{"a"}, MemoryOf: map[string]string{},
			Hosts: hosts,
			Cliques: []CliqueSpec{{
				Name: "clique-sw", Network: "sw", Members: hosts,
				Period: 10 * time.Millisecond,
			}},
		}
		for _, h := range hosts {
			p.MemoryOf[h] = "a"
		}
		return net, p, resolve
	}
	run := func(pairwise bool) (perPair float64, pairCollisions int) {
		net, p, resolve := build()
		tr := proto.NewSimTransport(net)
		applyTorn(t, tr, sensor.SimProber{Net: net}, p, resolve, ApplyOptions{
			TokenGap: 10 * time.Millisecond, PairwiseSwitched: pairwise,
		})
		sim := net.Sim()
		if err := sim.RunUntil(5 * time.Minute); err != nil {
			t.Fatal(err)
		}
		count := 0
		for _, rec := range net.Records() {
			if rec.Tag == "" {
				continue
			}
			if (rec.Src == "b" && rec.Dst == "c") || (rec.Src == "c" && rec.Dst == "b") {
				count++
			}
		}
		for _, c := range net.Collisions() {
			if strings.HasPrefix(c.TagA, "pairwise:") && strings.HasPrefix(c.TagB, "pairwise:") {
				pairCollisions++
			}
		}
		return float64(count) / 5, pairCollisions
	}
	ringFreq, _ := run(false)
	pwFreq, pwCollisions := run(true)
	if pwCollisions != 0 {
		t.Fatalf("pairwise probes collided %d times on the switch", pwCollisions)
	}
	if pwFreq <= ringFreq {
		t.Fatalf("pairwise frequency %.2f/min should beat ring %.2f/min in the high-frequency regime", pwFreq, ringFreq)
	}
}
