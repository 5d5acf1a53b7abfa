// Benchmark harness: one benchmark per figure and per quantitative claim
// of the paper (the experiment ids E1..E14 are indexed, and the measured
// outcomes recorded, in EXPERIMENTS.md). Each benchmark
// executes the full experiment per iteration and prints the reproduced
// rows once.
package nwsenv

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"nwsenv/internal/deploy"
	"nwsenv/internal/env"
	"nwsenv/internal/metrics"
	"nwsenv/internal/nws/clique"
	"nwsenv/internal/nws/predict"
	"nwsenv/internal/nws/proto"
	"nwsenv/internal/nws/sensor"
	"nwsenv/internal/simnet"
	"nwsenv/internal/topo"
	"nwsenv/internal/vclock"
)

var printOnce sync.Map

func once(key string, fn func()) {
	if _, loaded := printOnce.LoadOrStore(key, true); !loaded {
		fn()
	}
}

// mapEnsLyonBoth runs both ENV sides on a fresh ENS-Lyon network and
// merges them.
func mapEnsLyonBoth(b *testing.B) (*topo.EnsLyon, *simnet.Network, *env.Merged, []*env.Result) {
	b.Helper()
	e := topo.NewEnsLyon()
	sim := vclock.New()
	net := simnet.NewNetwork(sim, e.Topo)
	var outside, inside *env.Result
	var err1, err2 error
	sim.Go("map", func() {
		outside, err1 = env.NewMapper(net, env.Config{Master: e.OutsideMaster, Hosts: e.OutsideHosts, Names: e.OutsideNames}).Run()
		inside, err2 = env.NewMapper(net, env.Config{Master: e.InsideMaster, Hosts: e.InsideHosts, Names: e.InsideNames}).Run()
	})
	if err := sim.RunUntil(24 * time.Hour); err != nil {
		b.Fatal(err)
	}
	if err1 != nil || err2 != nil {
		b.Fatal(err1, err2)
	}
	merged, err := env.Merge("Grid1", outside, inside, e.GatewayAliases)
	if err != nil {
		b.Fatal(err)
	}
	return e, net, merged, []*env.Result{outside, inside}
}

func resolveEnsLyon(e *topo.EnsLyon, merged *env.Merged) map[string]string {
	resolve := map[string]string{}
	for id, name := range e.OutsideNames {
		if m := merged.Doc.FindMachine(name); m != nil {
			resolve[m.CanonicalName()] = id
		}
	}
	for id, name := range e.InsideNames {
		if m := merged.Doc.FindMachine(name); m != nil {
			resolve[m.CanonicalName()] = id
		}
	}
	return resolve
}

// ---- E1: Figure 1(b) — effective topology from the-doors ----

func BenchmarkFig1bEffectiveView(b *testing.B) {
	var merged *env.Merged
	for i := 0; i < b.N; i++ {
		_, _, merged, _ = mapEnsLyonBoth(b)
	}
	b.ReportMetric(float64(len(merged.Networks)), "networks")
	once("e1", func() {
		fmt.Println("\n[E1 / Figure 1b] effective topology after firewall merge:")
		for _, nw := range merged.Networks {
			fmt.Printf("  %-16s %-8s base %6.1f Mbps local %6.1f Mbps  %s\n",
				nw.Label, nw.Class, nw.BaseBW, nw.LocalBW, strings.Join(nw.Hosts, ", "))
		}
	})
}

// ---- E2: Figure 2 — structural traceroute tree ----

func BenchmarkFig2StructuralTree(b *testing.B) {
	var res *env.Result
	for i := 0; i < b.N; i++ {
		e := topo.NewEnsLyon()
		sim := vclock.New()
		net := simnet.NewNetwork(sim, e.Topo)
		var err error
		sim.Go("map", func() {
			res, err = env.NewMapper(net, env.Config{Master: e.OutsideMaster, Hosts: e.OutsideHosts, Names: e.OutsideNames}).Run()
		})
		if e := sim.RunUntil(24 * time.Hour); e != nil {
			b.Fatal(e)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Stats.Traceroutes), "traceroutes")
	once("e2", func() {
		fmt.Println("\n[E2 / Figure 2] structural topology (outside run):")
		var dump func(n *env.StructNode, depth int)
		dump = func(n *env.StructNode, depth int) {
			label := n.Hop
			if label == "" {
				label = "(root)"
			}
			fmt.Printf("  %s%s", strings.Repeat("  ", depth), label)
			if len(n.Hosts) > 0 {
				fmt.Printf("  <- %s", strings.Join(n.Hosts, ", "))
			}
			fmt.Println()
			for _, c := range n.Children {
				dump(c, depth+1)
			}
		}
		dump(res.Struct, 0)
	})
}

// ---- E3: Figure 3 — deployment plan ----

func BenchmarkFig3DeploymentPlan(b *testing.B) {
	var plan *deploy.Plan
	var v *deploy.Validation
	for i := 0; i < b.N; i++ {
		e, _, merged, _ := mapEnsLyonBoth(b)
		var err error
		plan, err = deploy.NewPlan(merged, deploy.PlanConfig{Master: "the-doors.ens-lyon.fr"})
		if err != nil {
			b.Fatal(err)
		}
		v, err = deploy.Validate(plan, e.Topo, resolveEnsLyon(e, merged))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(plan.Cliques)), "cliques")
	b.ReportMetric(float64(v.DirectPairs), "directPairs")
	once("e3", func() {
		fmt.Println("\n[E3 / Figure 3] NWS deployment plan:")
		fmt.Print(plan.Summary())
		fmt.Printf("  complete=%v direct=%d/%d maxClique=%d collisionRisks=%d\n",
			v.Complete, v.DirectPairs, v.TotalPairs, v.MaxCliqueSize, len(v.CollisionRisks))
	})
}

// ---- E4: §4.3 mapping cost — naive ~50 days vs ENV minutes ----

func BenchmarkE4MappingCost(b *testing.B) {
	type row struct {
		n          int
		naiveModel time.Duration
		envProbes  int
		envTime    time.Duration
	}
	var rows []row
	for i := 0; i < b.N; i++ {
		rows = rows[:0]
		for _, n := range []int{5, 10, 15, 20, 30} {
			r := row{n: n, naiveModel: NaiveMappingCost(n, 30*time.Second)}
			// ENV cost measured on a random LAN with n hosts.
			subnets := n / 5
			if subnets < 1 {
				subnets = 1
			}
			tp, _ := topo.RandomLAN(int64(n), subnets, n/subnets)
			sim := vclock.New()
			net := simnet.NewNetwork(sim, tp)
			var hosts []string
			for _, h := range tp.HostIDs() {
				if h != "world" {
					hosts = append(hosts, h)
				}
			}
			if len(hosts) > n {
				hosts = hosts[:n]
			}
			var res *env.Result
			var err error
			sim.Go("map", func() {
				res, err = env.NewMapper(net, env.Config{Master: hosts[0], Hosts: hosts}).Run()
			})
			if e := sim.RunUntil(240 * time.Hour); e != nil {
				b.Fatal(e)
			}
			if err != nil {
				b.Fatal(err)
			}
			r.envProbes = res.Stats.Probes
			r.envTime = res.Stats.Duration()
			rows = append(rows, r)
		}
	}
	once("e4", func() {
		fmt.Println("\n[E4 / §4.3] mapping cost: naive exhaustive model vs ENV (measured):")
		fmt.Printf("  %4s %16s %12s %14s\n", "n", "naive(model)", "ENV probes", "ENV time")
		for _, r := range rows {
			fmt.Printf("  %4d %13.1f d %12d %14v\n",
				r.n, r.naiveModel.Hours()/24, r.envProbes, r.envTime.Round(time.Second))
		}
		fmt.Println("  paper: \"the whole process would last about 50 days for 20 hosts\"")
		fmt.Println("         \"the mapping of our platform only last a few minutes\"")
	})
}

// ---- E5: §4.2.2.4 — the sci cluster's ENV_Switched GridML listing ----

func BenchmarkE5SciClassification(b *testing.B) {
	var sci *env.Network
	for i := 0; i < b.N; i++ {
		e := topo.NewEnsLyon()
		sim := vclock.New()
		net := simnet.NewNetwork(sim, e.Topo)
		var res *env.Result
		var err error
		sim.Go("map", func() {
			res, err = env.NewMapper(net, env.Config{Master: e.InsideMaster, Hosts: e.InsideHosts, Names: e.InsideNames}).Run()
		})
		if e := sim.RunUntil(24 * time.Hour); e != nil {
			b.Fatal(e)
		}
		if err != nil {
			b.Fatal(err)
		}
		sci = nil
		for _, nw := range res.Networks {
			for _, h := range nw.Hosts {
				if h == "sci3.popc.private" {
					sci = nw
				}
			}
		}
		if sci == nil || sci.Class != env.Switched {
			b.Fatalf("sci cluster misclassified: %+v", sci)
		}
	}
	b.ReportMetric(sci.BaseBW, "baseBWMbps")
	b.ReportMetric(sci.LocalBW, "localBWMbps")
	once("e5", func() {
		fmt.Println("\n[E5 / §4.2.2.4] sci cluster GridML (paper: ENV_Switched, base 32.65, local 32.29 on SCI hw):")
		fmt.Printf("  type=%s ENV_base_BW=%.2f Mbps ENV_base_local_BW=%.2f Mbps machines=%d\n",
			sci.Class.GridMLType(), sci.BaseBW, sci.LocalBW, len(sci.Hosts))
	})
}

// runDeployment applies a plan on a fresh ENS-Lyon network and runs it
// for window, returning the metric report and validation.
func runDeployment(b *testing.B, plan *deploy.Plan, resolve map[string]string, window time.Duration) (metrics.Report, *simnet.Network) {
	b.Helper()
	e := topo.NewEnsLyon()
	sim := vclock.New()
	net := simnet.NewNetwork(sim, e.Topo)
	tr := proto.NewSimTransport(net)
	dep, err := deploy.Apply(tr, sensor.SimProber{Net: net}, plan, resolve, deploy.ApplyOptions{TokenGap: time.Second})
	if err != nil {
		b.Fatal(err)
	}
	if err := sim.RunUntil(window); err != nil {
		b.Fatal(err)
	}
	dep.Stop()
	return metrics.Observe(net, "", window), net
}

// ---- E6: §2.3 deployment quality — ENV plan vs baselines ----

func BenchmarkE6DeploymentQuality(b *testing.B) {
	type row struct {
		name       string
		probes     int
		collisions int
		complete   bool
		direct     int
		minFreq    float64
	}
	var rows []row
	window := 5 * time.Minute
	for i := 0; i < b.N; i++ {
		rows = rows[:0]
		e, _, merged, _ := mapEnsLyonBoth(b)
		resolve := resolveEnsLyon(e, merged)
		envPlan, err := deploy.NewPlan(merged, deploy.PlanConfig{Master: "the-doors.ens-lyon.fr"})
		if err != nil {
			b.Fatal(err)
		}
		hosts := envPlan.Hosts
		// A public-only host subset (no firewall in the way) isolates the
		// pure frequency cost of one big clique from the split-brain
		// failure a topology-blind mesh suffers across firewalls.
		var public []string
		for _, h := range hosts {
			if strings.HasSuffix(h, "ens-lyon.fr") {
				public = append(public, h)
			}
		}
		plans := []struct {
			name string
			p    *deploy.Plan
		}{
			{"env-planned", envPlan},
			{"mesh-public", FullMesh(public, envPlan.Master, time.Second)},
			{"mesh-all", FullMesh(hosts, envPlan.Master, time.Second)},
			{"blind-3way", BlindPartition(hosts, envPlan.Master, 3, time.Second)},
		}
		for _, pl := range plans {
			rep, _ := runDeployment(b, pl.p, resolve, window)
			est := deploy.NewEstimator(pl.p, func(a, bb string) (float64, float64, bool) { return 1, 1, true })
			complete, _ := est.Complete()
			seen := map[[2]string]struct{}{}
			for _, pr := range pl.p.MeasuredPairs() {
				seen[pr] = struct{}{}
			}
			rows = append(rows, row{
				name: pl.name, probes: rep.Probes, collisions: rep.Collisions,
				complete: complete, direct: len(seen), minFreq: rep.MinPairPerMinute,
			})
		}
	}
	once("e6", func() {
		fmt.Println("\n[E6 / §2.3] deployment quality over 5 virtual minutes (ENS-Lyon):")
		fmt.Printf("  %-12s %8s %10s %9s %7s %12s\n", "plan", "probes", "collisions", "complete", "direct", "minPair/min")
		for _, r := range rows {
			fmt.Printf("  %-12s %8d %10d %9v %7d %12.2f\n", r.name, r.probes, r.collisions, r.complete, r.direct, r.minFreq)
		}
		fmt.Println("  shape: the ENV plan keeps collisions rare at high per-pair frequency.")
		fmt.Println("  One mesh clique over reachable hosts is collision-free but slow (1/n frequency);")
		fmt.Println("  a topology-blind mesh across the firewall splits its token ring (several")
		fmt.Println("  coordinators -> colliding probes); blind partitions collide on hubs.")
	})
}

// ---- E7: §2.3 — clique frequency vs size ----

func BenchmarkE7CliqueFrequency(b *testing.B) {
	type row struct {
		n       int
		perPair float64
	}
	var rows []row
	for i := 0; i < b.N; i++ {
		rows = rows[:0]
		for _, n := range []int{2, 4, 8, 16, 32} {
			tp := simnet.NewTopology()
			tp.AddSwitch("sw")
			var hosts []string
			for h := 0; h < n; h++ {
				id := fmt.Sprintf("h%d", h)
				tp.AddHost(id, fmt.Sprintf("10.0.0.%d", h+1), id, "lan")
				tp.Connect(id, "sw")
				hosts = append(hosts, id)
			}
			sim := vclock.New()
			net := simnet.NewNetwork(sim, tp)
			tr := proto.NewSimTransport(net)
			cfg := clique.Config{Name: "c", Members: hosts, TokenGap: time.Second}
			var members []*clique.Member
			for _, h := range hosts {
				ep, err := tr.Open(h)
				if err != nil {
					b.Fatal(err)
				}
				st := proto.NewStation(tr.Runtime(), ep)
				m := clique.NewMember(cfg, st, sensor.SimProber{Net: net}, nil)
				members = append(members, m)
				sim.Go("m:"+h, m.Run)
			}
			window := 10 * time.Minute
			if err := sim.RunUntil(window); err != nil {
				b.Fatal(err)
			}
			for _, m := range members {
				m.Stop()
			}
			count := 0
			for _, rec := range net.Records() {
				if rec.Src == "h0" && rec.Dst == "h1" && rec.Tag != "" {
					count++
				}
			}
			rows = append(rows, row{n, float64(count) / window.Minutes()})
		}
	}
	once("e7", func() {
		fmt.Println("\n[E7 / §2.3] per-pair measurement frequency vs clique size (token gap 1s):")
		fmt.Printf("  %6s %14s\n", "size", "pair meas/min")
		for _, r := range rows {
			fmt.Printf("  %6d %14.2f\n", r.n, r.perPair)
		}
		fmt.Println("  shape: frequency ∝ 1/n — \"the frequency of the measurements obviously")
		fmt.Println("  decreases when the number of hosts in a given clique increases\".")
	})
}

// ---- E8: §2.3 — colliding probes report about half ----

func BenchmarkE8CollisionHalving(b *testing.B) {
	var alone, collided float64
	for i := 0; i < b.N; i++ {
		tp := simnet.NewTopology()
		tp.AddHub("hub", 100*simnet.Mbps)
		for _, h := range []string{"a", "b", "c", "d"} {
			tp.AddHost(h, h, h, "lan")
			tp.Connect(h, "hub")
		}
		sim := vclock.New()
		net := simnet.NewNetwork(sim, tp)
		var st1, st2, st3 simnet.TransferStats
		sim.Go("alone", func() {
			st1, _ = net.Transfer("a", "b", 4_000_000, "probe")
		})
		if err := sim.Run(); err != nil {
			b.Fatal(err)
		}
		sim.Go("p1", func() { st2, _ = net.Transfer("a", "b", 4_000_000, "probe") })
		sim.Go("p2", func() { st3, _ = net.Transfer("c", "d", 4_000_000, "probe") })
		if err := sim.Run(); err != nil {
			b.Fatal(err)
		}
		alone = st1.AvgBps / 1e6
		collided = (st2.AvgBps + st3.AvgBps) / 2 / 1e6
	}
	b.ReportMetric(alone, "aloneMbps")
	b.ReportMetric(collided, "collidedMbps")
	once("e8", func() {
		fmt.Println("\n[E8 / §2.3] collision effect on a 100 Mbps hub:")
		fmt.Printf("  exclusive probe: %.1f Mbps; two simultaneous probes: %.1f Mbps each\n", alone, collided)
		fmt.Println("  paper: colliding measurements \"may report an availability of about")
		fmt.Println("  the half of the real value\" — the reason cliques exist.")
	})
}

// ---- E9: §4.3 firewall merge ----

func BenchmarkE9FirewallMerge(b *testing.B) {
	var merged *env.Merged
	var gatewayOK bool
	for i := 0; i < b.N; i++ {
		_, _, m, _ := mapEnsLyonBoth(b)
		merged = m
		gw := m.Doc.FindMachine("popc0.popc.private")
		gatewayOK = gw != nil && gw.HasName("popc.ens-lyon.fr")
		if !gatewayOK {
			b.Fatal("gateway aliases lost in merge")
		}
	}
	b.ReportMetric(float64(len(merged.Doc.Sites)), "sites")
	once("e9", func() {
		fmt.Println("\n[E9 / §4.3] firewall merge:")
		fmt.Printf("  sites merged: %d; unified networks: %d; gateway aliases resolved: %v\n",
			len(merged.Doc.Sites), len(merged.Networks), gatewayOK)
		for _, ga := range []string{"popc.ens-lyon.fr", "myri.ens-lyon.fr", "sci.ens-lyon.fr"} {
			m := merged.Doc.FindMachine(ga)
			var names []string
			if m != nil && m.Label != nil {
				for _, a := range m.Label.Aliases {
					names = append(names, a.Name)
				}
			}
			fmt.Printf("  %-20s aliases: %s\n", ga, strings.Join(names, ", "))
		}
	})
}

// ---- E10: §4.3 asymmetric-route blind spot ----

func BenchmarkE10AsymmetryBlindspot(b *testing.B) {
	var reported, truthIn, truthOut float64
	for i := 0; i < b.N; i++ {
		e, _, merged, _ := mapEnsLyonBoth(b)
		tIn, _ := e.Topo.AloneBandwidth("the-doors", "popc0")
		tOut, _ := e.Topo.AloneBandwidth("popc0", "the-doors")
		truthIn, truthOut = tIn/1e6, tOut/1e6
		for _, nw := range merged.Networks {
			for _, h := range nw.Hosts {
				if h == "popc.ens-lyon.fr" {
					reported = nw.BaseBW
				}
			}
		}
	}
	b.ReportMetric(reported, "reportedMbps")
	once("e10", func() {
		fmt.Println("\n[E10 / §4.3] asymmetric routes:")
		fmt.Printf("  truth the-doors->popc0: %.0f Mbps; truth popc0->the-doors: %.0f Mbps\n", truthIn, truthOut)
		fmt.Printf("  ENV (one-way tests only) reports %.1f Mbps — the reverse direction is invisible,\n", reported)
		fmt.Println("  exactly the limitation §4.3 concedes (\"ENV bandwidth tests are conducted in only one way\").")
	})
}

// ---- E11: §4.2.2 threshold ablation ----

func BenchmarkE11ThresholdAblation(b *testing.B) {
	type row struct {
		label    string
		accuracy float64
	}
	var rows []row
	score := func(th env.Thresholds, strict bool) float64 {
		correct, total := 0, 0
		for _, seed := range []int64{1, 2, 3, 4} {
			tp, truth := topo.RandomLAN(seed, 4, 4)
			sim := vclock.New()
			net := simnet.NewNetwork(sim, tp)
			var hosts []string
			for _, h := range tp.HostIDs() {
				if h != "world" {
					hosts = append(hosts, h)
				}
			}
			var res *env.Result
			var err error
			sim.Go("map", func() {
				res, err = env.NewMapper(net, env.Config{
					Master: hosts[0], Hosts: hosts, Thresholds: th, StrictPaper: strict,
				}).Run()
			})
			if e := sim.RunUntil(240 * time.Hour); e != nil {
				b.Fatal(e)
			}
			if err != nil {
				b.Fatal(err)
			}
			for _, tr := range truth {
				total++
				for _, nw := range res.Networks {
					match := false
					for _, h := range nw.Hosts {
						if strings.HasPrefix(h, tr.Hosts[0]+".") {
							match = true
						}
					}
					if match {
						if (nw.Class == env.Shared) == tr.Shared && nw.Class != env.Unknown {
							correct++
						}
						break
					}
				}
			}
		}
		return float64(correct) / float64(total)
	}
	for i := 0; i < b.N; i++ {
		rows = rows[:0]
		def := env.DefaultThresholds()
		rows = append(rows, row{"paper defaults (3 / 1.25 / 0.7 / 0.9)", score(def, false)})
		rows = append(rows, row{"strict-paper classification", score(def, true)})
		loose := def
		loose.JammedShared, loose.JammedSwitched = 0.45, 0.55
		rows = append(rows, row{"narrow jam band (0.45/0.55)", score(loose, false)})
		tight := def
		tight.JammedShared, tight.JammedSwitched = 0.95, 0.98
		rows = append(rows, row{"degenerate jam band (0.95/0.98)", score(tight, false)})
	}
	once("e11", func() {
		fmt.Println("\n[E11 / §4.2.2] classification accuracy vs thresholds (16 segments, 4 random LANs):")
		for _, r := range rows {
			fmt.Printf("  %-40s %5.0f%%\n", r.label, r.accuracy*100)
		}
		fmt.Println("  shape: the paper's empirical thresholds sit in a robust band; the strict")
		fmt.Println("  classification loses hubs hidden behind bottleneck uplinks (§4.3 concerns).")
	})
}

// ---- E12: forecaster battery accuracy ----

func BenchmarkE12ForecasterAccuracy(b *testing.B) {
	type row struct {
		trace              string
		battery, last, m21 float64
		method             string
	}
	var rows []row
	for i := 0; i < b.N; i++ {
		rows = rows[:0]
		gens := []struct {
			name string
			gen  func(i int, prev float64) float64
		}{
			{"noisy-level", func(i int, prev float64) float64 {
				return 60 + 8*wave(float64(i)/7.3)
			}},
			{"random-walkish", func(i int, prev float64) float64 {
				if prev == 0 {
					prev = 50
				}
				return prev + 2*wave(float64(i)/3.1) - 1
			}},
			{"spiky", func(i int, prev float64) float64 {
				v := 80.0
				if i%17 == 0 {
					v = 20
				}
				return v + wave(float64(i)/5)
			}},
		}
		for _, g := range gens {
			bt := predict.NewBattery()
			prev := 0.0
			for k := 0; k < 2000; k++ {
				v := g.gen(k, prev)
				prev = v
				bt.Update(v)
			}
			p, _ := bt.Forecast()
			last, _ := bt.MethodError("last")
			m21, _ := bt.MethodError("mean21")
			rows = append(rows, row{g.name, p.MAE, last, m21, p.Method})
		}
	}
	once("e12", func() {
		fmt.Println("\n[E12 / §2.1] forecaster battery (per the NWS papers this work builds on):")
		fmt.Printf("  %-16s %10s %10s %10s %10s\n", "trace", "battery", "last", "mean21", "chosen")
		for _, r := range rows {
			fmt.Printf("  %-16s %10.3f %10.3f %10.3f %10s\n", r.trace, r.battery, r.last, r.m21, r.method)
		}
		fmt.Println("  shape: the battery's error always matches its best member's.")
	})
}

// ---- E13: §2.3/§5.1 composition accuracy ----

func BenchmarkE13CompositionAccuracy(b *testing.B) {
	var sum metrics.AccuracySummary
	for i := 0; i < b.N; i++ {
		e, net, merged, _ := mapEnsLyonBoth(b)
		resolve := resolveEnsLyon(e, merged)
		plan, err := deploy.NewPlan(merged, deploy.PlanConfig{Master: "the-doors.ens-lyon.fr"})
		if err != nil {
			b.Fatal(err)
		}
		net.ResetAccounting()
		tr := proto.NewSimTransport(net)
		dep, err := deploy.Apply(tr, sensor.SimProber{Net: net}, plan, resolve, deploy.ApplyOptions{TokenGap: time.Second})
		if err != nil {
			b.Fatal(err)
		}
		sim := net.Sim()
		base := sim.Now()
		if err := sim.RunUntil(base + 3*time.Minute); err != nil {
			b.Fatal(err)
		}
		var pairs [][2]string
		for _, x := range plan.Hosts {
			for _, y := range plan.Hosts {
				if x < y {
					pairs = append(pairs, [2]string{x, y})
				}
			}
		}
		sim.Go("acc", func() {
			master := dep.Agents[plan.Master]
			est := dep.Estimator(master.Station())
			sum = metrics.Accuracy(est, e.Topo, resolve, pairs)
		})
		if err := sim.RunUntil(base + 10*time.Minute); err != nil {
			b.Fatal(err)
		}
		dep.Stop()
	}
	b.ReportMetric(sum.MedianBWRelErr, "medianBWerr")
	once("e13", func() {
		fmt.Println("\n[E13 / §2.3] composed-estimate accuracy vs ground truth (all 91 pairs):")
		fmt.Printf("  pairs evaluated: %d; median bandwidth rel. error: %.3f; median RTT rel. error: %.3f; worst bw err: %.3f\n",
			len(sum.Pairs), sum.MedianBWRelErr, sum.MedianLatRelErr, sum.WorstBWRelErr)
		fmt.Println("  paper: composed values \"may be less accurate than real tests, but are")
		fmt.Println("  still interesting when no direct test result is available\".")
	})
}

// ---- E14: §2.3 token-ring robustness ----

func BenchmarkE14TokenRecovery(b *testing.B) {
	var gap time.Duration
	var elections int
	for i := 0; i < b.N; i++ {
		tp := simnet.NewTopology()
		tp.AddSwitch("sw")
		hosts := []string{"h0", "h1", "h2", "h3"}
		for k, h := range hosts {
			tp.AddHost(h, fmt.Sprintf("10.0.0.%d", k+1), h, "lan")
			tp.Connect(h, "sw")
		}
		sim := vclock.New()
		net := simnet.NewNetwork(sim, tp)
		tr := proto.NewSimTransport(net)
		cfg := clique.Config{Name: "c", Members: hosts, TokenGap: 500 * time.Millisecond, TokenTimeout: 12 * time.Second}
		var members []*clique.Member
		var times []time.Duration
		var mu sync.Mutex
		var killHook func(sensor.Measurement)
		store := func(m sensor.Measurement) {
			mu.Lock()
			if !strings.Contains(m.Series, "h0") {
				times = append(times, m.At)
			}
			mu.Unlock()
			if killHook != nil {
				killHook(m)
			}
		}
		for _, h := range hosts {
			ep, err := tr.Open(h)
			if err != nil {
				b.Fatal(err)
			}
			st := proto.NewStation(tr.Runtime(), ep)
			m := clique.NewMember(cfg, st, sensor.SimProber{Net: net}, store)
			members = append(members, m)
			sim.Go("m:"+h, m.Run)
		}
		// killHook fires while h0 holds the token (mid-experiments of its
		// second round), so the token dies with it and only an election
		// can restore monitoring.
		holds := 0
		killHook = func(m sensor.Measurement) {
			if strings.HasPrefix(m.Series, "bandwidth.h0.") {
				holds++
				if holds == 4 {
					members[0].Stop()
					tr.SetDown("h0", true)
				}
			}
		}
		if err := sim.RunUntil(2 * time.Minute); err != nil {
			b.Fatal(err)
		}
		for _, m := range members {
			m.Stop()
		}
		mu.Lock()
		gap = 0
		for k := 1; k < len(times); k++ {
			if g := times[k] - times[k-1]; g > gap {
				gap = g
			}
		}
		mu.Unlock()
		elections = 0
		for _, m := range members[1:] {
			elections += m.Stats().Elections
		}
	}
	b.ReportMetric(gap.Seconds(), "worstGapSec")
	once("e14", func() {
		fmt.Println("\n[E14 / §2.3] token-ring recovery after coordinator death:")
		fmt.Printf("  worst survivor measurement gap: %v; elections run: %d\n", gap.Round(time.Millisecond), elections)
		fmt.Println("  shape: monitoring resumes within the watchdog+election window —")
		fmt.Println("  \"mechanisms to handle network errors and leader elections\".")
	})
}

// wave is a deterministic pseudo-noise helper for E12.
func wave(x float64) float64 {
	x = x - float64(int64(x))
	if x < 0.5 {
		return 4*x - 1
	}
	return 3 - 4*x
}

// ---- E15: §6 "lock hosts, not networks" — pairwise scheduler ablation ----

func BenchmarkE15PairwiseAblation(b *testing.B) {
	type row struct {
		gap        time.Duration
		ring, pair float64 // per-pair measurements per minute (both directions)
	}
	var rows []row
	runOne := func(gap time.Duration, pairwise bool) float64 {
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
		p := &deploy.Plan{
			Label: "sw", Master: "a", NameServer: "a", Forecaster: "a",
			MemoryServers: []string{"a"}, MemoryOf: map[string]string{},
			Hosts: hosts,
			Cliques: []deploy.CliqueSpec{{
				Name: "clique-sw", Network: "sw", Members: hosts, Period: gap,
			}},
		}
		for _, h := range hosts {
			p.MemoryOf[h] = "a"
		}
		tr := proto.NewSimTransport(net)
		dep, err := deploy.Apply(tr, sensor.SimProber{Net: net}, p, resolve, deploy.ApplyOptions{
			TokenGap: gap, PairwiseSwitched: pairwise,
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := sim.RunUntil(5 * time.Minute); err != nil {
			b.Fatal(err)
		}
		dep.Stop()
		count := 0
		for _, rec := range net.Records() {
			if rec.Tag == "" {
				continue
			}
			if (rec.Src == "b" && rec.Dst == "c") || (rec.Src == "c" && rec.Dst == "b") {
				count++
			}
		}
		return float64(count) / 5
	}
	for i := 0; i < b.N; i++ {
		rows = rows[:0]
		for _, gap := range []time.Duration{time.Second, 100 * time.Millisecond, 10 * time.Millisecond} {
			rows = append(rows, row{gap, runOne(gap, false), runOne(gap, true)})
		}
	}
	once("e15", func() {
		fmt.Println("\n[E15 / §6] token ring vs pairwise scheduler on an 8-host switch:")
		fmt.Printf("  %10s %14s %14s\n", "gap", "ring pair/min", "pairwise/min")
		for _, r := range rows {
			fmt.Printf("  %10v %14.1f %14.1f\n", r.gap, r.ring, r.pair)
		}
		fmt.Println("  shape: with a large gap the ring amortizes it over n-1 experiments per")
		fmt.Println("  hold and wins; as the gap shrinks, serialized experiment time dominates")
		fmt.Println("  and host-level locking (\"lock hosts (and not networks)\") pulls ahead —")
		fmt.Println("  the enhancement the paper's conclusion calls for.")
	})
}

// ---- E16: §4.3 future work — bidirectional mapping ----

func BenchmarkE16BidirectionalMapping(b *testing.B) {
	type out struct {
		fwd, rev    float64
		extraProbes int
		flagged     bool
	}
	var res out
	for i := 0; i < b.N; i++ {
		e := topo.NewEnsLyon()
		sim := vclock.New()
		net := simnet.NewNetwork(sim, e.Topo)
		var oneWay, both *env.Result
		var err1, err2 error
		sim.Go("map", func() {
			oneWay, err1 = env.NewMapper(net, env.Config{
				Master: e.OutsideMaster, Hosts: e.OutsideHosts, Names: e.OutsideNames,
			}).Run()
			both, err2 = env.NewMapper(net, env.Config{
				Master: e.OutsideMaster, Hosts: e.OutsideHosts, Names: e.OutsideNames,
				Bidirectional: true,
			}).Run()
		})
		if er := sim.RunUntil(24 * time.Hour); er != nil {
			b.Fatal(er)
		}
		if err1 != nil || err2 != nil {
			b.Fatal(err1, err2)
		}
		for _, nw := range both.Networks {
			for _, h := range nw.Hosts {
				if h == "popc.ens-lyon.fr" {
					res = out{
						fwd: nw.BaseBW, rev: nw.ReverseBW,
						extraProbes: both.Stats.Probes - oneWay.Stats.Probes,
						flagged:     nw.Asymmetric(env.DefaultThresholds().BWRatio),
					}
				}
			}
		}
	}
	b.ReportMetric(res.rev, "reverseMbps")
	once("e16", func() {
		fmt.Println("\n[E16 / §4.3 future work] bidirectional host-to-host phase:")
		fmt.Printf("  gateways network: forward %.1f Mbps, reverse %.1f Mbps, asymmetry flagged=%v\n",
			res.fwd, res.rev, res.flagged)
		fmt.Printf("  cost: +%d probes over the one-way run (one per non-master host)\n", res.extraProbes)
		fmt.Println("  the paper left this as future work (\"Solving this would imply almost a")
		fmt.Println("  complete rewrite of ENV tests and is still to do\"); here it is a Config flag.")
	})
}
