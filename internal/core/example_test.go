package core_test

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"nwsenv/internal/core"
	"nwsenv/internal/metrics"
	"nwsenv/internal/nws/proto"
	"nwsenv/internal/platform"
	"nwsenv/internal/simnet"
	"nwsenv/internal/topo"
	"nwsenv/internal/vclock"
)

// simHosts lists a topology's machines, leaving out the external
// traceroute target.
func simHosts(tp *simnet.Topology) []string {
	var hosts []string
	for _, h := range tp.HostIDs() {
		if h != "world" {
			hosts = append(hosts, h)
		}
	}
	return hosts
}

// A random LAN of three subnets (hubs or switches) of four hosts each,
// deployed on the virtual clock: the pipeline maps it, plans cliques,
// validates the plan and starts the agents; after five minutes of
// monitoring the deployment answers a cross-subnet pair no clique
// measures directly by composing per-segment readings.
func ExamplePipeline_Deploy() {
	tp, truth := topo.RandomLAN(42, 3, 4)
	sim := vclock.New()
	net := simnet.NewNetwork(sim, tp)
	plat := platform.NewSimPlatform(net, proto.NewSimTransport(net))
	hosts := simHosts(tp)

	pl := core.NewPipeline(plat,
		core.WithTokenGap(time.Second),
		core.WithObserver(func(e core.Event) {
			fmt.Printf("[%s] %s\n", e.Phase, e.Detail)
		}),
	)
	var out *core.Outcome
	var err error
	sim.Go("autodeploy", func() {
		out, err = pl.Deploy(context.Background(), core.MapRun{Master: hosts[0], Hosts: hosts})
	})
	if e := sim.RunUntil(2 * time.Hour); e != nil || err != nil {
		fmt.Println(e, err)
		return
	}
	defer out.Deployment.Stop()

	fmt.Println("== ground truth ==")
	segs := make([]string, 0, len(truth))
	for seg := range truth {
		segs = append(segs, seg)
	}
	sort.Strings(segs)
	for _, seg := range segs {
		fmt.Printf("  %-6s shared=%v hosts=%v\n", seg, truth[seg].Shared, truth[seg].Hosts)
	}
	fmt.Println("== ENV mapping ==")
	for _, nw := range out.Merged.Networks {
		fmt.Printf("  %-10s %-8s base %6.1f Mbps local %6.1f Mbps %v\n",
			nw.Label, nw.Class, nw.BaseBW, nw.LocalBW, nw.Hosts)
	}
	fmt.Println("== deployment plan ==")
	fmt.Print(out.Plan.Summary())
	fmt.Printf("validation: complete=%v, %d/%d pairs measured directly\n",
		out.Validation.Complete, out.Validation.DirectPairs, out.Validation.TotalPairs)

	base := sim.Now()
	if err := sim.RunUntil(base + 5*time.Minute); err != nil {
		fmt.Println(err)
		return
	}
	from, to := out.Plan.Hosts[0], out.Plan.Hosts[len(out.Plan.Hosts)-1]
	sim.Go("query", func() {
		master := out.Deployment.Agents[out.Plan.Master]
		est, err := out.Deployment.Estimator(master.Station()).Estimate(from, to)
		if err != nil {
			fmt.Println(err)
			return
		}
		fmt.Printf("estimate %s -> %s: %.1f Mbps, %.2f ms (direct=%v, via %d measured hops)\n",
			from, to, est.BandwidthMbps, est.LatencyMS, est.Direct, len(est.Via))
	})
	if err := sim.RunUntil(base + 6*time.Minute); err != nil {
		fmt.Println(err)
	}
	// Output:
	// [map] ENV run from h0-0 (12 hosts)
	// [map] merged 1 run(s) into 3 networks (60 probes, 231.7 MB)
	// [plan] planned 5 cliques over 12 hosts (master h0-0.rand.net)
	// [plan] validated: 30/132 pairs direct, max clique 4
	// [apply] starting 12 agents on sim
	// [apply] deployment running: ns=h0-0.rand.net forecaster=h0-0.rand.net memories=[h0-0.rand.net]
	// == ground truth ==
	//   seg0   shared=false hosts=[h0-0 h0-1 h0-2 h0-3]
	//   seg1   shared=true hosts=[h1-0 h1-1 h1-2 h1-3]
	//   seg2   shared=false hosts=[h2-0 h2-1 h2-2 h2-3]
	// == ENV mapping ==
	//   r0         switched base  100.0 Mbps local  100.0 Mbps [h0-0.rand.net h0-1.rand.net h0-2.rand.net h0-3.rand.net]
	//   r1         shared   base   10.0 Mbps local  100.0 Mbps [h1-0.rand.net h1-1.rand.net h1-2.rand.net h1-3.rand.net]
	//   r2         switched base  100.0 Mbps local  100.0 Mbps [h2-0.rand.net h2-1.rand.net h2-2.rand.net h2-3.rand.net]
	// == deployment plan ==
	// deployment nws-h0-0.rand.net (master h0-0.rand.net)
	//   name server : h0-0.rand.net
	//   forecaster  : h0-0.rand.net
	//   gateway     : h0-0.rand.net
	//   memory      : h0-0.rand.net
	//   clique bridge-0                 [h0-0.rand.net, h1-0.rand.net] switched/bridge
	//   clique bridge-1                 [h1-0.rand.net, h2-0.rand.net] switched/bridge
	//   clique clique-r0                [h0-0.rand.net, h0-1.rand.net, h0-2.rand.net, h0-3.rand.net] switched/bridge
	//   clique clique-r1                [h1-0.rand.net, h1-1.rand.net] shared (represents 4 hosts)
	//   clique clique-r2                [h2-0.rand.net, h2-1.rand.net, h2-2.rand.net, h2-3.rand.net] switched/bridge
	// validation: complete=true, 30/132 pairs measured directly
	// estimate h0-0.rand.net -> h2-3.rand.net: 10.0 Mbps, 7.01 ms (direct=false, via 3 measured hops)
}

// Two LAN sites joined by a WAN link, the "WAN constellation of LAN
// resources" of §5. The hierarchical plan monitors each site with its
// own clique and the WAN with one bridge clique, so only the bridge's
// pair crosses the WAN directly where a full mesh would measure every
// cross-site pair; the other cross-site estimates are composed.
func ExamplePipeline_Deploy_twoSites() {
	tp := topo.TwoSite(4, 5)
	sim := vclock.New()
	net := simnet.NewNetwork(sim, tp)
	plat := platform.NewSimPlatform(net, proto.NewSimTransport(net))

	pl := core.NewPipeline(plat, core.WithTokenGap(2*time.Second))
	var out *core.Outcome
	var err error
	sim.Go("autodeploy", func() {
		out, err = pl.Deploy(context.Background(), core.MapRun{Master: "a0", Hosts: simHosts(tp)})
	})
	if e := sim.RunUntil(4 * time.Hour); e != nil || err != nil {
		fmt.Println(e, err)
		return
	}
	defer out.Deployment.Stop()

	fmt.Println("== mapping ==")
	for _, nw := range out.Merged.Networks {
		fmt.Printf("  %-10s %-8s base %6.1f local %6.1f Mbps  %s\n",
			nw.Label, nw.Class, nw.BaseBW, nw.LocalBW, strings.Join(nw.Hosts, ", "))
	}
	fmt.Println("== plan (hierarchical: per-site cliques + one WAN bridge) ==")
	fmt.Print(out.Plan.Summary())

	siteA := 0
	for _, h := range out.Plan.Hosts {
		if strings.HasPrefix(h, "a") {
			siteA++
		}
	}
	siteB := len(out.Plan.Hosts) - siteA
	cross := 0
	for _, pr := range out.Plan.MeasuredPairs() {
		if strings.HasPrefix(pr[0], "a") != strings.HasPrefix(pr[1], "a") {
			cross++
		}
	}
	fmt.Printf("ordered cross-site pairs measured directly: %d (a full mesh over %d+%d hosts measures %d)\n",
		cross, siteA, siteB, 2*siteA*siteB)

	net.ResetAccounting() // observe a clean window
	base := sim.Now()
	if err := sim.RunUntil(base + 5*time.Minute); err != nil {
		fmt.Println(err)
		return
	}
	rep := metrics.Observe(net, "clique:", 5*time.Minute)
	fmt.Printf("steady state: %d probes, %d collisions, per-pair frequency %.2f–%.2f /min\n",
		rep.Probes, rep.Collisions, rep.MinPairPerMinute, rep.MaxPairPerMinute)

	// Every a↔b pair shares the 34 Mbps / 15 ms WAN link.
	sim.Go("query", func() {
		master := out.Deployment.Agents[out.Plan.Master]
		est := out.Deployment.Estimator(master.Station())
		for _, pair := range [][2]string{{"a1.site-a.org", "b3.site-b.org"}, {"a3.site-a.org", "b0.site-b.org"}} {
			le, err := est.Estimate(pair[0], pair[1])
			if err != nil {
				fmt.Println(err)
				continue
			}
			fmt.Printf("%s -> %s: %.1f Mbps, %.2f ms (composed=%v)\n",
				pair[0], pair[1], le.BandwidthMbps, le.LatencyMS, !le.Direct)
		}
	})
	if err := sim.RunUntil(base + 6*time.Minute); err != nil {
		fmt.Println(err)
	}
	// Output:
	// == mapping ==
	//   gw         shared   base  100.0 local  100.0 Mbps  a0.site-a.org, a1.site-a.org, a2.site-a.org, a3.site-a.org
	//   gw-2       switched base   34.0 local  100.0 Mbps  b0.site-b.org, b1.site-b.org, b2.site-b.org, b3.site-b.org, b4.site-b.org
	// == plan (hierarchical: per-site cliques + one WAN bridge) ==
	// deployment nws-a0.site-a.org (master a0.site-a.org)
	//   name server : a0.site-a.org
	//   forecaster  : a0.site-a.org
	//   gateway     : a0.site-a.org
	//   memory      : a0.site-a.org, b0.site-b.org
	//   clique bridge-0                 [a1.site-a.org, b0.site-b.org] switched/bridge
	//   clique clique-gw                [a1.site-a.org, a2.site-a.org] shared (represents 4 hosts)
	//   clique clique-gw-2              [b0.site-b.org, b1.site-b.org, b2.site-b.org, b3.site-b.org, b4.site-b.org] switched/bridge
	// ordered cross-site pairs measured directly: 2 (a full mesh over 4+5 hosts measures 40)
	// steady state: 879 probes, 2 collisions, per-pair frequency 5.80–15.00 /min
	// a1.site-a.org -> b3.site-b.org: 34.0 Mbps, 33.00 ms (composed=true)
	// a3.site-a.org -> b0.site-b.org: 34.0 Mbps, 33.00 ms (composed=true)
}
