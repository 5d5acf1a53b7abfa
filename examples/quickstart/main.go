// Quickstart: auto-deploy NWS on a small generated LAN in a few lines.
//
//	go run ./examples/quickstart
//
// It builds a random hierarchical LAN, wraps it as a Platform, runs the
// staged pipeline (Map → Plan → Apply) with a progress observer, lets
// the deployment monitor for five virtual minutes, and asks the
// forecaster about a pair that was never measured directly.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"nwsenv/internal/core"
	"nwsenv/internal/deploy"
	"nwsenv/internal/nws/proto"
	"nwsenv/internal/platform"
	"nwsenv/internal/simnet"
	"nwsenv/internal/topo"
	"nwsenv/internal/vclock"
)

func main() {
	// A LAN with 3 subnets (hubs or switches) of 4 hosts each.
	tp, truth := topo.RandomLAN(42, 3, 4)
	sim := vclock.New()
	net := simnet.NewNetwork(sim, tp)
	plat := platform.NewSimPlatform(net, proto.NewSimTransport(net))

	var hosts []string
	for _, h := range tp.HostIDs() {
		if h != "world" {
			hosts = append(hosts, h)
		}
	}

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
	if e := sim.RunUntil(2 * time.Hour); e != nil {
		log.Fatal(e)
	}
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("== ground truth ==")
	for seg, tr := range truth {
		fmt.Printf("  %-6s shared=%v hosts=%v\n", seg, tr.Shared, tr.Hosts)
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

	// Let the monitoring system run.
	base := sim.Now()
	if err := sim.RunUntil(base + 5*time.Minute); err != nil {
		log.Fatal(err)
	}

	// Estimate a cross-subnet pair (composed from per-segment readings).
	from := out.Plan.Hosts[0]
	to := out.Plan.Hosts[len(out.Plan.Hosts)-1]
	var est deploy.LinkEstimate
	sim.Go("query", func() {
		master := out.Deployment.Agents[out.Plan.Master]
		est, err = out.Deployment.Estimator(master.Station()).Estimate(from, to)
	})
	if e := sim.RunUntil(base + 6*time.Minute); e != nil {
		log.Fatal(e)
	}
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("estimate %s -> %s: %.1f Mbps, %.2f ms (direct=%v, via %d measured hops)\n",
		from, to, est.BandwidthMbps, est.LatencyMS, est.Direct, len(est.Via))
	out.Deployment.Stop()
}
