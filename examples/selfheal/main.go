// Selfheal: the §4.3 "possible platform evolution" loop end to end.
//
//	go run ./examples/selfheal
//	go run ./examples/selfheal -seed 7
//
// It deploys NWS on a generated LAN, then puts the deployment under the
// reconcile control plane while a seeded fault scenario plays out: a
// sensor host crashes, another gets partitioned by a cut access link,
// and a third link degrades — each healing later. The reconciler
// detects every drift by probing liveness and re-running ENV, re-plans,
// and applies only the delta, so the healthy cliques never stop
// measuring. At the end it prints the recovery table: time-to-detect,
// time-to-repair, and how few components each repair touched.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"time"

	"nwsenv/internal/cli"
	"nwsenv/internal/core"
	"nwsenv/internal/deploy"
	"nwsenv/internal/metrics"
	"nwsenv/internal/nws/proto"
	"nwsenv/internal/platform"
	"nwsenv/internal/reconcile"
	"nwsenv/internal/simnet"
	"nwsenv/internal/topo"
	"nwsenv/internal/vclock"
)

func main() {
	seed := flag.Int64("seed", 42, "seed for the topology and all fault randomness")
	flag.Parse()

	// 1. A LAN with 3 subnets of 3 hosts each, deployed with the staged
	// pipeline.
	tp, _ := topo.RandomLAN(*seed, 3, 3)
	sim := vclock.New()
	net := simnet.NewNetwork(sim, tp)
	plat := platform.NewSimPlatform(net, proto.NewSimTransport(net))

	var hosts []string
	for _, h := range tp.HostIDs() {
		if h != tp.ExternalTarget {
			hosts = append(hosts, h)
		}
	}
	pl := core.NewPipeline(plat,
		core.WithTokenGap(time.Second),
		core.WithObserver(func(e core.Event) {
			fmt.Printf("[%s] %s\n", e.Phase, e.Detail)
		}),
	)
	run := core.MapRun{Master: hosts[0], Hosts: hosts}

	out, err := cli.DeploySim(sim, pl, []core.MapRun{run})
	if err != nil {
		log.Fatal(err)
	}
	base := sim.Now()
	fmt.Printf("\ndeployed %d hosts; watching with 2-minute reconcile rounds\n\n", len(out.Plan.Hosts))

	// 2. A deterministic fault schedule: crash, partition (cut access
	// link), degradation — all victims and jitter drawn from the seed.
	victims := []string{hosts[4], hosts[7]}
	var links [][2]string
	for _, id := range []string{hosts[2], hosts[5]} {
		for _, l := range tp.Links() {
			if l.A == id || l.B == id {
				links = append(links, [2]string{l.A, l.B})
				break
			}
		}
	}
	scen := simnet.MixedScenario(*seed, victims, links,
		base+2*time.Minute, 8*time.Minute, 4*time.Minute, 3)
	for _, e := range scen.Events {
		fmt.Printf("  scheduled t+%-8s %s\n", (e.At - base).Round(time.Second), e)
	}
	scenRun := scen.Schedule(net)

	// 3. The reconcile control plane: probe → re-map → re-plan → diff →
	// incremental apply, every two virtual minutes.
	rec := reconcile.New(pl, out.Deployment, reconcile.Config{
		Runs:     []core.MapRun{run},
		Interval: 2 * time.Minute,
	})
	sim.Go("reconcile", func() { rec.Run(context.Background()) })

	end := base + 45*time.Minute
	if e := sim.RunUntil(end); e != nil {
		log.Fatal(e)
	}

	// 4. The recovery table.
	fmt.Println()
	report := rec.RecoveryReport(scenRun.Injected())
	fmt.Print(report)
	dis := metrics.ProbeDisruption(net, "clique:", reconcile.RepairWindows(report), base, end)
	fmt.Printf("probe disruption: baseline %.1f/min, during repair %.1f/min (drop %.0f%%)\n",
		dis.BaselinePerMinute, dis.RepairPerMinute, dis.Drop*100)

	dep := rec.Deployment()
	v := deploy.ValidateConnectivity(dep.Plan)
	rounds := rec.Rounds()
	last := rounds[len(rounds)-1]
	fmt.Printf("\nfinal deployment: %d hosts monitored, complete=%v, drift-free=%v (%d rounds)\n",
		len(dep.Plan.Hosts), v.Complete, !last.Drifted() && last.Err == nil, len(rounds))
	dep.Stop()
}
