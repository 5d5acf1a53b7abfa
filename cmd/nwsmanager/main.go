// Command nwsmanager applies a deployment plan and runs the monitoring
// system for a while, reporting what it measured: the runtime
// counterpart of §5.2. It drives the core pipeline's Apply stage — or,
// with -auto / -tcp, the whole pipeline in one command, and with
// -tcp -watch, the §4.3 self-healing reconcile loop on top of it.
//
//	nwsmanager -topo enslyon.json -plan plan.json -duration 5m
//	nwsmanager -topo enslyon.json -plan plan.json -query moby.cri2000.ens-lyon.fr,sci3.popc.private
//	nwsmanager -topo enslyon.json -auto -duration 5m        # Map→Plan→Apply, no files
//	nwsmanager -tcp -hosts alpha,beta,gamma -duration 3s    # real loopback sockets
//	nwsmanager -tcp -hosts alpha,beta,gamma -watch -duration 30s
//
// -auto collapses the topogen→envmap→nwsdeploy→nwsmanager file relay
// into a single command over the simulated platform; -tcp runs the same
// staged pipeline over real loopback TCP sockets on the wall clock.
// -watch keeps the TCP deployment under a reconcile control plane that
// detects drift (dead sensors, partitions, churn), re-maps, re-plans
// and applies only the delta. Seeded fault scenarios against the same
// loop on the simulated platform are the scenario lab's (scenlab run).
// Long-running modes (-tcp, -tcp -watch) shut down cleanly on SIGINT/
// SIGTERM, closing sockets and flushing a final metrics report.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"nwsenv/internal/cli"
	"nwsenv/internal/core"
	"nwsenv/internal/deploy"
	"nwsenv/internal/gridml"
	"nwsenv/internal/metrics"
	"nwsenv/internal/nws/gateway"
	"nwsenv/internal/nws/proto"
	"nwsenv/internal/nws/sensor"
	"nwsenv/internal/platform"
	"nwsenv/internal/query"
	"nwsenv/internal/reconcile"
	"nwsenv/internal/simnet"
	"nwsenv/internal/telemetry"
	"nwsenv/internal/vclock"
)

// options are the parsed flags.
type options struct {
	topoFile, hostsCSV   string
	planFile, gridmlFile string
	tcp, watch, pairwise bool
	duration, interval   time.Duration
	query                string
	replicas, gateways   int
	teleDir              string
}

func main() {
	var o options
	flag.StringVar(&o.topoFile, "topo", "", "topology spec file (required unless -tcp)")
	flag.StringVar(&o.planFile, "plan", "", "plan/config file from nwsdeploy")
	flag.StringVar(&o.gridmlFile, "gridml", "", "GridML file for name resolution (optional)")
	auto := flag.Bool("auto", false, "run the full Map→Plan→Apply pipeline instead of reading -plan")
	flag.BoolVar(&o.tcp, "tcp", false, "drive a real loopback TCP platform end to end (with -hosts)")
	flag.StringVar(&o.hostsCSV, "hosts", "", "with -tcp: comma-separated host IDs")
	flag.DurationVar(&o.duration, "duration", 5*time.Minute, "monitoring duration (virtual, or wall-clock with -tcp)")
	flag.StringVar(&o.query, "query", "", "host pair to estimate afterwards: from,to")
	flag.BoolVar(&o.pairwise, "pairwise", false, "drive switched cliques with the pairwise scheduler (§6 relaxation)")
	flag.IntVar(&o.replicas, "replicas", 0, "replication factor k: every memory server's series get k replicas on distinct switches (0 = off)")
	flag.IntVar(&o.gateways, "gateways", 0, "query-gateway replica count N: primary on the master plus N-1 replicas on distinct switches (0/1 = single gateway)")
	flag.BoolVar(&o.watch, "watch", false, "with -tcp: run the self-healing reconcile loop over the deployment")
	flag.DurationVar(&o.interval, "reconcile-interval", 2*time.Minute, "with -tcp -watch: wall-clock reconcile round period")
	flag.StringVar(&o.teleDir, "telemetry", "", "directory for telemetry artifacts: metrics.jsonl, trace.jsonl and snapshot.json (periodic on the simulator, final flush on exit or SIGINT)")
	pprofAddr := flag.String("pprof", "", "with -tcp: serve net/http/pprof on this address (e.g. 127.0.0.1:6060)")
	flag.Parse()
	if o.interval <= 0 {
		fmt.Fprintln(os.Stderr, "nwsmanager: -reconcile-interval must be positive")
		os.Exit(2)
	}

	// Long-running modes stop cleanly on SIGINT/SIGTERM: the context
	// cancellation unwinds the loops, closes sockets and flushes the
	// final metrics report.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *pprofAddr != "" {
		// pprof only makes sense where the process does wall-clock
		// work: the TCP platform. Simulated runs finish in milliseconds
		// and would tear the server down before a profile lands.
		if !o.tcp {
			fmt.Fprintln(os.Stderr, "nwsmanager: -pprof requires -tcp")
			os.Exit(2)
		}
		ln, err := net.Listen("tcp", *pprofAddr)
		check(err)
		fmt.Fprintf(os.Stderr, "nwsmanager: pprof on http://%s/debug/pprof/\n", ln.Addr())
		go func() {
			// DefaultServeMux carries the net/http/pprof handlers.
			if err := http.Serve(ln, nil); err != nil && !errors.Is(err, net.ErrClosed) {
				fmt.Fprintf(os.Stderr, "nwsmanager: pprof server: %v\n", err)
			}
		}()
		defer ln.Close()
	}
	if o.watch && !o.tcp {
		// The simulated reconcile loop under seeded faults is scenlab
		// run's: it gates, records artifacts and replays by seed.
		fmt.Fprintln(os.Stderr, "nwsmanager: -watch requires -tcp")
		os.Exit(2)
	}

	if !o.tcp && o.topoFile == "" {
		fmt.Fprintln(os.Stderr, "nwsmanager: -topo is required")
		os.Exit(2)
	}
	if o.tcp || *auto {
		o.planFile = "" // the pipeline maps and plans for itself
	} else if o.planFile == "" {
		fmt.Fprintln(os.Stderr, "nwsmanager: -plan is required (or use -auto)")
		os.Exit(2)
	}
	if !run(ctx, o) {
		os.Exit(1)
	}
}

// pipelineOptions is the one place the flags become pipeline options.
// The simulated platform maps real routes across firewall sides, so it
// guesses gateway aliases and paces cliques at a virtual second; the
// loopback platform is one labelled segment pacing at 50 ms of wall
// clock.
func pipelineOptions(o options, reg *telemetry.Registry) []core.Option {
	opts := []core.Option{
		core.WithTelemetry(reg),
		core.WithReplication(o.replicas),
		core.WithGateways(o.gateways),
		core.WithObserver(func(e core.Event) {
			fmt.Fprintf(os.Stderr, "[%s] %s\n", e.Phase, e.Detail)
		}),
	}
	if o.pairwise {
		opts = append(opts, core.WithPairwiseSwitched())
	}
	if o.tcp {
		return append(opts, core.WithGridLabel("loopback"), core.WithTokenGap(50*time.Millisecond))
	}
	return append(opts, core.WithAutoAliases(), core.WithTokenGap(time.Second))
}

// run is the one body of every mode: deploy (a published -plan, or the
// whole staged pipeline with -auto and -tcp), with -watch hand the TCP
// system to the §4.3 reconcile control plane, let the clock run for the
// duration, report, and answer -query. One code path drives the
// simulator and real loopback sockets; what differs is how the clock is
// driven and where the report reads its measurements. It returns false
// when the teardown fails (unless the run was interrupted).
func run(ctx context.Context, o options) bool {
	var se *cli.SimEnv // nil on the TCP platform
	var plat platform.Platform
	var runs []core.MapRun
	if o.tcp {
		hosts := tcpHosts(o.hostsCSV)
		plat, runs = platform.NewTCPPlatform(hosts), []core.MapRun{{Master: hosts[0], Hosts: hosts}}
	} else {
		var err error
		se, err = cli.LoadSim(o.topoFile)
		check(err)
		plat, runs = se.Plat, se.Spec.Runs(se.Topo)
	}
	// The registry reads the platform's clock: deterministic readings on
	// the simulator, honest wall-clock timings on sockets.
	reg := telemetry.New(plat.Transport().Runtime().Now)
	if se != nil {
		simnet.RegisterTelemetry(reg, se.Net)
	}
	plat.Transport().SetTelemetry(reg)
	pl := core.NewPipeline(plat, pipelineOptions(o, reg)...)

	var out *core.Outcome
	var err error
	switch {
	case se == nil:
		out, err = pl.Deploy(ctx, runs...)
	case o.planFile != "":
		out, err = applyPlanFile(ctx, pl, se, o)
	default:
		out, err = cli.DeploySim(se.Sim, pl, runs)
	}
	check(err)
	dep := out.Deployment

	var rec *reconcile.Reconciler
	wctx, stopWatch := context.WithCancel(ctx)
	defer stopWatch()
	loopDone := make(chan struct{})
	if o.watch {
		rec = reconcile.New(pl, dep, reconcile.Config{
			Runs:     runs,
			Interval: o.interval,
			OnRound: func(rd reconcile.Round) {
				if rd.Err != nil {
					fmt.Fprintf(os.Stderr, "[reconcile] round %d: transient: %v\n", rd.Index, rd.Err)
				}
			},
		})
		plat.Transport().Runtime().Go("reconcile", func() {
			defer close(loopDone)
			rec.Run(wctx)
		})
	}

	var elapsed time.Duration
	if se != nil {
		elapsed = runSimClock(ctx, se.Sim, o.duration, func() { writeSnapshot(reg, o.teleDir) })
	} else {
		if o.watch {
			fmt.Printf("watching %d hosts over loopback TCP for %v (reconcile every %v) ...\n", len(runs[0].Hosts), o.duration, o.interval)
		} else {
			fmt.Printf("monitoring %d hosts over loopback TCP for %v ...\n", len(runs[0].Hosts), o.duration)
		}
		select {
		case <-time.After(o.duration):
		case <-ctx.Done():
			fmt.Println("interrupted: flushing final report")
		}
	}
	interrupted := ctx.Err() != nil
	// Stop the reconcile loop before touching the deployment, so no
	// repair races the teardown.
	stopWatch()
	if rec != nil {
		<-loopDone
	}

	if se != nil {
		reportSim(se, dep, elapsed, o.query)
	} else {
		reportTCP(plat, rec, dep, o.query)
	}
	healthy := true
	if err := dep.Stop(); err != nil {
		fmt.Fprintln(os.Stderr, "teardown:", err)
		healthy = false
	}
	// The final flush happens on the SIGINT path too: an interrupted run
	// still leaves complete artifacts behind.
	flushTelemetry(reg, o.teleDir)
	if interrupted {
		fmt.Println("interrupted: shut down cleanly")
		return true
	}
	return healthy
}

// runSimClock advances the virtual clock by d in one-minute steps, so
// a SIGINT lands between steps, calling tick every ten virtual minutes
// (the live telemetry snapshot). It returns the virtual time actually
// covered.
func runSimClock(ctx context.Context, sim *vclock.Sim, d time.Duration, tick func()) time.Duration {
	base := sim.Now()
	for step := 1; sim.Now() < base+d && ctx.Err() == nil; step++ {
		check(sim.RunUntil(min(base+time.Duration(step)*time.Minute, base+d)))
		if step%10 == 0 {
			tick()
		}
	}
	return sim.Now() - base
}

// tcpHosts parses and checks -hosts.
func tcpHosts(csv string) []string {
	hosts := strings.Split(csv, ",")
	seen := map[string]bool{}
	for i, h := range hosts {
		h = strings.TrimSpace(h)
		hosts[i] = h
		if h == "" {
			fmt.Fprintln(os.Stderr, "nwsmanager: -tcp -hosts contains an empty host ID")
			os.Exit(2)
		}
		if seen[h] {
			fmt.Fprintf(os.Stderr, "nwsmanager: -tcp -hosts repeats %q\n", h)
			os.Exit(2)
		}
		seen[h] = true
	}
	if len(hosts) < 2 {
		fmt.Fprintln(os.Stderr, "nwsmanager: -tcp needs -hosts with at least two IDs")
		os.Exit(2)
	}
	return hosts
}

// reportTCP reads the freshest samples back through a real client
// station, an end user of the query plane.
func reportTCP(plat platform.Platform, rec *reconcile.Reconciler, dep *deploy.Deployment, queryPair string) {
	if rec != nil {
		rounds := rec.Rounds()
		repairs, transient := reconcile.Tally(rounds)
		fmt.Printf("watch: %d reconcile rounds, %d repairs, %d transient errors, %d hosts live\n",
			len(rounds), repairs, transient, len(dep.Plan.Hosts))
	}
	ep, err := plat.Transport().Open("nwsmanager-client")
	check(err)
	client := proto.NewStation(plat.Transport().Runtime(), ep)
	defer client.Close()
	check(readings(client, dep, queryPair))
}

// readings prints the freshest bandwidth reading of every pair the plan
// measures and answers -query, both over the deployment's query plane
// from port: one batched round-trip for every pair instead of a
// blocking fetch per series.
func readings(port proto.Port, dep *deploy.Deployment, queryPair string) error {
	fetch := queryPlane(port, dep)
	pairs := dep.Plan.MeasuredPairs()
	reqs := make([]proto.SeriesRequest, len(pairs))
	for i, pr := range pairs {
		reqs[i] = proto.SeriesRequest{Series: sensor.BandwidthSeries(dep.Resolve[pr[0]], dep.Resolve[pr[1]]), Count: 1}
	}
	res, _ := fetch(reqs) // per-series failures ride in the results
	fmt.Println("  latest bandwidth readings:")
	for i, r := range res {
		if r.Err != nil || len(r.Samples) == 0 {
			continue
		}
		fmt.Printf("    %-20s %8.2f Mbps (%d samples seen)\n",
			pairs[i][0]+" -> "+pairs[i][1], r.Samples[0].Value, len(r.Samples))
	}
	if queryPair == "" {
		return nil
	}
	return estimate(dep, fetch, queryPair)
}

// applyPlanFile keeps the file-based workflow: apply the plan published
// by nwsdeploy on the simulated topology, resolving its machine names
// through the optional GridML mapping and the topology spec. The plan
// goes through the pipeline's Apply stage, so the roles carry the same
// telemetry and report to the same observer as an -auto run's.
func applyPlanFile(ctx context.Context, pl *core.Pipeline, se *cli.SimEnv, o options) (*core.Outcome, error) {
	pdata, err := os.ReadFile(o.planFile)
	check(err)
	plan, err := deploy.DecodeConfig(pdata)
	check(err)

	var doc *gridml.Document
	if o.gridmlFile != "" {
		gdata, err := os.ReadFile(o.gridmlFile)
		check(err)
		doc, err = gridml.Decode(gdata)
		check(err)
	}
	resolve := se.Spec.Resolve(doc)

	dep, err := pl.Apply(ctx, &core.PlanResult{Mapping: &core.Mapping{Resolve: resolve}, Plan: plan})
	return &core.Outcome{Plan: plan, Resolve: resolve, Deployment: dep}, err
}

// reportSim prints the §2.3 observability report for a monitoring
// window, then the readings of every measured pair and the -query
// estimate as an end user on the master's station, inside the
// simulation, within a virtual minute.
func reportSim(se *cli.SimEnv, dep *deploy.Deployment, duration time.Duration, queryPair string) {
	report := metrics.Observe(se.Net, "", duration)
	fmt.Printf("monitored %v of virtual time\n", duration)
	fmt.Printf("  probes        : %d (%.1f MB injected)\n", report.Probes, float64(report.ProbeBytes)/1e6)
	fmt.Printf("  collisions    : %d (rate %.4f)\n", report.Collisions, report.CollisionRate)
	fmt.Printf("  pair frequency: min %.2f p50 %.2f p95 %.2f max %.2f per minute over %d measured pairs\n",
		report.MinPairPerMinute, report.P50PairPerMinute, report.P95PairPerMinute,
		report.MaxPairPerMinute, len(report.PairFrequency))

	var err error
	se.Sim.Go("report", func() {
		master := dep.Agents[dep.Plan.Master]
		if master == nil {
			err = fmt.Errorf("master agent %q missing", dep.Plan.Master)
			return
		}
		err = readings(master.Station(), dep, queryPair)
	})
	check(se.Sim.RunUntil(se.Sim.Now() + time.Minute))
	check(err)
}

// queryPlane locates the deployment's query gateways through the
// directory — the reconciled deployment's, since a repair may have
// re-homed the name server — and returns the batched fetch through
// them: every series of a request travels in one round-trip. A
// deployment momentarily without a working gateway (registration TTL
// gap after a crash, plan predating the query plane) degrades to the
// direct query-plane client.
func queryPlane(st proto.Port, dep *deploy.Deployment) func([]proto.SeriesRequest) ([]query.Result, error) {
	qc := dep.QueryClient(st)
	direct := func(reqs []proto.SeriesRequest) ([]query.Result, error) { return qc.FetchMany(reqs), nil }
	c, err := gateway.Connect(st, dep.Resolve[dep.Plan.NameServer])
	if err != nil {
		fmt.Println("query gateway: none registered, querying backends directly")
		return direct
	}
	fmt.Printf("query gateway: %d live replica(s), primary %s\n", len(c.Hosts()), c.Host)
	return func(reqs []proto.SeriesRequest) ([]query.Result, error) {
		if res, err := c.FetchMany(reqs); err == nil {
			return res, nil
		}
		return direct(reqs)
	}
}

// estimate composes the end-to-end -query estimate (§2.3) from the
// running deployment's measurements, read through fetch.
func estimate(dep *deploy.Deployment, fetch func([]proto.SeriesRequest) ([]query.Result, error), pair string) error {
	parts := strings.SplitN(pair, ",", 2)
	if len(parts) != 2 {
		return fmt.Errorf("bad -query %q", pair)
	}
	est, err := deploy.NewEstimator(dep.Plan, dep.PairDataVia(fetch)).Estimate(parts[0], parts[1])
	if err != nil {
		return err
	}
	kind := "composed via " + strings.Join(est.Via, ", ")
	if est.Direct {
		kind = "direct measurement"
	}
	fmt.Printf("estimate %s -> %s: %.2f Mbps, %.2f ms RTT (%s)\n",
		parts[0], parts[1], est.BandwidthMbps, est.LatencyMS, kind)
	return nil
}

// writeSnapshot refreshes the live snapshot.json under dir: the
// periodic dump of a simulated run, overwritten in place so tailing it
// always shows the current registry state. A no-op when no -telemetry
// dir was requested.
func writeSnapshot(reg *telemetry.Registry, dir string) {
	if dir == "" {
		return
	}
	check(os.MkdirAll(dir, 0o755))
	check(os.WriteFile(filepath.Join(dir, "snapshot.json"), telemetry.SnapshotJSON(reg.Snapshot()), 0o644))
}

// flushTelemetry writes the final artifacts — metrics.jsonl,
// trace.jsonl and a last snapshot.json — under dir. A no-op when no
// -telemetry dir was requested.
func flushTelemetry(reg *telemetry.Registry, dir string) {
	if dir == "" {
		return
	}
	writeSnapshot(reg, dir)
	check(reg.WriteArtifacts(dir))
	fmt.Fprintf(os.Stderr, "[telemetry] wrote %s\n", filepath.Join(dir, "{metrics.jsonl,trace.jsonl,snapshot.json}"))
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "nwsmanager:", err)
		os.Exit(1)
	}
}
