// Command nwsmanager applies a deployment plan and runs the monitoring
// system for a while, reporting what it measured: the runtime
// counterpart of §5.2. It drives the core pipeline's Apply stage — or,
// with -auto / -tcp, the whole pipeline in one command, and with
// -watch, the §4.3 self-healing reconcile loop on top of it.
//
//	nwsmanager -topo enslyon.json -plan plan.json -duration 5m
//	nwsmanager -topo enslyon.json -plan plan.json -query moby.cri2000.ens-lyon.fr,sci3.popc.private
//	nwsmanager -topo enslyon.json -auto -duration 5m        # Map→Plan→Apply, no files
//	nwsmanager -tcp -hosts alpha,beta,gamma -duration 3s    # real loopback sockets
//	nwsmanager -topo lan.json -watch -scenario mixed -seed 42 -duration 40m
//	nwsmanager -tcp -hosts alpha,beta,gamma -watch -duration 30s
//
// -auto collapses the topogen→envmap→nwsdeploy→nwsmanager file relay
// into a single command over the simulated platform; -tcp runs the same
// staged pipeline over real loopback TCP sockets on the wall clock.
// -watch keeps the deployment under a reconcile control plane that
// detects drift (dead sensors, partitions, churn), re-maps, re-plans
// and applies only the delta; -scenario injects a deterministic,
// seeded fault schedule on the simulated platform to exercise it.
// Long-running modes (-tcp, -watch) shut down cleanly on SIGINT/
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
	"sort"
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
	"nwsenv/internal/scenlab"
	"nwsenv/internal/simnet"
	"nwsenv/internal/telemetry"
	"nwsenv/internal/topo"
	"nwsenv/internal/vclock"
)

func main() {
	topoFile := flag.String("topo", "", "topology spec file (required unless -tcp)")
	planFile := flag.String("plan", "", "plan/config file from nwsdeploy")
	gridmlFile := flag.String("gridml", "", "GridML file for name resolution (optional)")
	auto := flag.Bool("auto", false, "run the full Map→Plan→Apply pipeline instead of reading -plan")
	tcp := flag.Bool("tcp", false, "drive a real loopback TCP platform end to end (with -hosts)")
	hostsCSV := flag.String("hosts", "", "with -tcp: comma-separated host IDs")
	duration := flag.Duration("duration", 5*time.Minute, "monitoring duration (virtual, or wall-clock with -tcp)")
	query := flag.String("query", "", "host pair to estimate afterwards: from,to")
	pairwise := flag.Bool("pairwise", false, "drive switched cliques with the pairwise scheduler (§6 relaxation)")
	replicas := flag.Int("replicas", 0, "replication factor k: every memory server's series get k replicas on distinct switches (0 = off)")
	gateways := flag.Int("gateways", 0, "query-gateway replica count N: primary on the master plus N-1 replicas on distinct switches (0/1 = single gateway)")
	watch := flag.Bool("watch", false, "run the self-healing reconcile loop over the deployment")
	scenario := flag.String("scenario", "none", "with -watch on a topo: fault scenario — a name resolved in -scenarios (crash, partition, ...), a .json path, or none")
	scenarioDir := flag.String("scenarios", "scenarios", "directory of declarative scenario files -scenario names resolve in")
	seed := flag.Int64("seed", 42, "seed for all scenario randomness (fault timing, victim choice, churn order)")
	interval := flag.Duration("reconcile-interval", 2*time.Minute, "reconcile round period (virtual, or wall-clock with -tcp)")
	teleDir := flag.String("telemetry", "", "directory for telemetry artifacts: metrics.jsonl, trace.jsonl and snapshot.json (periodic under -watch, final flush on exit or SIGINT)")
	pprofAddr := flag.String("pprof", "", "with -tcp: serve net/http/pprof on this address (e.g. 127.0.0.1:6060)")
	flag.Parse()
	if *interval <= 0 {
		// The reconciler and the scenario builder both pace off the
		// interval; a non-positive value would desynchronize them (and
		// starve the fault jitter), so fall back to the default.
		*interval = 2 * time.Minute
	}

	// Long-running modes stop cleanly on SIGINT/SIGTERM: the context
	// cancellation unwinds the loops, closes sockets and flushes the
	// final metrics report.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	observer := core.WithObserver(func(ph core.Phase, detail string) {
		fmt.Fprintf(os.Stderr, "[%s] %s\n", ph, detail)
	})

	if *pprofAddr != "" {
		// pprof only makes sense where the process does wall-clock
		// work: the TCP platform. Simulated runs finish in milliseconds
		// and would tear the server down before a profile lands.
		if !*tcp {
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

	if *tcp {
		runTCP(ctx, strings.Split(*hostsCSV, ","), *duration, *query, *watch, *interval, *replicas, *gateways, *teleDir, observer)
		return
	}
	if *topoFile == "" {
		fmt.Fprintln(os.Stderr, "nwsmanager: -topo is required")
		os.Exit(2)
	}
	if *watch {
		runWatchSim(ctx, *topoFile, *duration, *interval, *scenario, *scenarioDir, *seed, *pairwise, *replicas, *gateways, *teleDir, observer)
		return
	}
	if *auto {
		runAuto(*topoFile, *duration, *query, *pairwise, *replicas, *gateways, *teleDir, observer)
		return
	}
	if *planFile == "" {
		fmt.Fprintln(os.Stderr, "nwsmanager: -plan is required (or use -auto)")
		os.Exit(2)
	}
	runFromPlan(*topoFile, *planFile, *gridmlFile, *duration, *query, *pairwise)
}

// wireCodecTelemetry attaches the transport's codec counters
// (proto/encode_total, proto/bytes_out, proto/bytes_in) to reg. Both
// transport implementations expose the hook; the interface assertion
// keeps main agnostic of which one the platform carries.
func wireCodecTelemetry(p platform.Platform, reg *telemetry.Registry) {
	if t, ok := p.Transport().(interface {
		SetTelemetry(*telemetry.Registry)
	}); ok {
		t.SetTelemetry(reg)
	}
}

// runAuto drives the whole pipeline on the simulated platform: one
// command instead of the topogen→envmap→nwsdeploy→nwsmanager file
// relay.
func runAuto(topoFile string, duration time.Duration, query string, pairwise bool, replicas, gateways int, teleDir string, observer core.Option) {
	se, err := cli.LoadSim(topoFile)
	check(err)
	sim, net := se.Sim, se.Net
	runs := se.MapRuns()
	reg := telemetry.New(sim.Now)
	simnet.RegisterTelemetry(reg, net)
	wireCodecTelemetry(se.Plat, reg)
	opts := []core.Option{core.WithAutoAliases(), core.WithTokenGap(time.Second), core.WithTelemetry(reg), observer}
	if pairwise {
		opts = append(opts, core.WithPairwiseSwitched())
	}
	if replicas > 0 {
		opts = append(opts, core.WithReplication(replicas))
	}
	if gateways > 1 {
		opts = append(opts, core.WithGateways(gateways))
	}
	pl := core.NewPipeline(se.Plat, opts...)

	var out *core.Outcome
	var pipeErr error
	done := false
	sim.Go("pipeline", func() {
		out, pipeErr = pl.Deploy(context.Background(), runs...)
		done = true
	})
	// Advance virtual time in small steps: once the deployment is
	// applied, its agents generate events forever, so a single long
	// RunUntil would simulate hours of monitoring before returning.
	for t := sim.Now() + time.Minute; !done && t <= 240*time.Hour; t += time.Minute {
		check(sim.RunUntil(t))
	}
	check(pipeErr)
	if !done {
		check(fmt.Errorf("pipeline did not finish within the virtual time budget"))
	}

	base := sim.Now()
	check(sim.RunUntil(base + duration))
	reportSim(net, duration)
	if query != "" {
		querySim(sim, out.Deployment, out.Plan, query, base+duration)
	}
	out.Deployment.Stop()
	flushTelemetry(reg, teleDir)
}

// runWatchSim deploys on the simulated platform, then hands the system
// to the reconcile control plane while a seeded fault scenario plays
// out: §4.3's platform evolution end to end. It exits non-zero when the
// loop has not converged on a valid deployment by the end (unless it
// was interrupted).
func runWatchSim(ctx context.Context, topoFile string, duration, interval time.Duration, scenario, scenarioDir string, seed int64, pairwise bool, replicas, gateways int, teleDir string, observer core.Option) {
	se, err := cli.LoadSim(topoFile)
	check(err)
	sim, net := se.Sim, se.Net
	runs := se.MapRuns()
	reg := telemetry.New(sim.Now)
	simnet.RegisterTelemetry(reg, net)
	wireCodecTelemetry(se.Plat, reg)
	opts := []core.Option{core.WithAutoAliases(), core.WithTokenGap(time.Second), core.WithTelemetry(reg), observer}
	if pairwise {
		opts = append(opts, core.WithPairwiseSwitched())
	}
	if replicas > 0 {
		opts = append(opts, core.WithReplication(replicas))
	}
	if gateways > 1 {
		opts = append(opts, core.WithGateways(gateways))
	}
	pl := core.NewPipeline(se.Plat, opts...)

	var out *core.Outcome
	var pipeErr error
	done := false
	sim.Go("pipeline", func() {
		out, pipeErr = pl.Deploy(context.Background(), runs...)
		done = true
	})
	for at := sim.Now() + time.Minute; !done && at <= 240*time.Hour; at += time.Minute {
		check(sim.RunUntil(at))
	}
	check(pipeErr)
	if !done {
		check(fmt.Errorf("pipeline did not finish within the virtual time budget"))
	}

	base := sim.Now()
	scen, err := buildScenario(scenario, scenarioDir, seed, base, net.Topology(), out)
	check(err)
	var scenRun *simnet.ScenarioRun
	if len(scen.Events) > 0 {
		fmt.Fprintf(os.Stderr, "[reconcile] scenario %s (seed %d): %d events\n", scen.Name, seed, len(scen.Events))
		for _, e := range scen.Events {
			fmt.Fprintf(os.Stderr, "[reconcile]   t+%-8s %s\n", (e.At - base).Round(time.Second), e)
		}
		scenRun = scen.Schedule(net)
	}

	rec := reconcile.New(pl, out.Deployment, reconcile.Config{
		Runs:     runs,
		Interval: interval,
		OnRound: func(rd reconcile.Round) {
			if rd.Err != nil {
				fmt.Fprintf(os.Stderr, "[reconcile] round %d: transient: %v\n", rd.Index, rd.Err)
			}
		},
	})
	sim.Go("reconcile", func() { rec.Run(context.Background()) })

	// Drive virtual time in wall-clock-interruptible steps, refreshing
	// the live telemetry snapshot every ten virtual minutes.
	interrupted := false
	step := 0
	for at := base + time.Minute; at <= base+duration; at += time.Minute {
		if ctx.Err() != nil {
			interrupted = true
			break
		}
		check(sim.RunUntil(at))
		if step++; teleDir != "" && step%10 == 0 {
			writeSnapshot(reg, teleDir)
		}
	}
	elapsed := sim.Now() - base

	// Final metrics report: what the watch saw and what it cost.
	rounds := rec.Rounds()
	repairsN, errsN := 0, 0
	for _, rd := range rounds {
		if rd.Repaired() {
			repairsN++
		}
		if rd.Err != nil {
			errsN++
		}
	}
	fmt.Printf("watched %v of virtual time: %d reconcile rounds, %d repairs, %d transient errors\n",
		elapsed, len(rounds), repairsN, errsN)
	if scenRun != nil {
		report := rec.RecoveryReport(scenRun.Injected())
		fmt.Print(report)
		dis := metrics.ProbeDisruption(net, "clique:", reconcile.RepairWindows(report), base, sim.Now())
		fmt.Printf("probe disruption: baseline %.2f/min, during repair %.2f/min (drop %.0f%%)\n",
			dis.BaselinePerMinute, dis.RepairPerMinute, dis.Drop*100)
	}
	reportSim(net, elapsed)

	dep := rec.Deployment()
	v := deploy.ValidateConnectivity(dep.Plan)
	converged := len(rounds) > 0 && rounds[len(rounds)-1].Err == nil && !rounds[len(rounds)-1].Drifted()
	fmt.Printf("final deployment: %d hosts, complete=%v, converged=%v\n", len(dep.Plan.Hosts), v.Complete, converged)
	dep.Stop()
	// Final flush happens on the SIGINT path too: an interrupted watch
	// still leaves complete artifacts behind.
	flushTelemetry(reg, teleDir)
	if interrupted {
		fmt.Println("interrupted: shut down cleanly")
		return
	}
	if !v.Complete || !converged {
		os.Exit(1)
	}
}

// buildScenario compiles a declarative scenario file's fault plan
// against the deployed system. The name resolves to <dir>/<name>.json
// unless it already looks like a path; an unknown name lists what the
// scenario directory offers. Victim derivation and all randomness flow
// from the seed exactly as in the scenario lab, so a given (topology,
// scenario file, seed) triple replays the same faults, and the master
// is never a victim.
func buildScenario(name, dir string, seed int64, base time.Duration, tp *simnet.Topology, out *core.Outcome) (simnet.Scenario, error) {
	if name == "" || name == "none" {
		return simnet.Scenario{Name: "none"}, nil
	}
	path := name
	if !strings.ContainsRune(name, os.PathSeparator) && !strings.HasSuffix(name, ".json") {
		path = filepath.Join(dir, name+".json")
	}
	f, err := scenlab.LoadFile(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			if paths, lerr := scenlab.ListDir(dir); lerr == nil && len(paths) > 0 {
				names := make([]string, len(paths))
				for i, p := range paths {
					names[i] = strings.TrimSuffix(filepath.Base(p), ".json")
				}
				return simnet.Scenario{}, fmt.Errorf(
					"unknown scenario %q: %s/ offers %s", name, dir, strings.Join(names, ", "))
			}
			return simnet.Scenario{}, fmt.Errorf("unknown scenario %q (no scenario files under %s/)", name, dir)
		}
		return simnet.Scenario{}, err
	}
	victims, links := scenlab.PlanVictimsFor(f.Spec.Fault, out.Plan, out.Resolve, tp)
	if len(victims) == 0 {
		return simnet.Scenario{}, fmt.Errorf("scenario %s: no non-master victims", f.Spec.Name)
	}
	return f.Spec.Fault.Compile(seed, base, victims, links)
}

// runTCP drives the staged pipeline over real loopback TCP sockets: the
// same code path as the simulator, on the wall clock. With watch, the
// reconcile loop maintains the deployment until the duration elapses or
// the context is canceled (SIGINT).
func runTCP(ctx context.Context, hosts []string, duration time.Duration, queryPair string, watch bool, interval time.Duration, replicas, gateways int, teleDir string, observer core.Option) {
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
	plat := platform.NewTCPPlatform(hosts)
	// On the TCP platform the registry reads the wall clock: the same
	// instruments, honest timings instead of deterministic ones.
	reg := telemetry.New(plat.Runtime().Now)
	wireCodecTelemetry(plat, reg)
	defer flushTelemetry(reg, teleDir)
	tcpOpts := []core.Option{
		core.WithGridLabel("loopback"),
		core.WithTokenGap(50 * time.Millisecond),
		core.WithTelemetry(reg),
		observer,
	}
	if replicas > 0 {
		tcpOpts = append(tcpOpts, core.WithReplication(replicas))
	}
	if gateways > 1 {
		tcpOpts = append(tcpOpts, core.WithGateways(gateways))
	}
	pl := core.NewPipeline(plat, tcpOpts...)

	run := core.MapRun{Master: hosts[0], Hosts: hosts}
	m, err := pl.Map(ctx, run)
	check(err)
	pr, err := pl.Plan(m)
	check(err)
	dep, err := pl.Apply(ctx, pr)
	check(err)
	defer dep.Stop()

	var rec *reconcile.Reconciler
	recDone := make(chan struct{})
	wctx, wcancel := context.WithCancel(ctx)
	defer wcancel()
	if watch {
		rec = reconcile.New(pl, dep, reconcile.Config{Runs: []core.MapRun{run}, Interval: interval})
		go func() {
			defer close(recDone)
			rec.Run(wctx)
		}()
		fmt.Printf("watching %d hosts over loopback TCP for %v (reconcile every %v) ...\n", len(hosts), duration, interval)
	} else {
		close(recDone)
		fmt.Printf("monitoring %d hosts over loopback TCP for %v ...\n", len(hosts), duration)
	}
	select {
	case <-time.After(duration):
	case <-ctx.Done():
		fmt.Println("interrupted: flushing final report")
	}
	// Stop the reconcile loop before touching the deployment, so no
	// repair races the teardown.
	wcancel()
	<-recDone
	if rec != nil {
		rounds := rec.Rounds()
		repairs, errs := 0, 0
		for _, rd := range rounds {
			if rd.Repaired() {
				repairs++
			}
			if rd.Err != nil {
				errs++
			}
		}
		fmt.Printf("watch: %d reconcile rounds, %d repairs, %d transient errors, %d hosts live\n",
			len(rounds), repairs, errs, len(dep.Plan.Hosts))
	}

	// Read back the freshest samples through a real client station: an
	// end user of the query plane, one batched gateway round-trip for
	// every pair instead of a blocking fetch per series.
	ep, err := plat.Transport().Open("nwsmanager-client")
	check(err)
	client := proto.NewStation(plat.Runtime(), ep)
	defer client.Close()
	// The reconciled deployment's view, not the initial plan's: a -watch
	// repair may have re-homed the name server.
	nsHost := dep.Resolve[dep.Plan.NameServer]
	var pairs [][2]string
	var reqs []proto.SeriesRequest
	for _, a := range hosts {
		for _, b := range hosts {
			if a == b {
				continue
			}
			pairs = append(pairs, [2]string{a, b})
			reqs = append(reqs, proto.SeriesRequest{
				Series: sensor.BandwidthSeries(m.Resolve[a], m.Resolve[b]), Count: 1,
			})
		}
	}
	// Prefer one batched round-trip through the gateway; a deployment
	// momentarily without a working one (registration TTL gap after a
	// crash, plan predating the query plane) degrades to the direct
	// query client instead of aborting the readback. The discovered
	// client is reused for the -query estimate below.
	var res []query.Result
	var gwc *gateway.Client
	var gwName string
	if c, err := gateway.Connect(client, nsHost); err == nil {
		gwc = c
		gwName = fmt.Sprintf("%d gateway replica(s), primary %s", len(c.Hosts()), c.Host)
		if r, err := gwc.FetchMany(reqs); err == nil {
			res = r
		}
	}
	if res == nil {
		res = query.New(client, nsHost).FetchMany(reqs)
	}
	fmt.Println("  latest bandwidth readings:")
	for i, r := range res {
		if r.Err != nil || len(r.Samples) == 0 {
			continue
		}
		fmt.Printf("    %-20s %8.2f Mbps (%d samples seen)\n",
			pairs[i][0]+" -> "+pairs[i][1], r.Samples[0].Value, len(r.Samples))
	}
	if queryPair != "" {
		parts := strings.SplitN(queryPair, ",", 2)
		if len(parts) != 2 {
			check(fmt.Errorf("bad -query %q", queryPair))
		}
		// Reuse the gateway discovered for the readback instead of
		// paying a second LookupKind + liveness probe.
		var es *deploy.Estimator
		if gwc != nil {
			fmt.Printf("query gateway: %s\n", gwName)
			es = deploy.NewEstimator(dep.Plan, dep.PairDataVia(gwc.FetchMany))
		} else {
			fmt.Println("query gateway: none registered, querying backends directly")
			es = dep.Estimator(client)
		}
		est, err := es.Estimate(parts[0], parts[1])
		check(err)
		fmt.Printf("estimate %s -> %s: %.2f Mbps, %.2f ms RTT\n",
			parts[0], parts[1], est.BandwidthMbps, est.LatencyMS)
	}
}

// runFromPlan keeps the file-based workflow: apply a published plan on
// the simulated topology.
func runFromPlan(topoFile, planFile, gridmlFile string, duration time.Duration, query string, pairwise bool) {
	tdata, err := os.ReadFile(topoFile)
	check(err)
	spec, err := topo.DecodeSpec(tdata)
	check(err)
	tp, err := spec.Build()
	check(err)
	pdata, err := os.ReadFile(planFile)
	check(err)
	plan, err := deploy.DecodeConfig(pdata)
	check(err)

	resolve := map[string]string{}
	var doc *gridml.Document
	if gridmlFile != "" {
		gdata, err := os.ReadFile(gridmlFile)
		check(err)
		doc, err = gridml.Decode(gdata)
		check(err)
	}
	record := func(id, name string) {
		canonical := name
		if doc != nil {
			if m := doc.FindMachine(name); m != nil {
				canonical = m.CanonicalName()
			}
		}
		if _, dup := resolve[canonical]; !dup {
			resolve[canonical] = id
		}
	}
	for _, names := range spec.NamesOf {
		for id, name := range names {
			record(id, name)
		}
	}
	for _, n := range spec.Nodes {
		if n.Kind == "host" {
			if n.DNS != "" {
				record(n.ID, n.DNS)
			}
			record(n.ID, n.ID)
		}
	}

	sim := vclock.New()
	net := simnet.NewNetwork(sim, tp)
	tr := proto.NewSimTransport(net)
	dep, err := deploy.Apply(tr, sensor.SimProber{Net: net}, plan, resolve, deploy.ApplyOptions{
		TokenGap:         time.Second,
		PairwiseSwitched: pairwise,
	})
	check(err)

	check(sim.RunUntil(duration))
	reportSim(net, duration)
	if query != "" {
		querySim(sim, dep, plan, query, duration)
	}
	dep.Stop()
}

// reportSim prints the §2.3 observability report for a monitoring
// window.
func reportSim(net *simnet.Network, duration time.Duration) {
	report := metrics.Observe(net, "", duration)
	fmt.Printf("monitored %v of virtual time\n", duration)
	fmt.Printf("  probes        : %d (%.1f MB injected)\n", report.Probes, float64(report.ProbeBytes)/1e6)
	fmt.Printf("  collisions    : %d (rate %.4f)\n", report.Collisions, report.CollisionRate)
	fmt.Printf("  pair frequency: min %.2f p50 %.2f p95 %.2f max %.2f per minute over %d measured pairs\n",
		report.MinPairPerMinute, report.P50PairPerMinute, report.P95PairPerMinute,
		report.MaxPairPerMinute, len(report.PairFrequency))

	// Show the freshest bandwidth readings per pair.
	type row struct {
		pair string
		bps  float64
	}
	var rows []row
	last := map[string]simnet.TransferStats{}
	for _, rec := range net.Records() {
		if strings.HasPrefix(rec.Tag, "clique:") {
			last[rec.Src+" -> "+rec.Dst] = rec
		}
	}
	for pair, rec := range last {
		rows = append(rows, row{pair, rec.AvgBps})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].pair < rows[j].pair })
	fmt.Println("  latest bandwidth readings:")
	for _, r := range rows {
		fmt.Printf("    %-30s %8.2f Mbps\n", r.pair, r.bps/1e6)
	}
}

// gatewayEstimator locates the deployment's query gateway through the
// directory and builds an estimator querying through it — each pair's
// latency and bandwidth series travel in one batched round-trip.
// Deployments without a gateway (plans predating the query plane) fall
// back to the direct query-plane client.
func gatewayEstimator(st proto.Port, dep *deploy.Deployment) *deploy.Estimator {
	nsHost := dep.Resolve[dep.Plan.NameServer]
	if c, err := gateway.Connect(st, nsHost); err == nil {
		fmt.Printf("query gateway: %d live replica(s), primary %s\n", len(c.Hosts()), c.Host)
		return deploy.NewEstimator(dep.Plan, dep.PairDataVia(c.FetchMany))
	}
	fmt.Println("query gateway: none registered, querying backends directly")
	return dep.Estimator(st)
}

// querySim composes an end-to-end estimate from the running deployment,
// queried through the gateway.
func querySim(sim *vclock.Sim, dep *deploy.Deployment, plan *deploy.Plan, query string, until time.Duration) {
	parts := strings.SplitN(query, ",", 2)
	if len(parts) != 2 {
		check(fmt.Errorf("bad -query %q", query))
	}
	var est deploy.LinkEstimate
	var qerr error
	sim.Go("query", func() {
		master := dep.Agents[plan.Master]
		if master == nil {
			qerr = fmt.Errorf("master agent %q missing", plan.Master)
			return
		}
		es := gatewayEstimator(master.Station(), dep)
		est, qerr = es.Estimate(parts[0], parts[1])
	})
	check(sim.RunUntil(until + time.Minute))
	check(qerr)
	kind := "composed via " + strings.Join(est.Via, ", ")
	if est.Direct {
		kind = "direct measurement"
	}
	fmt.Printf("estimate %s -> %s: %.2f Mbps, %.2f ms RTT (%s)\n",
		parts[0], parts[1], est.BandwidthMbps, est.LatencyMS, kind)
}

// writeSnapshot refreshes the live snapshot.json under dir: the
// -watch loop's periodic dump, overwritten in place so tailing it
// always shows the current registry state.
func writeSnapshot(reg *telemetry.Registry, dir string) {
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
