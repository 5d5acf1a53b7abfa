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
	"nwsenv/internal/vclock"
)

// options are the parsed flags.
type options struct {
	topoFile, hostsCSV    string
	planFile, gridmlFile  string
	tcp, watch, pairwise  bool
	duration, interval    time.Duration
	query                 string
	replicas, gateways    int
	scenario, scenarioDir string
	seed                  int64
	teleDir               string
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
	flag.BoolVar(&o.watch, "watch", false, "run the self-healing reconcile loop over the deployment")
	flag.StringVar(&o.scenario, "scenario", "none", "with -watch on a topo: fault scenario — a name resolved in -scenarios (crash, partition, ...), a .json path, or none")
	flag.StringVar(&o.scenarioDir, "scenarios", "scenarios", "directory of declarative scenario files -scenario names resolve in")
	flag.Int64Var(&o.seed, "seed", 42, "seed for all scenario randomness (fault timing, victim choice, churn order)")
	flag.DurationVar(&o.interval, "reconcile-interval", 2*time.Minute, "reconcile round period (virtual, or wall-clock with -tcp)")
	flag.StringVar(&o.teleDir, "telemetry", "", "directory for telemetry artifacts: metrics.jsonl, trace.jsonl and snapshot.json (periodic under -watch, final flush on exit or SIGINT)")
	pprofAddr := flag.String("pprof", "", "with -tcp: serve net/http/pprof on this address (e.g. 127.0.0.1:6060)")
	flag.Parse()
	if o.interval <= 0 {
		// The reconciler and the scenario builder both pace off the
		// interval; a non-positive value would desynchronize them (and
		// starve the fault jitter), so fall back to the default.
		o.interval = 2 * time.Minute
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

	if !o.tcp && o.topoFile == "" {
		fmt.Fprintln(os.Stderr, "nwsmanager: -topo is required")
		os.Exit(2)
	}
	if o.tcp || o.watch || *auto {
		o.planFile = "" // the pipeline maps and plans for itself
	} else if o.planFile == "" {
		fmt.Fprintln(os.Stderr, "nwsmanager: -plan is required (or use -auto)")
		os.Exit(2)
	}
	if !run(ctx, o) {
		os.Exit(1)
	}
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
// whole staged pipeline with -auto, -watch and -tcp), with -watch hand
// the system to the §4.3 reconcile control plane (while a seeded fault
// scenario plays out on the simulator), let the clock run for the
// duration, report, and answer -query. One code path drives the
// simulator and real loopback sockets; what differs is how the clock is
// driven and where the report reads its measurements. It returns false
// when a simulated watch has not converged on a valid deployment by the
// end (unless it was interrupted).
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
		plat, runs = se.Plat, se.MapRuns()
	}
	// The registry reads the platform's clock: deterministic readings on
	// the simulator, honest wall-clock timings on sockets.
	reg := telemetry.New(plat.Runtime().Now)
	if se != nil {
		simnet.RegisterTelemetry(reg, se.Net)
	}
	wireCodecTelemetry(plat, reg)
	pl := core.NewPipeline(plat, pipelineOptions(o, reg)...)

	var out *core.Outcome
	var err error
	switch {
	case se == nil:
		out, err = pl.Deploy(ctx, runs...)
	case o.planFile != "":
		out, err = applyPlanFile(se, o)
	default:
		out, err = cli.DeploySim(se.Sim, pl, runs)
	}
	check(err)
	dep := out.Deployment

	var scenRun *simnet.ScenarioRun
	var rec *reconcile.Reconciler
	wctx, stopWatch := context.WithCancel(ctx)
	defer stopWatch()
	loopDone := make(chan struct{})
	if o.watch {
		if se != nil {
			scenRun = scheduleScenario(o, se, out)
		}
		rec = reconcile.New(pl, dep, reconcile.Config{
			Runs:     runs,
			Interval: o.interval,
			OnRound: func(rd reconcile.Round) {
				if rd.Err != nil {
					fmt.Fprintf(os.Stderr, "[reconcile] round %d: transient: %v\n", rd.Index, rd.Err)
				}
			},
		})
		plat.Runtime().Go("reconcile", func() {
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
	// repair races the teardown. A simulation process only runs while
	// the clock is driven, so there the canceled loop needs no join.
	stopWatch()
	if rec != nil && se == nil {
		<-loopDone
	}

	healthy := true
	if se != nil {
		healthy = reportSimRun(se.Net, rec, scenRun, elapsed)
		if o.query != "" {
			querySim(se.Sim, dep, o.query)
		}
	} else {
		reportTCP(plat, rec, dep, runs[0].Hosts, o.query)
	}
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

// reportSimRun prints the final metrics report of a simulated run that
// covered elapsed of virtual time: what the watch (if any) saw and what
// it cost, then the §2.3 observability report. It returns false when a
// watch ended on an incomplete or still-drifting deployment.
func reportSimRun(net *simnet.Network, rec *reconcile.Reconciler, scenRun *simnet.ScenarioRun, elapsed time.Duration) bool {
	if rec == nil {
		reportSim(net, elapsed)
		return true
	}
	now := net.Sim().Now()
	rounds := rec.Rounds()
	repairs, transient := reconcile.Tally(rounds)
	fmt.Printf("watched %v of virtual time: %d reconcile rounds, %d repairs, %d transient errors\n",
		elapsed, len(rounds), repairs, transient)
	if scenRun != nil {
		report := rec.RecoveryReport(scenRun.Injected())
		fmt.Print(report)
		dis := metrics.ProbeDisruption(net, "clique:", reconcile.RepairWindows(report), now-elapsed, now)
		fmt.Printf("probe disruption: baseline %.2f/min, during repair %.2f/min (drop %.0f%%)\n",
			dis.BaselinePerMinute, dis.RepairPerMinute, dis.Drop*100)
	}
	reportSim(net, elapsed)

	plan := rec.Deployment().Plan
	v := deploy.ValidateConnectivity(plan)
	converged := len(rounds) > 0 && rounds[len(rounds)-1].Err == nil && !rounds[len(rounds)-1].Drifted()
	fmt.Printf("final deployment: %d hosts, complete=%v, converged=%v\n", len(plan.Hosts), v.Complete, converged)
	return v.Complete && converged
}

// scheduleScenario compiles the -scenario file's fault plan against the
// deployed system and schedules it on the simulated network (nil for
// "none"). The name resolves to <dir>/<name>.json unless it already
// looks like a path; an unknown name lists what the scenario directory
// offers. Victim derivation and all randomness flow from the seed
// exactly as in the scenario lab, so a given (topology, scenario file,
// seed) triple replays the same faults, and the master is never a
// victim.
func scheduleScenario(o options, se *cli.SimEnv, out *core.Outcome) *simnet.ScenarioRun {
	name, dir := o.scenario, o.scenarioDir
	if name == "" || name == "none" {
		return nil
	}
	path := name
	if !strings.ContainsRune(name, os.PathSeparator) && !strings.HasSuffix(name, ".json") {
		path = filepath.Join(dir, name+".json")
	}
	f, err := scenlab.LoadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		err = fmt.Errorf("unknown scenario %q (no scenario files under %s/)", name, dir)
		if paths, lerr := scenlab.ListDir(dir); lerr == nil && len(paths) > 0 {
			names := make([]string, len(paths))
			for i, p := range paths {
				names[i] = strings.TrimSuffix(filepath.Base(p), ".json")
			}
			err = fmt.Errorf("unknown scenario %q: %s/ offers %s", name, dir, strings.Join(names, ", "))
		}
	}
	check(err)
	victims, links := scenlab.PlanVictimsFor(f.Spec.Fault, out.Plan, out.Resolve, se.Topo)
	if len(victims) == 0 {
		check(fmt.Errorf("scenario %s: no non-master victims", f.Spec.Name))
	}
	base := se.Sim.Now()
	scen, err := f.Spec.Fault.Compile(o.seed, base, victims, links)
	check(err)
	if len(scen.Events) == 0 {
		return nil
	}
	fmt.Fprintf(os.Stderr, "[reconcile] scenario %s (seed %d): %d events\n", scen.Name, o.seed, len(scen.Events))
	for _, e := range scen.Events {
		fmt.Fprintf(os.Stderr, "[reconcile]   t+%-8s %s\n", (e.At - base).Round(time.Second), e)
	}
	return scen.Schedule(se.Net)
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
// station — an end user of the query plane, one batched round-trip for
// every pair instead of a blocking fetch per series — and answers
// -query over the same discovered gateways.
func reportTCP(plat platform.Platform, rec *reconcile.Reconciler, dep *deploy.Deployment, hosts []string, queryPair string) {
	if rec != nil {
		rounds := rec.Rounds()
		repairs, transient := reconcile.Tally(rounds)
		fmt.Printf("watch: %d reconcile rounds, %d repairs, %d transient errors, %d hosts live\n",
			len(rounds), repairs, transient, len(dep.Plan.Hosts))
	}
	ep, err := plat.Transport().Open("nwsmanager-client")
	check(err)
	client := proto.NewStation(plat.Runtime(), ep)
	defer client.Close()
	fetch := queryPlane(client, dep)

	var pairs [][2]string
	var reqs []proto.SeriesRequest
	for _, a := range hosts {
		for _, b := range hosts {
			if a == b {
				continue
			}
			pairs = append(pairs, [2]string{a, b})
			reqs = append(reqs, proto.SeriesRequest{
				Series: sensor.BandwidthSeries(dep.Resolve[a], dep.Resolve[b]), Count: 1,
			})
		}
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
	if queryPair != "" {
		check(estimate(dep, fetch, queryPair))
	}
}

// applyPlanFile keeps the file-based workflow: apply the plan published
// by nwsdeploy on the simulated topology, resolving its machine names
// through the optional GridML mapping and the topology spec.
func applyPlanFile(se *cli.SimEnv, o options) (*core.Outcome, error) {
	pdata, err := os.ReadFile(o.planFile)
	check(err)
	plan, err := deploy.DecodeConfig(pdata)
	check(err)

	resolve := map[string]string{}
	var doc *gridml.Document
	if o.gridmlFile != "" {
		gdata, err := os.ReadFile(o.gridmlFile)
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
	for _, names := range se.Spec.NamesOf {
		for id, name := range names {
			record(id, name)
		}
	}
	for _, n := range se.Spec.Nodes {
		if n.Kind == "host" {
			if n.DNS != "" {
				record(n.ID, n.DNS)
			}
			record(n.ID, n.ID)
		}
	}

	dep, err := deploy.Apply(se.Plat.Transport(), se.Plat.Prober(), plan, resolve, deploy.ApplyOptions{
		TokenGap:         time.Second,
		PairwiseSwitched: o.pairwise,
	})
	return &core.Outcome{Plan: plan, Resolve: resolve, Deployment: dep}, err
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

// querySim answers -query as an end user on the master's station,
// inside the simulation, within a virtual minute.
func querySim(sim *vclock.Sim, dep *deploy.Deployment, pair string) {
	var err error
	sim.Go("query", func() {
		master := dep.Agents[dep.Plan.Master]
		if master == nil {
			err = fmt.Errorf("master agent %q missing", dep.Plan.Master)
			return
		}
		err = estimate(dep, queryPlane(master.Station(), dep), pair)
	})
	check(sim.RunUntil(sim.Now() + time.Minute))
	check(err)
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
