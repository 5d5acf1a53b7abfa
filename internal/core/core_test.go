package core

import (
	"context"
	"strings"
	"testing"
	"time"

	"nwsenv/internal/deploy"
	"nwsenv/internal/env"
	"nwsenv/internal/gridml"
	"nwsenv/internal/nws/predict"
	"nwsenv/internal/nws/proto"
	"nwsenv/internal/platform"
	"nwsenv/internal/simnet"
	"nwsenv/internal/topo"
	"nwsenv/internal/vclock"
)

// simDeploy runs the pipeline over a simulated platform inside a sim
// process until the virtual-time budget: Map and Plan only when planOnly
// (the Outcome then carries no Deployment), the full Deploy otherwise.
func simDeploy(net *simnet.Network, budget time.Duration, planOnly bool, runs []MapRun, opts ...Option) (*Outcome, error) {
	sim := net.Sim()
	pl := NewPipeline(platform.NewSimPlatform(net, proto.NewSimTransport(net)), opts...)
	var out *Outcome
	var err error
	sim.Go("autodeploy", func() {
		if !planOnly {
			out, err = pl.Deploy(context.Background(), runs...)
			return
		}
		var m *Mapping
		if m, err = pl.Map(context.Background(), runs...); err != nil {
			return
		}
		var pr *PlanResult
		if pr, err = pl.Plan(m); err != nil {
			return
		}
		out = &Outcome{Results: m.Results, Merged: m.Merged, Plan: pr.Plan, Validation: pr.Validation, Resolve: m.Resolve}
	})
	if er := sim.RunUntil(budget); er != nil {
		return nil, er
	}
	return out, err
}

func ensLyonDeploy(t *testing.T, planOnly bool) (*topo.EnsLyon, *simnet.Network, *Outcome) {
	t.Helper()
	e := topo.NewEnsLyon()
	net := simnet.NewNetwork(vclock.New(), e.Topo)
	// The mapping itself takes ~1 virtual minute; a 30-minute budget
	// keeps the always-on host sensors from burning real test time.
	out, err := simDeploy(net, 30*time.Minute, planOnly, []MapRun{
		{Master: e.OutsideMaster, Hosts: e.OutsideHosts, Names: e.OutsideNames},
		{Master: e.InsideMaster, Hosts: e.InsideHosts, Names: e.InsideNames},
	}, WithAutoAliases(), WithTokenGap(time.Second), WithHostSensors(30*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	return e, net, out
}

func TestAutoDeployPlanOnly(t *testing.T) {
	_, _, out := ensLyonDeploy(t, true)
	if out.Plan == nil || out.Validation == nil {
		t.Fatal("missing plan or validation")
	}
	if !out.Validation.Complete {
		t.Fatalf("incomplete: %v", out.Validation.MissingPairs)
	}
	if out.Deployment != nil {
		t.Fatal("PlanOnly must not deploy")
	}
	if len(out.Merged.Networks) < 4 {
		t.Fatalf("networks %d", len(out.Merged.Networks))
	}
	// 14 distinct machines (6 outside + 11 inside entries, minus the 3
	// gateways counted on both sides).
	if len(out.Plan.Hosts) != 14 {
		t.Fatalf("plan hosts %d: %v", len(out.Plan.Hosts), out.Plan.Hosts)
	}
}

func TestAutoDeployEndToEnd(t *testing.T) {
	e, net, out := ensLyonDeploy(t, false)
	if out.Deployment == nil {
		t.Fatal("no deployment")
	}
	sim := net.Sim()
	base := sim.Now()
	if err := sim.RunUntil(base + 3*time.Minute); err != nil {
		t.Fatal(err)
	}
	// Live composed estimate across the firewall.
	var est deploy.LinkEstimate
	var eerr error
	sim.Go("query", func() {
		master := out.Deployment.Agents[out.Plan.Master]
		es := out.Deployment.Estimator(master.Station())
		est, eerr = es.Estimate("canaria.ens-lyon.fr", "myri2.popc.private")
	})
	if err := sim.RunUntil(base + 4*time.Minute); err != nil {
		t.Fatal(err)
	}
	if eerr != nil {
		t.Fatal(eerr)
	}
	truth, _ := e.Topo.AloneBandwidth("canaria", "myri2")
	if est.BandwidthMbps > 2.5*truth/1e6 || est.BandwidthMbps < 0.4*truth/1e6 {
		t.Fatalf("estimate %.1f Mbps vs truth %.1f", est.BandwidthMbps, truth/1e6)
	}
	out.Deployment.Stop()
}

func TestAutoDeploySingleRun(t *testing.T) {
	tp, truth := topo.RandomLAN(11, 3, 3)
	net := simnet.NewNetwork(vclock.New(), tp)
	var hosts []string
	for _, h := range tp.HostIDs() {
		if h != "world" {
			hosts = append(hosts, h)
		}
	}
	out, err := simDeploy(net, 24*time.Hour, true, []MapRun{{Master: hosts[0], Hosts: hosts}})
	if err != nil {
		t.Fatal(err)
	}
	// Every ground-truth segment appears as a clique with the right
	// style.
	for seg, tr := range truth {
		found := false
		for _, c := range out.Plan.Cliques {
			if c.Network == "" {
				continue
			}
			for _, m := range c.Members {
				for _, h := range tr.Hosts {
					if strings.HasPrefix(m, h+".") || m == h {
						found = true
						if tr.Shared != c.Shared {
							t.Errorf("segment %s planned shared=%v truth=%v", seg, c.Shared, tr.Shared)
						}
					}
				}
			}
			if found {
				break
			}
		}
		if !found {
			t.Errorf("segment %s not covered by any clique", seg)
		}
	}
}

func TestAutoDeployNoRuns(t *testing.T) {
	e := topo.NewEnsLyon()
	net := simnet.NewNetwork(vclock.New(), e.Topo)
	if _, err := simDeploy(net, time.Minute, false, nil); err == nil {
		t.Fatal("expected configuration error")
	}
}

func TestGridMLRoundTripDrivesPlanner(t *testing.T) {
	// Save the merged mapping to GridML, reload it, and plan from the
	// file: the administrator-publishes-the-mapping workflow of §4.3.
	_, _, out := ensLyonDeploy(t, true)
	enc, err := out.Merged.Doc.Encode()
	if err != nil {
		t.Fatal(err)
	}
	doc, err := decodeGridML(enc)
	if err != nil {
		t.Fatal(err)
	}
	merged := env.MergedFromGridML(doc)
	if len(merged.Networks) == 0 {
		t.Fatal("no networks reconstructed from GridML")
	}
	plan, err := deploy.NewPlan(merged, deploy.PlanConfig{Master: "the-doors.ens-lyon.fr"})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Cliques) != len(out.Plan.Cliques) {
		t.Fatalf("plan from file has %d cliques, direct plan %d\nfile: %s\ndirect: %s",
			len(plan.Cliques), len(out.Plan.Cliques), plan.Summary(), out.Plan.Summary())
	}
	est := deploy.NewEstimator(plan, func(a, b string) (float64, float64, bool) { return 1, 1, true })
	if ok, missing := est.Complete(); !ok {
		t.Fatalf("plan from GridML incomplete: %v", missing)
	}
}

// decodeGridML avoids importing gridml twice in the test file header.
func decodeGridML(data []byte) (*gridml.Document, error) { return gridml.Decode(data) }

// TestAutoDeployScales exercises the full pipeline on a 60-host LAN:
// the planner stays complete, the mapping cost stays minutes, and the
// deployment starts every agent.
func TestAutoDeployScales(t *testing.T) {
	if testing.Short() {
		t.Skip("large topology")
	}
	tp, truth := topo.RandomLAN(99, 10, 6)
	net := simnet.NewNetwork(vclock.New(), tp)
	var hosts []string
	for _, h := range tp.HostIDs() {
		if h != "world" {
			hosts = append(hosts, h)
		}
	}
	out, err := simDeploy(net, 3*time.Hour, false, []MapRun{{Master: hosts[0], Hosts: hosts}},
		WithTokenGap(2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Plan.Hosts) != 60 {
		t.Fatalf("hosts %d", len(out.Plan.Hosts))
	}
	if !out.Validation.Complete {
		t.Fatalf("incomplete at scale: %d missing", len(out.Validation.MissingPairs))
	}
	if d := out.Merged.Stats.Duration(); d > time.Hour {
		t.Fatalf("mapping 60 hosts took %v of virtual time", d)
	}
	if len(out.Deployment.Agents) != 60 {
		t.Fatalf("agents %d", len(out.Deployment.Agents))
	}
	// Segment count sanity: 10 network cliques (+ bridges).
	netCliques := 0
	for _, c := range out.Plan.Cliques {
		if c.Network != "" {
			netCliques++
		}
	}
	if netCliques != len(truth) {
		t.Fatalf("network cliques %d, want %d", netCliques, len(truth))
	}
	out.Deployment.Stop()
}

// TestCPUForecastEndToEnd: host sensors feed CPU availability series and
// the forecaster predicts them — the non-network half of §2's monitoring
// (CPU load and the time-slice a new process would get).
func TestCPUForecastEndToEnd(t *testing.T) {
	_, net, out := ensLyonDeploy(t, false)
	sim := net.Sim()
	base := sim.Now()
	if err := sim.RunUntil(base + 5*time.Minute); err != nil {
		t.Fatal(err)
	}
	var pred predict.Prediction
	var err error
	sim.Go("cpu-query", func() {
		master := out.Deployment.Agents[out.Plan.Master]
		qc := out.Deployment.QueryClient(master.Station())
		pred, err = qc.Forecast("cpu."+out.Resolve["canaria.ens-lyon.fr"], 0)
	})
	if e := sim.RunUntil(base + 6*time.Minute); e != nil {
		t.Fatal(e)
	}
	if err != nil {
		t.Fatal(err)
	}
	if pred.Value <= 0 || pred.Value > 1 {
		t.Fatalf("cpu availability forecast %v out of (0,1]", pred.Value)
	}
	out.Deployment.Stop()
}

// TestAutoDeployThreeRunsFold: more than two mapping runs fold into one
// view (§4.3 suggests mapping big platforms piecewise and merging). A
// third, redundant run over the sci cluster from sci0's viewpoint must
// not duplicate networks or machines.
func TestAutoDeployThreeRunsFold(t *testing.T) {
	e := topo.NewEnsLyon()
	net := simnet.NewNetwork(vclock.New(), e.Topo)
	sciNames := map[string]string{}
	sciHosts := []string{"sci0", "sci1", "sci2", "sci3", "sci4", "sci5", "sci6"}
	for _, h := range sciHosts {
		sciNames[h] = e.InsideNames[h]
	}
	out, err := simDeploy(net, 2*time.Hour, true, []MapRun{
		{Master: e.OutsideMaster, Hosts: e.OutsideHosts, Names: e.OutsideNames},
		{Master: e.InsideMaster, Hosts: e.InsideHosts, Names: e.InsideNames},
		{Master: "sci0", Hosts: sciHosts, Names: sciNames},
	}, WithAutoAliases())
	if err != nil {
		t.Fatal(err)
	}
	// Same canonical host set as the two-run merge.
	if len(out.Plan.Hosts) != 14 {
		t.Fatalf("hosts %d: %v", len(out.Plan.Hosts), out.Plan.Hosts)
	}
	// The sci network appears once, not twice.
	sciNets := 0
	for _, nw := range out.Merged.Networks {
		for _, h := range nw.Hosts {
			if h == "sci3.popc.private" {
				sciNets++
				break
			}
		}
	}
	if sciNets != 1 {
		t.Fatalf("sci cluster appears in %d networks after 3-run fold", sciNets)
	}
	if !out.Validation.Complete {
		t.Fatalf("incomplete after fold: %v", out.Validation.MissingPairs)
	}
}
