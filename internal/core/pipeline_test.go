package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"nwsenv/internal/nws/proto"
	"nwsenv/internal/nws/proto/prototest"
	"nwsenv/internal/nws/sensor"
	"nwsenv/internal/platform"
	"nwsenv/internal/query"
	"nwsenv/internal/simnet"
	"nwsenv/internal/topo"
	"nwsenv/internal/vclock"
)

// TestTCPPlatformPipeline drives the staged pipeline over real loopback
// TCP sockets (mirroring internal/nws/tcp_integration_test.go, but
// through the platform abstraction): Map reads the static segment view,
// Plan validates it, Apply starts real agents whose registry, storage
// and token-ring traffic are gob-encoded TCP exchanges, and measured
// samples land in the memory server.
func TestTCPPlatformPipeline(t *testing.T) {
	hosts := []string{"alpha", "beta", "gamma"}
	plat := platform.NewTCPPlatform(hosts)
	stop := prototest.Teardown(t, plat.Runtime())
	pl := NewPipeline(plat,
		WithGridLabel("loopback"),
		WithTokenGap(20*time.Millisecond),
	)
	ctx := context.Background()

	m, err := pl.Map(ctx, MapRun{Master: "alpha", Hosts: hosts})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Merged.Networks) != 1 {
		t.Fatalf("networks %d, want 1 flat segment", len(m.Merged.Networks))
	}
	nw := m.Merged.Networks[0]
	if nw.Class.String() != "switched" {
		t.Fatalf("loopback segment classified %s, want switched", nw.Class)
	}
	if len(nw.Hosts) != 3 {
		t.Fatalf("segment hosts %v", nw.Hosts)
	}

	pr, err := pl.Plan(m)
	if err != nil {
		t.Fatal(err)
	}
	if !pr.Validation.Complete {
		t.Fatalf("plan incomplete: %v", pr.Validation.MissingPairs)
	}
	if pr.Plan.Master != "alpha" {
		t.Fatalf("master %q", pr.Plan.Master)
	}

	dep, err := pl.Apply(ctx, pr)
	if err != nil {
		t.Fatal(err)
	}
	stop(dep.Stop)
	if len(dep.Agents) != 3 {
		t.Fatalf("agents %d", len(dep.Agents))
	}

	// The ring must produce measurements over real sockets: poll the
	// memory server from a client station on the wall clock.
	ep, err := plat.Transport().Open("client")
	if err != nil {
		t.Fatal(err)
	}
	client := proto.NewStation(plat.Runtime(), ep)
	stop(client.Close)
	qc := query.New(client, m.Resolve[pr.Plan.NameServer])
	series := sensor.BandwidthSeries("alpha", "beta")
	deadline := time.Now().Add(10 * time.Second)
	var got int
	for time.Now().Before(deadline) {
		samples, err := qc.Fetch(series, 0)
		if err == nil {
			got = len(samples)
			if got >= 3 {
				for _, s := range samples {
					if s.Value != 100 { // Mbps, the platform's canned prober value
						t.Fatalf("sample %+v", s)
					}
				}
				return
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("only %d samples of %s arrived over TCP", got, series)
}

// TestMapCancellation aborts a mapping campaign mid-flight: the context
// is canceled a few virtual seconds in, long before the ~1 virtual
// minute the ENS-Lyon mapping needs, and Map must return the context
// error instead of a result.
func TestMapCancellation(t *testing.T) {
	e := topo.NewEnsLyon()
	sim := vclock.New()
	net := simnet.NewNetwork(sim, e.Topo)
	tr := proto.NewSimTransport(net)
	pl := NewPipeline(platform.NewSimPlatform(net, tr))

	ctx, cancel := context.WithCancel(context.Background())
	var mapErr error
	done := false
	sim.Go("map", func() {
		_, mapErr = pl.Map(ctx, MapRun{Master: e.OutsideMaster, Hosts: e.OutsideHosts, Names: e.OutsideNames})
		done = true
	})
	sim.Go("cancel", func() {
		sim.Sleep(5 * time.Second)
		cancel()
	})
	if err := sim.RunUntil(30 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("mapping did not return after cancellation")
	}
	if mapErr == nil {
		t.Fatal("canceled mapping returned no error")
	}
	if !errors.Is(mapErr, context.Canceled) {
		t.Fatalf("mapping error %v does not wrap context.Canceled", mapErr)
	}
}

// TestApplyCancellation: a context canceled before Apply must leave no
// agent running.
func TestApplyCancellation(t *testing.T) {
	e := topo.NewEnsLyon()
	sim := vclock.New()
	net := simnet.NewNetwork(sim, e.Topo)
	tr := proto.NewSimTransport(net)
	pl := NewPipeline(platform.NewSimPlatform(net, tr), WithAutoAliases())

	var applyErr error
	sim.Go("pipeline", func() {
		m, err := pl.Map(context.Background(),
			MapRun{Master: e.OutsideMaster, Hosts: e.OutsideHosts, Names: e.OutsideNames},
			MapRun{Master: e.InsideMaster, Hosts: e.InsideHosts, Names: e.InsideNames})
		if err != nil {
			applyErr = err
			return
		}
		pr, err := pl.Plan(m)
		if err != nil {
			applyErr = err
			return
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_, applyErr = pl.Apply(ctx, pr)
	})
	if err := sim.RunUntil(30 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(applyErr, context.Canceled) {
		t.Fatalf("apply error %v does not wrap context.Canceled", applyErr)
	}
}

// TestPipelineObserver: phase hooks fire in order across a staged sim
// run, and every event carries the line the CLIs print.
func TestPipelineObserver(t *testing.T) {
	tp, _ := topo.RandomLAN(7, 2, 3)
	sim := vclock.New()
	net := simnet.NewNetwork(sim, tp)
	tr := proto.NewSimTransport(net)

	var phases []Phase
	var details []string
	pl := NewPipeline(platform.NewSimPlatform(net, tr),
		WithObserver(func(e Event) {
			if e.Detail == "" {
				t.Errorf("event %+v lacks a detail line", e)
			}
			details = append(details, e.Detail)
			if len(phases) == 0 || phases[len(phases)-1] != e.Phase {
				phases = append(phases, e.Phase)
			}
		}))
	var hosts []string
	for _, h := range tp.HostIDs() {
		if h != "world" {
			hosts = append(hosts, h)
		}
	}
	var err error
	var out *Outcome
	sim.Go("deploy", func() {
		out, err = pl.Deploy(context.Background(), MapRun{Master: hosts[0], Hosts: hosts})
	})
	if e := sim.RunUntil(2 * time.Hour); e != nil {
		t.Fatal(e)
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Deployment.Stop(); err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("starting %d agents on sim", len(hosts)); !slices.Contains(details, want) {
		t.Fatalf("no %q among the event lines %q", want, details)
	}
	want := []Phase{PhaseMap, PhasePlan, PhaseApply}
	if len(phases) != len(want) {
		t.Fatalf("phases %v, want %v", phases, want)
	}
	for i, ph := range want {
		if phases[i] != ph {
			t.Fatalf("phase %d = %s, want %s", i, phases[i], ph)
		}
	}
}
