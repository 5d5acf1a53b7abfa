package host

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"nwsenv/internal/nws/clique"
	"nwsenv/internal/nws/forecast"
	"nwsenv/internal/nws/memory"
	"nwsenv/internal/nws/nameserver"
	"nwsenv/internal/nws/predict"
	"nwsenv/internal/nws/proto"
	"nwsenv/internal/nws/sensor"
	"nwsenv/internal/simnet"
	"nwsenv/internal/vclock"
)

// deploy spins up a 4-host switched LAN where h0 runs the name server,
// the memory server and the forecaster, and all four hosts form one
// measurement clique with host sensors.
func deploy(t *testing.T) (*vclock.Sim, *simnet.Network, []*Agent) {
	t.Helper()
	topo := simnet.NewTopology()
	topo.AddSwitch("sw")
	hosts := []string{"h0", "h1", "h2", "h3"}
	for i, h := range hosts {
		topo.AddHost(h, fmt.Sprintf("10.0.0.%d", i+1), h+".lan", "lan")
		topo.Connect(h, "sw")
	}
	sim := vclock.New()
	net := simnet.NewNetwork(sim, topo)
	tr := proto.NewSimTransport(net)
	prober := sensor.SimProber{Net: net}
	cc := clique.Config{Name: "lan", Members: hosts, TokenGap: time.Second}

	var agents []*Agent
	for i, h := range hosts {
		roles := Roles{
			NSHost:           "h0",
			MemoryHost:       "h0",
			Cliques:          []clique.Config{cc},
			HostSensorPeriod: 10 * time.Second,
		}
		if i == 0 {
			roles.NameServer = true
			roles.Memory = true
			roles.Forecaster = true
		}
		a, err := NewAgent(tr, h, roles, prober)
		if err != nil {
			t.Fatal(err)
		}
		agents = append(agents, a)
	}
	for _, a := range agents {
		a.Start()
	}
	return sim, net, agents
}

func TestFullSystemSteadyState(t *testing.T) {
	sim, net, agents := deploy(t)
	if err := sim.RunUntil(2 * time.Minute); err != nil {
		t.Fatal(err)
	}
	// Measurements flowed into the memory server on h0: fetch through a
	// fresh client host? Use agent h1's station as a client.
	var samples []proto.Sample
	var err error
	sim.Go("query", func() {
		mc := memory.NewClient(agents[1].Station(), "h0")
		samples, err = mc.Fetch(sensor.BandwidthSeries("h1", "h2"), 0)
	})
	if e := sim.RunUntil(3 * time.Minute); e != nil {
		t.Fatal(e)
	}
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Fatal("no bandwidth measurements stored in steady state")
	}
	// ~100 Mbps on the switch.
	last := samples[len(samples)-1].Value
	if last < 80 || last > 105 {
		t.Fatalf("bandwidth h1->h2 measured %.1f Mbps, want ~100", last)
	}
	// No probe collisions.
	for _, c := range net.Collisions() {
		if strings.HasPrefix(c.TagA, "clique:") && strings.HasPrefix(c.TagB, "clique:") {
			t.Fatalf("collision: %+v", c)
		}
	}
	for _, a := range agents {
		a.Stop()
	}
}

func TestForecastFourStepFlow(t *testing.T) {
	// §2.1: client -> forecaster -> name server -> memory -> prediction.
	sim, _, agents := deploy(t)
	if err := sim.RunUntil(3 * time.Minute); err != nil {
		t.Fatal(err)
	}
	var pred predict.Prediction
	var err error
	sim.Go("client", func() {
		fc := forecast.NewClient(agents[2].Station(), "h0")
		pred, err = fc.Forecast(sensor.BandwidthSeries("h0", "h1"), 0)
	})
	if e := sim.RunUntil(4 * time.Minute); e != nil {
		t.Fatal(e)
	}
	if err != nil {
		t.Fatal(err)
	}
	if pred.Value < 80 || pred.Value > 105 {
		t.Fatalf("forecast %.1f Mbps, want ~100", pred.Value)
	}
	if pred.Method == "" || pred.N == 0 {
		t.Fatalf("prediction metadata missing: %+v", pred)
	}
	for _, a := range agents {
		a.Stop()
	}
}

func TestHostSensorSeries(t *testing.T) {
	sim, _, agents := deploy(t)
	if err := sim.RunUntil(2 * time.Minute); err != nil {
		t.Fatal(err)
	}
	var cpu []proto.Sample
	sim.Go("query", func() {
		mc := memory.NewClient(agents[1].Station(), "h0")
		cpu, _ = mc.Fetch("cpu.h2", 0)
	})
	if e := sim.RunUntil(3 * time.Minute); e != nil {
		t.Fatal(e)
	}
	if len(cpu) < 5 {
		t.Fatalf("cpu series too short: %d", len(cpu))
	}
	for _, s := range cpu {
		if s.Value < 0 || s.Value > 1 {
			t.Fatalf("cpu availability out of range: %+v", s)
		}
	}
	for _, a := range agents {
		a.Stop()
	}
}

func TestSeriesDiscoveryViaNameServer(t *testing.T) {
	sim, _, agents := deploy(t)
	if err := sim.RunUntil(2 * time.Minute); err != nil {
		t.Fatal(err)
	}
	var regs []proto.Registration
	var err error
	sim.Go("query", func() {
		nsc := nameserver.NewClient(agents[3].Station(), "h0")
		regs, err = nsc.LookupKind("series", "bandwidth.")
	})
	if e := sim.RunUntil(3 * time.Minute); e != nil {
		t.Fatal(e)
	}
	if err != nil {
		t.Fatal(err)
	}
	// 4 hosts, 12 ordered pairs.
	if len(regs) != 12 {
		t.Fatalf("bandwidth series registered: %d, want 12", len(regs))
	}
	for _, r := range regs {
		if r.Owner != "memory.h0" {
			t.Fatalf("series %s owned by %s", r.Name, r.Owner)
		}
	}
	for _, a := range agents {
		a.Stop()
	}
}

func TestUndeployedRoleRejected(t *testing.T) {
	sim, _, agents := deploy(t)
	var err error
	sim.Go("client", func() {
		// h1 runs no forecaster.
		fc := forecast.NewClient(agents[0].Station(), "h1")
		_, err = fc.Forecast("bandwidth.h0.h1", 0)
	})
	if e := sim.RunUntil(time.Minute); e != nil {
		t.Fatal(e)
	}
	if err == nil {
		t.Fatal("forecast against a host without the role should fail")
	}
	for _, a := range agents {
		a.Stop()
	}
}
