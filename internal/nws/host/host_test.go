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

// TestAgentCostsItsRolesProcesses: the agent routes its station's
// traffic where it lands, so it costs exactly the processes its roles
// run — one per role here — and answering a ping spawns none that
// outlives the answer.
func TestAgentCostsItsRolesProcesses(t *testing.T) {
	topo := simnet.NewTopology()
	topo.AddSwitch("sw")
	for i, h := range []string{"h0", "h1"} {
		topo.AddHost(h, fmt.Sprintf("10.0.0.%d", i+1), h+".lan", "lan")
		topo.Connect(h, "sw")
	}
	sim := vclock.New()
	tr := proto.NewSimTransport(simnet.NewNetwork(sim, topo))
	a, err := NewAgent(tr, "h0", Roles{NameServer: true, Gateway: true, NSHost: "h0"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	a.Start()
	if n := sim.Processes(); n != 2 {
		t.Fatalf("agent with a name server and a gateway costs %d processes, want 2", n)
	}
	ep, err := tr.Open("h1")
	if err != nil {
		t.Fatal(err)
	}
	client := proto.NewStation(tr.Runtime(), ep)
	var pingErr error
	sim.Go("ping", func() {
		_, pingErr = client.Call("h0", proto.Message{Type: proto.MsgPing}, time.Second)
	})
	// The gateway's registration refresh loop is its role's own process.
	if err := sim.RunUntil(time.Second); err != nil {
		t.Fatal(err)
	}
	if pingErr != nil {
		t.Fatal(pingErr)
	}
	if n := sim.Processes(); n != 3 {
		t.Fatalf("after a ping the agent costs %d processes, want 3 (name server, gateway, its refresh loop)", n)
	}
	a.Stop()
	client.Close()
}

// TestAgentServesRequestsQueuedBeforeStart: a request that lands before
// Start waits on the station and reaches its role once Start installs
// the router.
func TestAgentServesRequestsQueuedBeforeStart(t *testing.T) {
	topo := simnet.NewTopology()
	topo.AddSwitch("sw")
	for i, h := range []string{"h0", "h1"} {
		topo.AddHost(h, fmt.Sprintf("10.0.0.%d", i+1), h+".lan", "lan")
		topo.Connect(h, "sw")
	}
	sim := vclock.New()
	tr := proto.NewSimTransport(simnet.NewNetwork(sim, topo))
	a, err := NewAgent(tr, "h0", Roles{NameServer: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ep, err := tr.Open("h1")
	if err != nil {
		t.Fatal(err)
	}
	client := proto.NewStation(tr.Runtime(), ep)
	var found bool
	var callErr error
	sim.Go("lookup", func() {
		_, found, callErr = nameserver.NewClient(client, "h0").LookupName("nothing")
	})
	if err := sim.RunUntil(100 * time.Millisecond); err != nil { // delivered, not served
		t.Fatal(err)
	}
	a.Start()
	if err := sim.RunUntil(time.Second); err != nil {
		t.Fatal(err)
	}
	if callErr != nil || found {
		t.Fatalf("lookup queued before Start: found=%v err=%v", found, callErr)
	}
	a.Stop()
	client.Close()
}
