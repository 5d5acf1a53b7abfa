package host

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"nwsenv/internal/env"
	"nwsenv/internal/nws/clique"
	"nwsenv/internal/nws/forecast"
	"nwsenv/internal/nws/memory"
	"nwsenv/internal/nws/nameserver"
	"nwsenv/internal/nws/proto"
	"nwsenv/internal/nws/sensor"
	"nwsenv/internal/simnet"
	"nwsenv/internal/vclock"
)

// deploy spins up a 4-host switched LAN where h0 runs the name server,
// the memory server and the forecaster, and all four hosts form one
// measurement clique.
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
	prober := env.SimSubstrate{Net: net}
	cc := clique.Config{Name: "lan", Members: hosts, TokenGap: time.Second}

	var agents []*Agent
	for i, h := range hosts {
		roles := Roles{
			NSHost:     "h0",
			MemoryHost: "h0",
			Cliques:    []clique.Config{cc},
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
	var res []proto.ForecastResult
	var err error
	sim.Go("client", func() {
		fc := forecast.NewClient(agents[2].Station(), "h0")
		res, err = fc.BatchForecast([]proto.SeriesRequest{{Series: sensor.BandwidthSeries("h0", "h1")}})
	})
	if e := sim.RunUntil(4 * time.Minute); e != nil {
		t.Fatal(e)
	}
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Error != "" {
		t.Fatalf("forecast %+v", res)
	}
	if pred := res[0]; pred.Value < 80 || pred.Value > 105 {
		t.Fatalf("forecast %.1f Mbps, want ~100", pred.Value)
	}
	if pred := res[0]; pred.Method == "" || pred.Count == 0 {
		t.Fatalf("prediction metadata missing: %+v", pred)
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
		_, err = fc.BatchForecast([]proto.SeriesRequest{{Series: "bandwidth.h0.h1"}})
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

// TestRoutingAllocatesNothing: a memory store and a clique token travel
// through the agent's station (a self-send, so no network event) into
// their role inboxes without a heap allocation, as long as each role
// gives back what it takes (Drop here; Reply for a request). Only the
// router's rarely taken answers (pong, no such role) allocate their
// closure.
func TestRoutingAllocatesNothing(t *testing.T) {
	topo := simnet.NewTopology()
	topo.AddSwitch("sw")
	topo.AddHost("h0", "10.0.0.1", "h0.lan", "lan")
	topo.Connect("h0", "sw")
	tr := proto.NewSimTransport(simnet.NewNetwork(vclock.New(), topo))
	a, err := NewAgent(tr, "h0", Roles{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Stop()
	memory, token := a.port(keyMemory), a.port(roleKey{"clique", "a-clique-name-longer-than-a-stack-buffer"})
	a.st.Route(a.route)
	store := proto.Message{Type: proto.MsgStore, Series: "bandwidth.h0.h1", Samples: []proto.Sample{{Value: 1}}}
	tok := proto.Message{Type: proto.MsgToken, Clique: "a-clique-name-longer-than-a-stack-buffer"}
	route := func() {
		a.st.Send("h0", store)
		a.st.Send("h0", tok)
		m, ok := memory.inbox.TryRecv()
		if !ok {
			t.Fatal("store not routed to the memory inbox")
		}
		memory.Drop(m)
		if m, ok = token.inbox.TryRecv(); !ok {
			t.Fatal("token not routed to the clique inbox")
		}
		token.Drop(m)
	}
	route() // warm the inboxes' rings
	if allocs := testing.AllocsPerRun(100, route); allocs != 0 {
		t.Fatalf("routing a store and a token allocates %v times, want 0", allocs)
	}
}

// TestMessageHopAllocatesNothing: a store called across the simulated
// network from one host's station to another host's memory role, and
// the role's ack back, allocate nothing once warm. The request and the
// ack each travel as one message from the sender's free list to the
// receiver — delivery record, routing and role inbox hand the pointer
// on — and the role's Reply and the caller's receipt give them back.
func TestMessageHopAllocatesNothing(t *testing.T) {
	topo := simnet.NewTopology()
	topo.AddSwitch("sw")
	topo.AddHost("h0", "10.0.0.1", "h0.lan", "lan")
	topo.AddHost("h1", "10.0.0.2", "h1.lan", "lan")
	topo.Connect("h0", "sw", simnet.LinkLatency(time.Millisecond))
	topo.Connect("h1", "sw", simnet.LinkLatency(time.Millisecond))
	sim := vclock.New()
	tr := proto.NewSimTransport(simnet.NewNetwork(sim, topo))
	a, err := NewAgent(tr, "h1", Roles{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	role := a.port(keyMemory)
	a.st.Route(a.route)
	ep, err := tr.Open("h0")
	if err != nil {
		t.Fatal(err)
	}
	caller := proto.NewStation(tr.Runtime(), ep)
	sim.Go("role", func() {
		for {
			req, ok := role.Recv()
			if !ok {
				return
			}
			role.Reply(req, proto.Message{Type: proto.MsgStoreAck})
		}
	})
	store := proto.Message{Type: proto.MsgStore, Series: "bandwidth.h0.h1", Samples: []proto.Sample{{Value: 1}}}
	calls := 0
	sim.Go("caller", func() {
		for caller.Wait(time.Second) {
			if _, err := caller.Call("h1", store, time.Second); err != nil {
				t.Error(err)
				return
			}
			calls++
		}
	})
	hop := func() {
		if err := sim.RunUntil(sim.Now() + time.Second); err != nil {
			t.Fatal(err)
		}
	}
	hop() // warm the pools, rings and pair resolutions
	hop()
	if allocs := testing.AllocsPerRun(100, hop); allocs != 0 {
		t.Fatalf("a store and its ack across the network allocate %v times, want 0", allocs)
	}
	if calls < 100 {
		t.Fatalf("%d calls made, want one a virtual second", calls)
	}
	caller.Close()
	a.Stop()
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
}
