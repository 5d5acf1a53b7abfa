package sensor

import (
	"strings"
	"testing"
	"time"

	"nwsenv/internal/nws/memory"
	"nwsenv/internal/nws/nameserver"
	"nwsenv/internal/nws/proto"
	"nwsenv/internal/simnet"
	"nwsenv/internal/vclock"
)

func rig(t *testing.T) (*vclock.Sim, *simnet.Network, *proto.SimTransport) {
	t.Helper()
	topo := simnet.NewTopology()
	topo.AddHost("a", "10.0.0.1", "a.lan", "lan")
	topo.AddHost("b", "10.0.0.2", "b.lan", "lan")
	topo.AddHost("m", "10.0.0.3", "m.lan", "lan")
	topo.AddSwitch("sw")
	topo.Connect("a", "sw")
	topo.Connect("b", "sw")
	topo.Connect("m", "sw")
	sim := vclock.New()
	net := simnet.NewNetwork(sim, topo)
	return sim, net, proto.NewSimTransport(net)
}

func TestLinkExperimentsProduceThreeSeries(t *testing.T) {
	sim, net, _ := rig(t)
	var ms []Measurement
	var err error
	sim.Go("probe", func() {
		ms, err = LinkExperiments(SimProber{Net: net}, sim.Now, "a", "b", "test")
	})
	if e := sim.Run(); e != nil {
		t.Fatal(e)
	}
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 3 {
		t.Fatalf("measurements %d", len(ms))
	}
	bySeries := map[string]float64{}
	for _, m := range ms {
		bySeries[m.Series] = m.Value
	}
	// Latency: 2 hops × 250 µs each way = 1 ms RTT.
	if v := bySeries[LatencySeries("a", "b")]; v < 0.9 || v > 1.2 {
		t.Fatalf("latency %v ms, want ~1", v)
	}
	// Bandwidth ~100 Mbps.
	if v := bySeries[BandwidthSeries("a", "b")]; v < 80 || v > 105 {
		t.Fatalf("bandwidth %v Mbps, want ~100", v)
	}
	// Connect time 1.5 RTT = 1.5 ms.
	if v := bySeries[ConnectSeries("a", "b")]; v < 1.4 || v > 1.6 {
		t.Fatalf("connect %v ms, want ~1.5", v)
	}
}

func TestLinkExperimentsErrorOnUnreachable(t *testing.T) {
	sim, net, _ := rig(t)
	var err error
	sim.Go("probe", func() {
		_, err = LinkExperiments(SimProber{Net: net}, sim.Now, "a", "ghost", "t")
	})
	if e := sim.Run(); e != nil {
		t.Fatal(e)
	}
	if err == nil {
		t.Fatal("expected error")
	}
}

func TestSeriesNames(t *testing.T) {
	if LatencySeries("x", "y") != "latency.x.y" ||
		BandwidthSeries("x", "y") != "bandwidth.x.y" ||
		ConnectSeries("x", "y") != "connectTime.x.y" {
		t.Fatal("series naming changed")
	}
}

func TestDefaultHostTraceProperties(t *testing.T) {
	// Values bounded, deterministic, and host-dependent.
	for _, h := range []string{"a", "b", "long-host-name.example.org"} {
		for _, at := range []time.Duration{0, time.Minute, time.Hour} {
			v1 := DefaultHostTrace(h, at)
			v2 := DefaultHostTrace(h, at)
			if v1["cpu"] != v2["cpu"] {
				t.Fatal("trace not deterministic")
			}
			if v1["cpu"] < 0 || v1["cpu"] > 1 {
				t.Fatalf("cpu %v out of [0,1]", v1["cpu"])
			}
			if v1["freeMemory"] <= 0 {
				t.Fatalf("memory %v", v1["freeMemory"])
			}
		}
	}
	a := DefaultHostTrace("a", 5*time.Minute)["cpu"]
	b := DefaultHostTrace("b", 5*time.Minute)["cpu"]
	if a == b {
		t.Fatal("hosts should differ in phase")
	}
}

func TestHostSensorStoresRounds(t *testing.T) {
	sim, _, tr := rig(t)
	rt := tr.Runtime()
	epM, _ := tr.Open("m")
	stM := proto.NewStation(rt, epM)
	mem := memory.New(stM, nil)
	sim.Go("memory", mem.Run)

	epA, _ := tr.Open("a")
	stA := proto.NewStation(rt, epA)
	hs := &HostSensor{St: stA, MemHost: "m", Period: 10 * time.Second}
	sim.Go("sensor", hs.Run)
	sim.Go("stop after six rounds", func() {
		sim.Sleep(65 * time.Second)
		stA.Close()
	})

	epB, _ := tr.Open("b")
	stB := proto.NewStation(rt, epB)
	var cpu, memv []proto.Sample
	sim.Go("reader", func() {
		sim.Sleep(2 * time.Minute)
		mc := memory.NewClient(stB, "m")
		cpu, _ = mc.Fetch("cpu.a", 0)
		memv, _ = mc.Fetch("freeMemory.a", 0)
	})
	if err := sim.RunUntil(3 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if len(cpu) != 6 || len(memv) != 6 {
		t.Fatalf("rounds stored: cpu %d mem %d, want 6 each", len(cpu), len(memv))
	}
	// Samples carry increasing timestamps at roughly the configured
	// period (store round trips add a few milliseconds).
	for i := 1; i < len(cpu); i++ {
		gap := cpu[i].At - cpu[i-1].At
		if gap < 10*time.Second || gap > 10*time.Second+100*time.Millisecond {
			t.Fatalf("sample spacing %v", gap)
		}
	}
}

func TestHostSensorRegistersWithNS(t *testing.T) {
	sim, _, tr := rig(t)
	rt := tr.Runtime()
	epM, _ := tr.Open("m")
	stM := proto.NewStation(rt, epM)
	ns := nameserver.New(stM)
	// One station can host only one role directly; run the memory server
	// on b instead.
	sim.Go("ns", ns.Run)
	epB, _ := tr.Open("b")
	stB := proto.NewStation(rt, epB)
	mem := memory.New(stB, nil)
	sim.Go("memory", mem.Run)

	epA, _ := tr.Open("a")
	stA := proto.NewStation(rt, epA)
	hs := &HostSensor{
		St: stA, NS: nameserver.NewClient(stA, "m"), MemHost: "b",
		Period: 5 * time.Second,
	}
	sim.Go("sensor", hs.Run)
	if err := sim.RunUntil(time.Minute); err != nil {
		t.Fatal(err)
	}
	// Query the directory from the sensor's own station, then close it,
	// which ends the sensor.
	var found bool
	sim.Go("check", func() {
		nsc := nameserver.NewClient(stA, "m")
		_, ok, _ := nsc.LookupName("sensor.a")
		found = ok
		stA.Close()
	})
	if err := sim.RunUntil(2 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatal("sensor not registered")
	}
}

func TestCustomTrace(t *testing.T) {
	sim, _, tr := rig(t)
	rt := tr.Runtime()
	epM, _ := tr.Open("m")
	mem := memory.New(proto.NewStation(rt, epM), nil)
	sim.Go("memory", mem.Run)
	epA, _ := tr.Open("a")
	stA := proto.NewStation(rt, epA)
	hs := &HostSensor{
		St: stA, MemHost: "m", Period: time.Second,
		Trace: func(host string, at time.Duration) map[string]float64 {
			return map[string]float64{"cpu": 0.25}
		},
	}
	sim.Go("sensor", hs.Run)
	sim.Go("stop after three rounds", func() {
		sim.Sleep(3500 * time.Millisecond)
		stA.Close()
	})
	epB, _ := tr.Open("b")
	stB := proto.NewStation(rt, epB)
	var got []proto.Sample
	sim.Go("reader", func() {
		sim.Sleep(10 * time.Second)
		got, _ = memory.NewClient(stB, "m").Fetch("cpu.a", 0)
	})
	if err := sim.RunUntil(time.Minute); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("samples %d", len(got))
	}
	for _, s := range got {
		if s.Value != 0.25 {
			t.Fatalf("custom trace not used: %v", s.Value)
		}
	}
	if strings.Contains(BandwidthSeries("a", "b"), " ") {
		t.Fatal("series names must not contain spaces")
	}
}
