package simnet

import (
	"math"
	"strings"
	"testing"
	"time"

	"nwsenv/internal/vclock"
)

// ring builds a redundant triangle: a and b are hosts, r1 and r2 routers,
// with two disjoint router paths between the hosts so one cut reroutes
// instead of partitioning.
func ring(t *testing.T) (*vclock.Sim, *Network) {
	t.Helper()
	topo := NewTopology()
	topo.AddHost("a", "10.2.0.1", "a.ring", "ring")
	topo.AddHost("b", "10.2.0.2", "b.ring", "ring")
	topo.AddRouter("r1", "10.2.0.253", "r1.ring")
	topo.AddRouter("r2", "10.2.0.254", "r2.ring")
	topo.Connect("a", "r1")
	topo.Connect("r1", "b")
	topo.Connect("a", "r2", LinkLatency(time.Millisecond)) // backup: higher latency
	topo.Connect("r2", "b", LinkLatency(time.Millisecond))
	sim := vclock.New()
	return sim, NewNetwork(sim, topo)
}

func TestCrashHostFailsProbes(t *testing.T) {
	sim, net := lan(t)
	runOne(t, sim, func() {
		if _, err := net.Transfer("a", "d", 1000, ""); err != nil {
			t.Errorf("healthy transfer: %v", err)
		}
		net.CrashHost("d")
		if _, err := net.Transfer("a", "d", 1000, ""); err == nil {
			t.Error("transfer to crashed host succeeded")
		}
		if _, err := net.Ping("a", "d", 4); err == nil {
			t.Error("ping to crashed host succeeded")
		}
		if _, err := net.Ping("d", "a", 4); err == nil {
			t.Error("ping from crashed host succeeded")
		}
		if !net.HostDown("d") {
			t.Error("HostDown(d) = false after crash")
		}
		net.RestoreHost("d")
		if net.HostDown("d") {
			t.Error("HostDown(d) = true after restore")
		}
		if _, err := net.Transfer("a", "d", 1000, ""); err != nil {
			t.Errorf("transfer after restore: %v", err)
		}
	})
}

func TestCrashHostAbortsInflightFlow(t *testing.T) {
	sim, net := lan(t)
	var xferErr error
	done := false
	sim.Go("xfer", func() {
		// ~8 s at 100 Mbps: still running when the crash hits at 1 s.
		_, xferErr = net.Transfer("a", "d", 100_000_000, "probe")
		done = true
	})
	sim.After(time.Second, func() { net.CrashHost("d") })
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("transfer never returned")
	}
	if xferErr == nil || !strings.Contains(xferErr.Error(), "down") {
		t.Fatalf("aborted transfer error = %v, want host-down", xferErr)
	}
}

func TestDegradeLinkScalesThroughput(t *testing.T) {
	sim, net := lan(t)
	runOne(t, sim, func() {
		st, err := net.Transfer("a", "b", 10_000_000, "")
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(st.AvgBps-100*Mbps)/100/Mbps > 0.05 {
			t.Fatalf("nominal throughput %.1f Mbps", st.AvgBps/1e6)
		}
		net.DegradeLink("a", "sw", 0.25)
		if f := net.linkFactor[net.topo.findLink("a", "sw")]; f != 0.25 {
			t.Fatalf("link factor = %v", f)
		}
		st, err = net.Transfer("a", "b", 10_000_000, "")
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(st.AvgBps-25*Mbps)/25/Mbps > 0.05 {
			t.Fatalf("degraded throughput %.1f Mbps, want ~25", st.AvgBps/1e6)
		}
		net.RestoreLink("a", "sw")
		st, err = net.Transfer("a", "b", 10_000_000, "")
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(st.AvgBps-100*Mbps)/100/Mbps > 0.05 {
			t.Fatalf("restored throughput %.1f Mbps", st.AvgBps/1e6)
		}
	})
}

func TestDegradeLinkAffectsRunningFlow(t *testing.T) {
	sim, net := lan(t)
	var st TransferStats
	sim.Go("xfer", func() {
		var err error
		// 100 Mbit of payload: 1 s at nominal rate.
		st, err = net.Transfer("a", "b", 12_500_000, "")
		if err != nil {
			t.Errorf("transfer: %v", err)
		}
	})
	// Halfway through, halve the link: the rest takes twice as long,
	// total ≈ 0.5 + 1.0 = 1.5 s.
	sim.After(500*time.Millisecond, func() { net.DegradeLink("a", "sw", 0.5) })
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	got := st.Duration.Seconds()
	if math.Abs(got-1.5) > 0.1 {
		t.Fatalf("degraded-midway duration %.2f s, want ~1.5", got)
	}
}

func TestCutLinkReroutesAndPartitions(t *testing.T) {
	sim, net := ring(t)
	runOne(t, sim, func() {
		lat, err := net.Latency("a", "b")
		if err != nil {
			t.Fatal(err)
		}
		if lat != 500*time.Microsecond {
			t.Fatalf("primary path latency %v", lat)
		}
		// Cut the primary: reroute over the slow backup.
		net.CutLink("a", "r1")
		lat, err = net.Latency("a", "b")
		if err != nil {
			t.Fatal(err)
		}
		if lat != 2*time.Millisecond {
			t.Fatalf("backup path latency %v", lat)
		}
		// Cut the backup too: partitioned.
		net.CutLink("a", "r2")
		if _, err := net.Transfer("a", "b", 1000, ""); err == nil {
			t.Fatal("transfer across full partition succeeded")
		}
		// Heal one side: reachable again.
		net.HealLink("a", "r1")
		if _, err := net.Transfer("a", "b", 1000, ""); err != nil {
			t.Fatalf("transfer after heal: %v", err)
		}
	})
}

func TestCutLinkAbortsCrossingFlow(t *testing.T) {
	sim, net := lan(t)
	var xferErr error
	sim.Go("xfer", func() {
		_, xferErr = net.Transfer("a", "d", 100_000_000, "probe")
	})
	sim.After(time.Second, func() { net.CutLink("sw", "r") })
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if xferErr == nil || !strings.Contains(xferErr.Error(), "cut") {
		t.Fatalf("aborted transfer error = %v, want link-cut", xferErr)
	}
}

func TestCrashedRouterReroutes(t *testing.T) {
	sim, net := ring(t)
	runOne(t, sim, func() {
		net.CrashHost("r1")
		lat, err := net.Latency("a", "b")
		if err != nil {
			t.Fatalf("no route around crashed router: %v", err)
		}
		if lat != 2*time.Millisecond {
			t.Fatalf("latency via backup %v", lat)
		}
	})
}
