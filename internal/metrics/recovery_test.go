package metrics

import (
	"slices"
	"strings"
	"testing"
	"time"

	"nwsenv/internal/simnet"
	"nwsenv/internal/telemetry"
	"nwsenv/internal/vclock"
)

func TestSummarizeRecovery(t *testing.T) {
	repairs := []Repair{
		{Fault: "crash h1", InjectedAt: 1 * time.Minute, DetectedAt: 2 * time.Minute,
			RepairedAt: 3 * time.Minute, Redeployed: 2, Total: 8},
		{Fault: "cut a-b", InjectedAt: 10 * time.Minute, DetectedAt: 14 * time.Minute,
			RepairedAt: 15 * time.Minute, Redeployed: 4, Total: 8},
	}
	rep := SummarizeRecovery(repairs, 1)
	if rep.MeanTimeToDetect != 150*time.Second {
		t.Fatalf("mean time-to-detect %v", rep.MeanTimeToDetect)
	}
	if rep.MaxTimeToRepair != 5*time.Minute {
		t.Fatalf("max time-to-repair %v", rep.MaxTimeToRepair)
	}
	if rep.TotalRedeployed != 6 {
		t.Fatalf("total redeployed %d", rep.TotalRedeployed)
	}
	if rep.MaxRedeployFraction != 0.5 {
		t.Fatalf("max redeploy fraction %v", rep.MaxRedeployFraction)
	}
	if rep.Unrepaired != 1 {
		t.Fatalf("unrepaired %d", rep.Unrepaired)
	}
	out := rep.String()
	for _, frag := range []string{"crash h1", "cut a-b", "1 unrepaired", "worst redeploy fraction 0.50"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("report rendering misses %q:\n%s", frag, out)
		}
	}
}

func TestSummarizeRecoveryEmpty(t *testing.T) {
	rep := SummarizeRecovery(nil, 0)
	if rep.MeanTimeToDetect != 0 || rep.MaxTimeToRepair != 0 || rep.P95TimeToRepair != 0 {
		t.Fatalf("empty summary latencies %+v", rep)
	}
	if rep.MaxRedeployFraction != 0 || rep.TotalRedeployed != 0 {
		t.Fatalf("empty summary redeploy stats %+v", rep)
	}
	out := rep.String()
	if !strings.Contains(out, "0 repair(s), 0 unrepaired injection(s)") {
		t.Fatalf("empty report rendering:\n%s", out)
	}
	// No latency summary line for an empty set: there is nothing to
	// average, and "0s/0s" would read as a measured result.
	if strings.Contains(out, "time-to-detect") {
		t.Fatalf("empty report renders latency line:\n%s", out)
	}
}

func TestDurationPercentile(t *testing.T) {
	ds := []time.Duration{
		40 * time.Second, 10 * time.Second, 30 * time.Second, 20 * time.Second, 50 * time.Second,
	}
	cases := []struct {
		p    float64
		want time.Duration
	}{
		{0.5, 30 * time.Second},  // nearest-rank: ceil(0.5*5) = 3rd
		{0.95, 50 * time.Second}, // ceil(4.75) = 5th
		{1, 50 * time.Second},    // max
		{0, 10 * time.Second},    // clamped rank >= 1: min
		{-1, 10 * time.Second},   // p clamped up to 0
		{2, 50 * time.Second},    // p clamped down to 1
	}
	sorted := slices.Sorted(slices.Values(ds))
	for _, c := range cases {
		if got := telemetry.Percentile(sorted, c.p); got != c.want {
			t.Fatalf("percentile %v = %v, want %v", c.p, got, c.want)
		}
	}
	if got := telemetry.Percentile([]time.Duration(nil), 0.95); got != 0 {
		t.Fatalf("empty percentile %v, want 0", got)
	}
	// The report sorts its own copy: repairs arriving in any order give
	// the same percentile, and the caller's slice is not reordered.
	var repairs []Repair
	for _, d := range ds {
		repairs = append(repairs, Repair{RepairedAt: d})
	}
	if got := SummarizeRecovery(repairs, 0).P95TimeToRepair; got != 50*time.Second {
		t.Fatalf("report p95 %v, want 50s", got)
	}
	if repairs[0].RepairedAt != 40*time.Second || repairs[4].RepairedAt != 50*time.Second {
		t.Fatalf("input mutated: %v", repairs)
	}
}

// disruptionNet runs tagged transfers on a two-host segment: one per
// 30 s except inside [2m, 4m), emulating monitoring paused by a fault.
func disruptionNet(t *testing.T) *simnet.Network {
	t.Helper()
	topo := simnet.NewTopology()
	topo.AddHost("a", "10.9.0.1", "a.d", "d")
	topo.AddHost("b", "10.9.0.2", "b.d", "d")
	topo.AddSwitch("sw")
	topo.Connect("a", "sw")
	topo.Connect("b", "sw")
	sim := vclock.New()
	net := simnet.NewNetwork(sim, topo)
	sim.Go("probes", func() {
		for i := 0; i < 12; i++ {
			at := time.Duration(i) * 30 * time.Second
			if at >= 2*time.Minute && at < 4*time.Minute {
				sim.Sleep(30 * time.Second)
				continue
			}
			if _, err := net.Transfer("a", "b", 1000, "clique:test"); err != nil {
				t.Errorf("transfer: %v", err)
			}
			sim.Sleep(30*time.Second - (sim.Now() - at))
		}
	})
	if err := sim.RunUntil(6 * time.Minute); err != nil {
		t.Fatal(err)
	}
	return net
}

// probeRate counts measurement-probe completions per minute in the
// half-open window [from, to), for tags with the given prefix ("" =
// all tagged probes).
func probeRate(net *simnet.Network, tagPrefix string, from, to time.Duration) float64 {
	if to <= from {
		return 0
	}
	count := 0
	for _, rec := range net.Records() {
		if rec.Tag == "" || !strings.HasPrefix(rec.Tag, tagPrefix) {
			continue
		}
		if rec.End >= from && rec.End < to {
			count++
		}
	}
	return float64(count) / (to - from).Minutes()
}

func TestProbeRateAndDisruption(t *testing.T) {
	net := disruptionNet(t)
	if r := probeRate(net, "clique:", 0, 2*time.Minute); r != 2 {
		t.Fatalf("baseline rate %v probes/min, want 2", r)
	}
	if r := probeRate(net, "clique:", 2*time.Minute, 4*time.Minute); r != 0 {
		t.Fatalf("paused-window rate %v, want 0", r)
	}
	dis := ProbeDisruption(net, "clique:",
		[][2]time.Duration{{2 * time.Minute, 3 * time.Minute}, {150 * time.Second, 4 * time.Minute}},
		0, 6*time.Minute)
	if dis.BaselinePerMinute != 2 {
		t.Fatalf("baseline %v", dis.BaselinePerMinute)
	}
	if dis.RepairPerMinute != 0 {
		t.Fatalf("repair-window rate %v", dis.RepairPerMinute)
	}
	if dis.Drop != 1 {
		t.Fatalf("drop %v, want 1 (monitoring fully paused)", dis.Drop)
	}
}

func TestMergeWindows(t *testing.T) {
	got := mergeWindows([][2]time.Duration{
		{4 * time.Minute, 5 * time.Minute},
		{1 * time.Minute, 2 * time.Minute},
		{90 * time.Second, 3 * time.Minute},
	})
	want := [][2]time.Duration{{1 * time.Minute, 3 * time.Minute}, {4 * time.Minute, 5 * time.Minute}}
	if len(got) != len(want) {
		t.Fatalf("merged %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("merged %v, want %v", got, want)
		}
	}
}
