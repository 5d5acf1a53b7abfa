package metrics

import (
	"slices"
	"strings"
	"testing"
	"time"

	"nwsenv/internal/telemetry"
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
