package scenlab

import (
	"slices"
	"testing"
	"time"

	"nwsenv/internal/deploy"
	"nwsenv/internal/reconcile"
	"nwsenv/internal/telemetry"
)

// repairRound is a round that started at started and repaired at
// repaired, rebuilding redeployed agents and keeping kept.
func repairRound(started, repaired time.Duration, redeployed, kept int) reconcile.Round {
	return reconcile.Round{Started: started, RepairedAt: repaired, Delta: &deploy.DeltaReport{
		Restarted: make([]string, redeployed), Kept: make([]string, kept),
	}}
}

// TestScoreRecovery: each fired event is answered by the first repair
// round that starts between it and the next event. A round before the
// event, a round that repaired nothing and a later repair in the same
// window do not count; an event with no repair in its window is
// unrepaired.
func TestScoreRecovery(t *testing.T) {
	fired := []time.Duration{time.Minute, 10 * time.Minute, 20 * time.Minute}
	rounds := []reconcile.Round{
		repairRound(30*time.Second, 40*time.Second, 8, 0), // before every event
		{Started: 2 * time.Minute},                        // no drift
		repairRound(2*time.Minute+time.Second, 3*time.Minute, 2, 6),
		repairRound(4*time.Minute, 5*time.Minute, 8, 0), // second repair, same window
		repairRound(14*time.Minute, 15*time.Minute, 4, 4),
		{Started: 22 * time.Minute}, // the third event's window: nothing repaired
	}
	rec := scoreRecovery(rounds, fired)
	if rec.Unrepaired != 1 {
		t.Fatalf("unrepaired %d, want 1", rec.Unrepaired)
	}
	if rec.P95TimeToRepair != 5*time.Minute {
		t.Fatalf("p95 time-to-repair %v, want 5m (of 2m and 5m)", rec.P95TimeToRepair)
	}
	if rec.MaxRedeployFraction != 0.5 {
		t.Fatalf("max redeploy fraction %v, want 0.5", rec.MaxRedeployFraction)
	}
}

// TestScoreRecoveryEmpty: a run with no repairs scores exactly zero,
// never NaN or a division artifact, so upper-bound gates pass trivially
// on a fault-free run, and every fired event without one is unrepaired.
func TestScoreRecoveryEmpty(t *testing.T) {
	if rec := scoreRecovery(nil, nil); rec != (Recovery{}) {
		t.Fatalf("fault-free run scored %+v", rec)
	}
	rec := scoreRecovery([]reconcile.Round{{Started: 2 * time.Minute}}, []time.Duration{time.Minute, 3 * time.Minute})
	if rec != (Recovery{Unrepaired: 2}) {
		t.Fatalf("unanswered events scored %+v", rec)
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
	// The score sorts its own latencies: repairs arriving in any order
	// give the same percentile, and the caller's rounds are not
	// reordered.
	var fired []time.Duration
	var rounds []reconcile.Round
	for i, d := range ds {
		at := time.Duration(i) * time.Hour
		fired = append(fired, at)
		rounds = append(rounds, repairRound(at, at+d, 1, 1))
	}
	if got := scoreRecovery(rounds, fired).P95TimeToRepair; got != 50*time.Second {
		t.Fatalf("score p95 %v, want 50s", got)
	}
	if rounds[0].RepairedAt != 40*time.Second || rounds[4].RepairedAt != 4*time.Hour+50*time.Second {
		t.Fatalf("input mutated: %v", rounds)
	}
}
