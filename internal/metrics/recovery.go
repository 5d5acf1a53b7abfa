package metrics

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"nwsenv/internal/telemetry"
)

// Recovery metrics for the self-healing control plane: §4.3 frames
// deployment as reacting to "possible platform evolution", so every
// injected fault gets a measurable repair — how long until the drift
// was noticed, how long until the deployment was valid again, and how
// much of the system had to be redeployed to get there.

// Repair describes the recovery from one injected fault.
type Repair struct {
	// Fault describes the injection ("crash sci3", "cut r2-root", ...).
	Fault string
	// InjectedAt is when the fault hit the platform.
	InjectedAt time.Duration
	// DetectedAt is when the reconcile loop first observed the drift
	// (a non-empty plan diff or a liveness change).
	DetectedAt time.Duration
	// RepairedAt is when the incremental redeploy for it completed.
	RepairedAt time.Duration
	// Redeployed counts agents started or rebuilt by the repair;
	// Total is the deployment size after it.
	Redeployed, Total int
}

// TimeToDetect is the §4.3 drift-detection latency.
func (r Repair) TimeToDetect() time.Duration { return r.DetectedAt - r.InjectedAt }

// TimeToRepair is the full outage-to-recovered latency.
func (r Repair) TimeToRepair() time.Duration { return r.RepairedAt - r.InjectedAt }

// RedeployFraction is the share of components the repair had to touch
// (0 = nothing, 1 = full redeployment).
func (r Repair) RedeployFraction() float64 {
	if r.Total == 0 {
		return 0
	}
	return float64(r.Redeployed) / float64(r.Total)
}

// RecoveryReport aggregates the repairs of one watch run.
type RecoveryReport struct {
	Repairs []Repair
	// Unrepaired counts injected faults no reconcile round answered
	// (either still converging, or — for degradations — correctly
	// requiring no structural change).
	Unrepaired int
	// MeanTimeToDetect / MaxTimeToRepair / P95TimeToRepair summarize
	// latencies.
	MeanTimeToDetect time.Duration
	MaxTimeToRepair  time.Duration
	P95TimeToRepair  time.Duration
	// TotalRedeployed sums components touched across repairs.
	TotalRedeployed int
	// MaxRedeployFraction is the worst single-repair fraction; < 1
	// means no repair ever tore the whole deployment down.
	MaxRedeployFraction float64
}

// SummarizeRecovery folds repairs into a report.
//
// An empty repair set is well-defined, not degenerate: a run whose
// faults were all non-disruptive (or fault-free) yields the zero
// report — every latency, fraction and percentile is exactly zero,
// never NaN or a division artifact — so SLO gates comparing against
// upper bounds pass trivially instead of tripping on garbage.
func SummarizeRecovery(repairs []Repair, unrepaired int) RecoveryReport {
	rep := RecoveryReport{Repairs: repairs, Unrepaired: unrepaired}
	var detectSum time.Duration
	var ttrs []time.Duration
	for _, r := range repairs {
		detectSum += r.TimeToDetect()
		ttrs = append(ttrs, r.TimeToRepair())
		if ttr := r.TimeToRepair(); ttr > rep.MaxTimeToRepair {
			rep.MaxTimeToRepair = ttr
		}
		rep.TotalRedeployed += r.Redeployed
		if f := r.RedeployFraction(); f > rep.MaxRedeployFraction {
			rep.MaxRedeployFraction = f
		}
	}
	if len(repairs) > 0 {
		rep.MeanTimeToDetect = detectSum / time.Duration(len(repairs))
	}
	slices.Sort(ttrs)
	rep.P95TimeToRepair = telemetry.Percentile(ttrs, 0.95)
	return rep
}

// String renders the report as an operator table.
func (r RecoveryReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "recovery: %d repair(s), %d unrepaired injection(s)\n", len(r.Repairs), r.Unrepaired)
	for _, rp := range r.Repairs {
		fmt.Fprintf(&b, "  %-28s detect %8s  repair %8s  redeployed %d/%d\n",
			rp.Fault, rp.TimeToDetect().Round(time.Millisecond),
			rp.TimeToRepair().Round(time.Millisecond), rp.Redeployed, rp.Total)
	}
	if len(r.Repairs) > 0 {
		fmt.Fprintf(&b, "  mean time-to-detect %s, p95/max time-to-repair %s/%s, worst redeploy fraction %.2f\n",
			r.MeanTimeToDetect.Round(time.Millisecond), r.P95TimeToRepair.Round(time.Millisecond),
			r.MaxTimeToRepair.Round(time.Millisecond), r.MaxRedeployFraction)
	}
	return b.String()
}
