// Package metrics quantifies deployment quality along the four §2.3
// axes: collision avoidance, scalability (measurement frequency),
// completeness, and intrusiveness — plus estimate accuracy against the
// simulator's ground truth.
package metrics

import (
	"math"
	"sort"
	"strings"
	"time"

	"nwsenv/internal/deploy"
	"nwsenv/internal/simnet"
	"nwsenv/internal/telemetry"
)

// Report aggregates one monitored run.
type Report struct {
	// Window is the observed virtual time span.
	Window time.Duration
	// Probes and ProbeBytes measure intrusiveness.
	Probes     int
	ProbeBytes int64
	// Collisions counts probe-vs-probe contention events.
	Collisions int
	// CollisionRate = Collisions / Probes.
	CollisionRate float64
	// PairFrequency maps "src->dst" to measurements per minute.
	PairFrequency map[string]float64
	// MinPairPerMinute / MaxPairPerMinute summarize frequency across
	// measured pairs.
	MinPairPerMinute, MaxPairPerMinute float64
	// P50/P95/P99PairPerMinute are nearest-rank percentiles of the
	// per-pair frequency distribution: min/max alone hide whether one
	// starved pair is an outlier or the norm (§2.3 scalability).
	P50PairPerMinute, P95PairPerMinute, P99PairPerMinute float64
}

// Observe builds a report over the window from a network's traffic
// table (one row per source, destination and tag) and collisions,
// counting only the completed probes whose tag has the given prefix.
func Observe(net *simnet.Network, tagPrefix string, window time.Duration) Report {
	r := Report{Window: window, PairFrequency: map[string]float64{}}
	minutes := window.Minutes()
	for _, row := range net.Traffic() {
		if row.Tag == "" || row.Done == 0 || !strings.HasPrefix(row.Tag, tagPrefix) {
			continue
		}
		r.Probes += row.Done
		r.ProbeBytes += row.DoneBytes
		r.PairFrequency[row.Src+"->"+row.Dst] += float64(row.Done) / minutes
	}
	for _, c := range net.Collisions() {
		if strings.HasPrefix(c.TagA, tagPrefix) && strings.HasPrefix(c.TagB, tagPrefix) {
			r.Collisions += c.Count
		}
	}
	if r.Probes > 0 {
		r.CollisionRate = float64(r.Collisions) / float64(r.Probes)
	}
	first := true
	freqs := make([]float64, 0, len(r.PairFrequency))
	for _, f := range r.PairFrequency {
		if first || f < r.MinPairPerMinute {
			r.MinPairPerMinute = f
		}
		if first || f > r.MaxPairPerMinute {
			r.MaxPairPerMinute = f
		}
		first = false
		freqs = append(freqs, f)
	}
	sort.Float64s(freqs)
	r.P50PairPerMinute = telemetry.Percentile(freqs, 0.50)
	r.P95PairPerMinute = telemetry.Percentile(freqs, 0.95)
	r.P99PairPerMinute = telemetry.Percentile(freqs, 0.99)
	return r
}

// PairAccuracy compares one composed estimate with ground truth.
type PairAccuracy struct {
	From, To   string
	EstBWMbps  float64
	TrueBWMbps float64
	EstLatMS   float64
	TrueLatMS  float64
	// BWRelErr = |est-true|/true; LatRelErr likewise.
	BWRelErr, LatRelErr float64
	Direct              bool
}

// AccuracySummary aggregates pair accuracies.
type AccuracySummary struct {
	Pairs []PairAccuracy
	// MedianBWRelErr and MedianLatRelErr over all evaluated pairs.
	MedianBWRelErr, MedianLatRelErr float64
	// WorstBWRelErr over all evaluated pairs.
	WorstBWRelErr float64
}

// Accuracy evaluates estimator output against the topology's ground
// truth for the given canonical-name pairs. resolve maps canonical names
// to node IDs. Pairs the estimator cannot answer are skipped (the
// completeness validator reports those separately).
func Accuracy(est *deploy.Estimator, topo *simnet.Topology, resolve map[string]string, pairs [][2]string) AccuracySummary {
	var sum AccuracySummary
	for _, pr := range pairs {
		from, to := pr[0], pr[1]
		got, err := est.Estimate(from, to)
		if err != nil {
			continue
		}
		srcID, ok1 := resolve[from]
		dstID, ok2 := resolve[to]
		if !ok1 || !ok2 {
			continue
		}
		trueBW, err := topo.AloneBandwidth(srcID, dstID)
		if err != nil {
			continue
		}
		fwd, err := topo.PathLatency(srcID, dstID)
		if err != nil {
			continue
		}
		back, _ := topo.PathLatency(dstID, srcID)
		trueRTTms := float64((fwd + back).Microseconds()) / 1000

		pa := PairAccuracy{
			From: from, To: to,
			EstBWMbps:  got.BandwidthMbps,
			TrueBWMbps: trueBW / 1e6,
			EstLatMS:   got.LatencyMS,
			TrueLatMS:  trueRTTms,
			Direct:     got.Direct,
		}
		if pa.TrueBWMbps > 0 {
			pa.BWRelErr = math.Abs(pa.EstBWMbps-pa.TrueBWMbps) / pa.TrueBWMbps
		}
		if pa.TrueLatMS > 0 {
			pa.LatRelErr = math.Abs(pa.EstLatMS-pa.TrueLatMS) / pa.TrueLatMS
		}
		sum.Pairs = append(sum.Pairs, pa)
	}
	sum.MedianBWRelErr = median(sum.Pairs, func(p PairAccuracy) float64 { return p.BWRelErr })
	sum.MedianLatRelErr = median(sum.Pairs, func(p PairAccuracy) float64 { return p.LatRelErr })
	for _, p := range sum.Pairs {
		if p.BWRelErr > sum.WorstBWRelErr {
			sum.WorstBWRelErr = p.BWRelErr
		}
	}
	return sum
}

func median(ps []PairAccuracy, f func(PairAccuracy) float64) float64 {
	if len(ps) == 0 {
		return 0
	}
	vs := make([]float64, len(ps))
	for i, p := range ps {
		vs[i] = f(p)
	}
	sort.Float64s(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}
