package scenlab

import (
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// GateResult is one evaluated SLO assertion.
type GateResult struct {
	// Name is the assertion key as written in the scenario file.
	Name string `json:"name"`
	// Threshold and Measured render the bound and the observed value.
	Threshold string `json:"threshold"`
	Measured  string `json:"measured"`
	Pass      bool   `json:"pass"`
}

// EvaluateGates judges a run's measured summary against the
// scenario's SLO assertions. Only assertions present in the file are
// evaluated; the verdicts come back in a fixed declaration order so
// summaries stay byte-deterministic.
func EvaluateGates(slo SLOSpec, s *Summary) ([]GateResult, bool) {
	var gates []GateResult
	add := func(name, threshold, measured string, pass bool) {
		gates = append(gates, GateResult{Name: name, Threshold: threshold, Measured: measured, Pass: pass})
	}
	if slo.RecoveryP95MaxSec != nil {
		add("recovery_p95_max_sec",
			fmt.Sprintf("<= %g", *slo.RecoveryP95MaxSec),
			fmt.Sprintf("%g", s.RecoveryP95Sec),
			s.RecoveryP95Sec <= *slo.RecoveryP95MaxSec)
	}
	if slo.MaxForecastGapTicks != nil {
		add("max_forecast_gap_ticks",
			fmt.Sprintf("<= %d", *slo.MaxForecastGapTicks),
			fmt.Sprintf("%d", s.MaxForecastGapTicks),
			s.MaxForecastGapTicks <= *slo.MaxForecastGapTicks)
	}
	if slo.MaxAnswerDeficitTicks != nil {
		add("max_answer_deficit_ticks",
			fmt.Sprintf("<= %d", *slo.MaxAnswerDeficitTicks),
			fmt.Sprintf("%d", s.MaxAnswerDeficitTicks),
			s.MaxAnswerDeficitTicks <= *slo.MaxAnswerDeficitTicks)
	}
	if slo.RepairRedeployFractionMax != nil {
		add("repair_redeploy_fraction_max",
			fmt.Sprintf("<= %g", *slo.RepairRedeployFractionMax),
			fmt.Sprintf("%.4f", s.MaxRedeployFraction),
			s.MaxRedeployFraction <= *slo.RepairRedeployFractionMax)
	}
	if slo.RepairsMin != nil {
		add("repairs_min",
			fmt.Sprintf(">= %d", *slo.RepairsMin),
			fmt.Sprintf("%d", s.Repairs),
			s.Repairs >= *slo.RepairsMin)
	}
	if slo.QueriesMustFlow {
		add("queries_must_flow",
			"final sample answers all probed pairs",
			fmt.Sprintf("%d/%d", s.FinalAnswered, s.FinalProbed),
			s.FinalProbed > 0 && s.FinalAnswered == s.FinalProbed)
	}
	if slo.Converged {
		add("converged",
			"no drift in last round, plan complete",
			fmt.Sprintf("converged=%v complete=%v", s.Converged, s.Complete),
			s.Converged && s.Complete)
	}
	if slo.Invariants != "" {
		if len(s.Invariants) == 0 {
			add("invariants", "evaluated after every reconcile round", "never evaluated", false)
		}
		for _, v := range s.Invariants {
			measured := fmt.Sprintf("%d of %d rounds", v.Violations, v.Checks)
			if v.First != "" {
				measured += "; " + v.First
			}
			add("invariant "+v.Name, "0 of >= 1 rounds", measured, v.Checks > 0 && v.Violations == 0)
		}
	}
	for _, m := range slo.Metrics {
		var bounds []string
		if m.Min != nil {
			bounds = append(bounds, fmt.Sprintf(">= %g", *m.Min))
		}
		if m.Max != nil {
			bounds = append(bounds, fmt.Sprintf("<= %g", *m.Max))
		}
		threshold := strings.Join(bounds, " and ")
		v, ok := s.Metrics[m.Metric]
		if !ok {
			// A metric the run never recorded fails the gate: a typoed
			// name must not pass vacuously.
			add("metric "+m.Metric, threshold, "absent", false)
			continue
		}
		pass := (m.Min == nil || v >= *m.Min) && (m.Max == nil || v <= *m.Max)
		add("metric "+m.Metric, threshold, fmt.Sprintf("%g", v), pass)
	}
	pass := true
	for _, g := range gates {
		pass = pass && g.Pass
	}
	return gates, pass
}

// GateReport is the verdict over a directory of committed summaries.
type GateReport struct {
	// Summaries are the evaluated runs, sorted by path.
	Summaries []GatedSummary
	// Failed counts runs with Pass == false.
	Failed int
}

// GatedSummary pairs a summary with where it was found.
type GatedSummary struct {
	Path    string
	Summary Summary
}

// OK reports whether every summary passed.
func (r GateReport) OK() bool { return r.Failed == 0 && len(r.Summaries) > 0 }

// String renders the m5gate-style verdict table.
func (r GateReport) String() string {
	var b strings.Builder
	for _, gs := range r.Summaries {
		verdict := "PASS"
		if !gs.Summary.Pass {
			verdict = "FAIL"
		}
		fmt.Fprintf(&b, "%-4s %-24s seed=%-12d %s\n", verdict, gs.Summary.Scenario, gs.Summary.Seed, gs.Path)
		for _, g := range gs.Summary.Gates {
			mark := "ok"
			if !g.Pass {
				mark = "BREACH"
			}
			fmt.Fprintf(&b, "       %-8s %-30s want %-38s got %s\n", mark, g.Name, g.Threshold, g.Measured)
		}
	}
	fmt.Fprintf(&b, "scenlab: %d run(s), %d failed\n", len(r.Summaries), r.Failed)
	return b.String()
}

// Gate loads every summary.json under dir (recursively — the matrix
// lays runs out as <dir>/<scenario>/run-<k>/summary.json) and
// re-evaluates the recorded verdicts: the release gate over committed
// artifacts, the way m5gate replays its incident-lab summaries.
func Gate(dir string) (GateReport, error) {
	var rep GateReport
	var paths []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && d.Name() == "summary.json" {
			paths = append(paths, path)
		}
		return nil
	})
	if err != nil {
		return rep, fmt.Errorf("scenlab: %w", err)
	}
	sort.Strings(paths)
	if len(paths) == 0 {
		return rep, fmt.Errorf("scenlab: no summary.json artifacts under %s — run `scenlab matrix` first", dir)
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return rep, fmt.Errorf("scenlab: %w", err)
		}
		var s Summary
		if err := json.Unmarshal(data, &s); err != nil {
			return rep, fmt.Errorf("scenlab: %s: %w", p, err)
		}
		if !s.Pass {
			rep.Failed++
		}
		rep.Summaries = append(rep.Summaries, GatedSummary{Path: p, Summary: s})
	}
	return rep, nil
}
