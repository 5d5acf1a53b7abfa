package scenlab

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"nwsenv/internal/metrics"
)

// Summary is the summary.json artifact: the run's SLO verdicts with
// the measured values behind them. Everything in it is derived from
// virtual time and counters, so the same scenario + seed produces
// byte-identical summaries — wall-clock provenance lives in the
// separate provenance.json.
type Summary struct {
	Scenario string `json:"scenario"`
	Seed     int64  `json:"seed"`
	Phases   Phases `json:"phases"`
	// VirtualSec is the sampled span of the run (apply → final sample).
	VirtualSec int64 `json:"virtual_sec"`
	// Injected counts applied fault events; Unrepaired the injections
	// no repair round answered.
	Injected   int `json:"injected"`
	Unrepaired int `json:"unrepaired"`
	// Rounds/Repairs/TransientErrors summarize the reconcile loop.
	Rounds          int `json:"rounds"`
	Repairs         int `json:"repairs"`
	TransientErrors int `json:"transient_errors"`
	// RecoveryP95Sec is the p95 outage-to-recovered latency in virtual
	// seconds (0 when nothing needed repair).
	RecoveryP95Sec float64 `json:"recovery_p95_sec"`
	// MaxRedeployFraction is the worst single-repair redeploy share.
	MaxRedeployFraction float64 `json:"max_redeploy_fraction"`
	// MaxForecastGapTicks is the longest post-warmup sample gap with no
	// forecast answered.
	MaxForecastGapTicks int `json:"max_forecast_gap_ticks"`
	// MaxAnswerDeficitTicks is the longest post-warmup sample run with
	// at least one probed forecast unanswered (replication gate input).
	MaxAnswerDeficitTicks int `json:"max_answer_deficit_ticks"`
	// FinalAnswered/FinalProbed are the steady-state sample's counts.
	FinalAnswered int  `json:"final_answered"`
	FinalProbed   int  `json:"final_probed"`
	Converged     bool `json:"converged"`
	Complete      bool `json:"complete"`
	// Metrics is the run's final telemetry registry, flattened to metric
	// name → value (keys sort deterministically in the JSON encoding).
	// The slo "metrics" gates judge against this map.
	Metrics map[string]float64 `json:"metrics,omitempty"`
	// Invariants is, per §2.3 predicate, the reconcile rounds it was
	// checked after and the ones that broke it; absent unless the SLO
	// asks for invariants.
	Invariants []InvariantVerdict `json:"invariants,omitempty"`
	// Gates are the evaluated SLO assertions, in declaration order.
	Gates []GateResult `json:"gates"`
	// Pass is the conjunction of the gates.
	Pass bool `json:"pass"`
}

// InvariantVerdict is one §2.3 predicate over a run.
type InvariantVerdict struct {
	Name       string `json:"name"`
	Checks     int    `json:"checks"`
	Violations int    `json:"violations"`
	// First is the witness of the first violation.
	First string `json:"first,omitempty"`
}

// Provenance is the provenance.json artifact: everything needed to
// reproduce or audit the run, including the wall-clock facts the
// deterministic summary deliberately excludes.
type Provenance struct {
	Scenario string `json:"scenario"`
	// File and SHA256 identify the exact scenario definition.
	File   string `json:"file"`
	SHA256 string `json:"sha256"`
	Seed   int64  `json:"seed"`
	// Rerun numbers the matrix rerun this artifact belongs to (1-based).
	Rerun     int    `json:"rerun"`
	GoVersion string `json:"go_version"`
	GitCommit string `json:"git_commit"`
	// GeneratedAt is the wall-clock RFC 3339 timestamp of the run.
	GeneratedAt string `json:"generated_at"`
}

// Summarize folds a run result into its summary and evaluates the
// scenario's SLO gates.
func Summarize(res *Result) Summary {
	s := Summary{
		Scenario:              res.Spec.Name,
		Seed:                  res.Seed,
		Phases:                res.Spec.Phases,
		VirtualSec:            res.VirtualSec,
		Injected:              res.Injected,
		Unrepaired:            res.Recovery.Unrepaired,
		Rounds:                res.Rounds,
		Repairs:               res.Repairs,
		TransientErrors:       res.Transient,
		RecoveryP95Sec:        res.Recovery.P95TimeToRepair.Seconds(),
		MaxRedeployFraction:   res.Recovery.MaxRedeployFraction,
		MaxForecastGapTicks:   res.MaxForecastGapTicks,
		MaxAnswerDeficitTicks: res.MaxAnswerDeficitTicks,
		FinalAnswered:         res.FinalAnswered,
		FinalProbed:           res.FinalProbed,
		Converged:             res.Converged,
		Complete:              res.Complete,
		Metrics:               res.Metrics,
	}
	if inv := res.Invariants; inv != nil {
		for _, name := range metrics.InvariantNames {
			s.Invariants = append(s.Invariants, InvariantVerdict{
				Name: name, Checks: inv.Checks, Violations: inv.Violations[name], First: inv.First[name],
			})
		}
	}
	s.Gates, s.Pass = EvaluateGates(res.Spec.SLO, &s)
	return s
}

// GitCommit names the checkout a run measured, for every provenance
// block: the full HEAD hash, suffixed "-dirty" when `git status` lists
// anything (an edited tracked file, or an untracked one .gitignore does
// not cover), or "unknown" outside a checkout.
func GitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	commit := strings.TrimSpace(string(out))
	if status, err := exec.Command("git", "status", "--porcelain").Output(); err != nil || len(status) > 0 {
		commit += "-dirty"
	}
	return commit
}

// NewProvenance stamps a run.
func NewProvenance(f *File, seed int64, rerun int) Provenance {
	return Provenance{
		Scenario:    f.Spec.Name,
		File:        filepath.Base(f.Path),
		SHA256:      f.SHA256,
		Seed:        seed,
		Rerun:       rerun,
		GoVersion:   runtime.Version(),
		GitCommit:   GitCommit(),
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
	}
}

// WriteArtifacts writes samples.jsonl, summary.json and
// provenance.json for one run under dir (created as needed) and
// returns the summary.
func WriteArtifacts(dir string, res *Result, prov Provenance) (Summary, error) {
	sum := Summarize(res)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return sum, fmt.Errorf("scenlab: %w", err)
	}
	var lines strings.Builder
	for _, s := range res.Samples {
		b, err := json.Marshal(s)
		if err != nil {
			return sum, fmt.Errorf("scenlab: %w", err)
		}
		lines.Write(b)
		lines.WriteByte('\n')
	}
	if err := os.WriteFile(filepath.Join(dir, "samples.jsonl"), []byte(lines.String()), 0o644); err != nil {
		return sum, fmt.Errorf("scenlab: %w", err)
	}
	if err := writeJSON(filepath.Join(dir, "summary.json"), sum); err != nil {
		return sum, err
	}
	if err := writeJSON(filepath.Join(dir, "provenance.json"), prov); err != nil {
		return sum, err
	}
	// metrics.jsonl and trace.jsonl: every value derives from the
	// virtual clock, so these are byte-deterministic per file + seed.
	if res.Telemetry != nil {
		if err := res.Telemetry.WriteArtifacts(dir); err != nil {
			return sum, fmt.Errorf("scenlab: %w", err)
		}
	}
	return sum, nil
}

func writeJSON(path string, v interface{}) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("scenlab: %w", err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("scenlab: %w", err)
	}
	return nil
}
