package scenlab

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// validSpec is a minimal well-formed scenario the rejection tests
// mutate one field at a time.
func validSpec() string {
	return `{
		"name": "ok",
		"seed": 1,
		"topology": {"kind": "lan", "lan": {"subnets": 2, "hosts_per_subnet": 2}},
		"phases": {"warmup_sec": 60, "inject_sec": 120, "recovery_sec": 60},
		"fault": {"kind": "crash", "start_sec": 30, "heal_after_sec": 60},
		"slo": {"queries_must_flow": true}
	}`
}

func TestDecodeValid(t *testing.T) {
	s, err := Decode([]byte(validSpec()))
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "ok" || s.Fault.Kind != FaultCrash {
		t.Fatalf("decoded %+v", s)
	}
	if s.ReconcileEvery() != 2*time.Minute {
		t.Fatalf("reconcile interval %v", s.ReconcileEvery())
	}
}

func TestDecodeRejections(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(string) string
		wantErr string
	}{
		{"unknown fault kind",
			func(s string) string { return strings.Replace(s, `"kind": "crash"`, `"kind": "meteor"`, 1) },
			"unknown fault kind"},
		{"missing fault kind",
			func(s string) string { return strings.Replace(s, `"kind": "crash", `, ``, 1) },
			"fault kind missing"},
		{"zero jitter bound",
			func(s string) string {
				return strings.Replace(s, `"slo":`, `"jitter": {"max_ms": 0, "seed": 1}, "slo":`, 1)
			},
			"jitter max_ms must be positive"},
		{"unknown jitter key",
			func(s string) string {
				return strings.Replace(s, `"slo":`, `"jitter": {"max_ms": 10, "mean_ms": 5}, "slo":`, 1)
			},
			"unknown field"},
		{"zero warmup",
			func(s string) string { return strings.Replace(s, `"warmup_sec": 60`, `"warmup_sec": 0`, 1) },
			"must all be positive"},
		{"negative inject",
			func(s string) string { return strings.Replace(s, `"inject_sec": 120`, `"inject_sec": -5`, 1) },
			"must all be positive"},
		{"missing phases block",
			func(s string) string {
				return strings.Replace(s, `"phases": {"warmup_sec": 60, "inject_sec": 120, "recovery_sec": 60},`, ``, 1)
			},
			"must all be positive"},
		{"negative fault offset",
			func(s string) string { return strings.Replace(s, `"start_sec": 30`, `"start_sec": -1`, 1) },
			"must not be negative"},
		{"unknown field rejected",
			func(s string) string { return strings.Replace(s, `"seed": 1,`, `"seed": 1, "sl0": {},`, 1) },
			"unknown field"},
		{"missing name",
			func(s string) string { return strings.Replace(s, `"name": "ok",`, ``, 1) },
			"no name"},
		{"unsafe name",
			func(s string) string { return strings.Replace(s, `"name": "ok"`, `"name": "a/b"`, 1) },
			"filename-safe"},
		{"unknown topology kind",
			func(s string) string { return strings.Replace(s, `"kind": "lan"`, `"kind": "torus"`, 1) },
			"unknown topology kind"},
		{"lan without block",
			func(s string) string {
				return strings.Replace(s, `"kind": "lan", "lan": {"subnets": 2, "hosts_per_subnet": 2}`, `"kind": "lan"`, 1)
			},
			"needs a lan block"},
		{"unknown invariants value",
			func(s string) string {
				return strings.Replace(s, `"queries_must_flow": true`, `"queries_must_flow": true, "invariants": "some"`, 1)
			},
			`the only value is "all"`},
		{"data after the scenario",
			func(s string) string { return s + ` {"name": "second"}` },
			"data after the scenario"},
		{"retired reconcile_every_sec",
			func(s string) string {
				return strings.Replace(s, `"seed": 1,`, `"seed": 1, "reconcile_every_sec": 120,`, 1)
			},
			"unknown field"},
		{"retired sample_every_sec",
			func(s string) string {
				return strings.Replace(s, `"seed": 1,`, `"seed": 1, "sample_every_sec": 60,`, 1)
			},
			"unknown field"},
		{"retired grid hub_fraction",
			func(s string) string {
				return strings.Replace(s, `"kind": "lan", "lan": {"subnets": 2, "hosts_per_subnet": 2}`,
					`"kind": "grid", "grid": {"sites": 2, "switches_per_site": 1, "hosts_per_switch": 2, "hub_fraction": 0.5}`, 1)
			},
			"unknown field"},
		{"retired grid vlans_per_site",
			func(s string) string {
				return strings.Replace(s, `"kind": "lan", "lan": {"subnets": 2, "hosts_per_subnet": 2}`,
					`"kind": "grid", "grid": {"sites": 2, "switches_per_site": 1, "hosts_per_switch": 2, "vlans_per_site": 2}`, 1)
			},
			"unknown field"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Decode([]byte(c.mutate(validSpec())))
			if err == nil {
				t.Fatalf("%s decoded without error", c.name)
			}
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("error %q does not mention %q", err, c.wantErr)
			}
		})
	}
}

func TestFaultSpecValidation(t *testing.T) {
	bad := []FaultSpec{
		{Kind: FaultDegrade, Factor: 0},
		{Kind: FaultDegrade, Factor: 1.5},
		{Kind: FaultChurn, Victims: 0, SpacingSec: 60, HealAfterSec: 60},
		{Kind: FaultChurn, Victims: 2},
		{Kind: FaultMixed, Rounds: 0, SpacingSec: 60, HealAfterSec: 60},
		{Kind: FaultMixed, Rounds: maxRounds + 1, SpacingSec: 60, HealAfterSec: 60},
		{Kind: FaultMultiPartition, Victims: 1, SpacingSec: 60, HealAfterSec: 60},
		{Kind: FaultMultiPartition, Victims: 3},
	}
	for i, f := range bad {
		if err := f.validate("t"); err == nil {
			t.Errorf("case %d (%+v) validated", i, f)
		}
	}
	good := []FaultSpec{
		{Kind: FaultNone},
		{Kind: FaultCrash},
		{Kind: FaultDegrade, Factor: 0.25},
		{Kind: FaultChurn, Victims: 2, SpacingSec: 60, HealAfterSec: 60},
		{Kind: FaultMultiPartition, Victims: 2, SpacingSec: 60, HealAfterSec: 120},
	}
	for i, f := range good {
		if err := f.validate("t"); err != nil {
			t.Errorf("case %d (%+v): %v", i, f, err)
		}
	}
}

// TestCommittedScenariosDecode is the golden gate over scenarios/: every
// committed file must decode, validate, carry the name of its file, an
// SLO that gates something, and a claim tying it to the paper.
func TestCommittedScenariosDecode(t *testing.T) {
	files, err := LoadDir(filepath.Join("..", "..", "scenarios"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 6 {
		t.Fatalf("expected >= 6 committed scenarios, found %d", len(files))
	}
	wantKinds := map[string]FaultKind{
		"crash":               FaultCrash,
		"partition":           FaultPartition,
		"degrade":             FaultDegrade,
		"churn":               FaultChurn,
		"mixed":               FaultMixed,
		"multisite-partition": FaultMultiPartition,
	}
	seen := map[string]bool{}
	for _, f := range files {
		s := f.Spec
		seen[s.Name] = true
		base := strings.TrimSuffix(filepath.Base(f.Path), ".json")
		if s.Name != base {
			t.Errorf("%s: scenario name %q does not match its filename", f.Path, s.Name)
		}
		if kind, ok := wantKinds[s.Name]; ok && s.Fault.Kind != kind {
			t.Errorf("%s: fault kind %q, want %q", f.Path, s.Fault.Kind, kind)
		}
		if s.Claim == "" {
			t.Errorf("%s: no claim cross-reference", f.Path)
		}
		if s.SLO.Invariants != "all" {
			t.Errorf("%s: the §2.3 invariants are not gated (slo invariants %q)", f.Path, s.SLO.Invariants)
		}
		gates, _ := EvaluateGates(s.SLO, &Summary{})
		if len(gates) == 0 {
			t.Errorf("%s: SLO block gates nothing", f.Path)
		}
		if f.SHA256 == "" {
			t.Errorf("%s: no content digest", f.Path)
		}
	}
	for name := range wantKinds {
		if !seen[name] {
			t.Errorf("committed scenario %q missing", name)
		}
	}
}

func TestLoadDirRejectsDuplicateNames(t *testing.T) {
	dir := t.TempDir()
	for _, fn := range []string{"a.json", "b.json"} {
		spec := strings.Replace(validSpec(), `"name": "ok"`, `"name": "dup"`, 1)
		if err := writeFile(t, filepath.Join(dir, fn), spec); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := LoadDir(dir); err == nil || !strings.Contains(err.Error(), "defined by both") {
		t.Fatalf("duplicate names not rejected: %v", err)
	}
}

func TestPhaseAt(t *testing.T) {
	s := &Spec{Phases: Phases{WarmupSec: 60, InjectSec: 120, RecoverySec: 60}}
	for _, c := range []struct {
		off  time.Duration
		want string
	}{
		{30 * time.Second, "warmup"},
		{60 * time.Second, "warmup"},
		{61 * time.Second, "inject"},
		{180 * time.Second, "inject"},
		{181 * time.Second, "recovery"},
	} {
		if got := s.phaseAt(c.off); got != c.want {
			t.Errorf("phaseAt(%v) = %q, want %q", c.off, got, c.want)
		}
	}
}

func TestMaxForecastGap(t *testing.T) {
	samples := []Sample{
		{Phase: "warmup", Answered: 0}, // warmup outage does not count
		{Phase: "inject", Answered: 4},
		{Phase: "inject", Answered: 0},
		{Phase: "inject", Answered: 0},
		{Phase: "recovery", Answered: 4},
		{Phase: "recovery", Answered: 0},
	}
	if got := maxForecastGap(samples); got != 2 {
		t.Fatalf("max gap %d, want 2", got)
	}
	if got := maxForecastGap(nil); got != 0 {
		t.Fatalf("empty gap %d", got)
	}
}

func writeFile(t *testing.T, path, content string) error {
	t.Helper()
	return os.WriteFile(path, []byte(content), 0o644)
}
