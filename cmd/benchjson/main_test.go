package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

type metrics = map[string]float64

// writeArtifact writes an artifact of the given benchmarks under dir and
// returns its path.
func writeArtifact(t *testing.T, dir, name string, benches map[string]metrics) string {
	t.Helper()
	art := Artifact{Command: "test", Benchmarks: map[string]Result{}}
	for b, m := range benches {
		art.Benchmarks[b] = Result{Metrics: m}
	}
	path := filepath.Join(dir, name)
	data, err := json.Marshal(art)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func mustRead(t *testing.T, path string) *Artifact {
	t.Helper()
	art, err := readArtifact(path)
	if err != nil {
		t.Fatal(err)
	}
	return art
}

// TestGateKinds: each gate kind passes an artifact that keeps its bound
// and fails one that breaks it. A nil base means no baseline file.
func TestGateKinds(t *testing.T) {
	maxRow := Gate{Kind: "max", Bench: "BenchmarkX", Metric: "allocs/op", Bound: 62}
	ratioRow := Gate{Kind: "ratio", Num: "BenchmarkNaive", Den: "BenchmarkFast", Metric: "ns/op", Bound: 10}
	vratioRow := Gate{Kind: "ratio", Num: "BenchmarkScale/n=3", Den: "BenchmarkScale/n=1", Metric: "queries/s", Bound: 2}
	equalRow := Gate{Kind: "equal"}
	equalNamedRow := Gate{Kind: "equal", Metrics: []string{"p50-ms"}}
	compareRow := Gate{Kind: "compare", Bound: 0.25}
	for _, tc := range []struct {
		name      string
		gate      Gate
		base, cur map[string]metrics
		pass      bool
	}{
		{"max-at-ceiling", maxRow, nil, map[string]metrics{"BenchmarkX": {"allocs/op": 62}}, true},
		{"max-over-ceiling", maxRow, nil, map[string]metrics{"BenchmarkX": {"allocs/op": 63}}, false},
		{"max-missing-metric", maxRow, nil, map[string]metrics{"BenchmarkX": {"ns/op": 1}}, false},
		// A benchmark vanishing from the run fails every row naming it.
		{"max-missing-benchmark", maxRow, nil, map[string]metrics{"BenchmarkY": {"allocs/op": 1}}, false},
		{"max-zero-ceiling", Gate{Kind: "max", Bench: "BenchmarkX", Metric: "allocs/op"}, nil,
			map[string]metrics{"BenchmarkX": {"allocs/op": 1}}, false},
		{"ratio-above-minimum", ratioRow, nil,
			map[string]metrics{"BenchmarkNaive": {"ns/op": 5000}, "BenchmarkFast": {"ns/op": 100}}, true},
		{"ratio-below-minimum", ratioRow, nil,
			map[string]metrics{"BenchmarkNaive": {"ns/op": 900}, "BenchmarkFast": {"ns/op": 100}}, false},
		{"ratio-missing-benchmark", ratioRow, nil, map[string]metrics{"BenchmarkFast": {"ns/op": 100}}, false},
		// The vclock-simulation shape: wall-clock ns/op flat across the
		// sweep, the scaling story in a virtual-time custom metric.
		{"ratio-custom-metric", vratioRow, nil, map[string]metrics{
			"BenchmarkScale/n=3": {"ns/op": 1000, "queries/s": 9000},
			"BenchmarkScale/n=1": {"ns/op": 1000, "queries/s": 3000}}, true},
		{"ratio-custom-metric-short", vratioRow, nil, map[string]metrics{
			"BenchmarkScale/n=3": {"ns/op": 1000, "queries/s": 5000},
			"BenchmarkScale/n=1": {"ns/op": 1000, "queries/s": 3000}}, false},
		{"equal-reproduced", equalRow,
			map[string]metrics{"BenchmarkE1": {"ns/op": 1000, "B/op": 8, "networks": 7}},
			map[string]metrics{"BenchmarkE1": {"ns/op": 5000, "B/op": 64, "networks": 7, "extra": 1}}, true},
		{"equal-moved", equalRow,
			map[string]metrics{"BenchmarkE1": {"networks": 7}},
			map[string]metrics{"BenchmarkE1": {"networks": 8}}, false},
		{"equal-missing-baseline", equalRow, nil, map[string]metrics{"BenchmarkE1": {"networks": 7}}, false},
		// A named-metrics row ignores the others (a host-measured
		// allocs-per-batch beside virtual-time p50-ms) but still fails
		// when its benchmark vanishes.
		{"equal-named-reproduced", equalNamedRow,
			map[string]metrics{"BenchmarkG": {"p50-ms": 118.9, "allocs-per-batch": 9.014}},
			map[string]metrics{"BenchmarkG": {"p50-ms": 118.9, "allocs-per-batch": 8.195}}, true},
		{"equal-named-moved", equalNamedRow,
			map[string]metrics{"BenchmarkG": {"p50-ms": 118.9}},
			map[string]metrics{"BenchmarkG": {"p50-ms": 119}}, false},
		{"equal-named-missing-benchmark", equalNamedRow,
			map[string]metrics{"BenchmarkG": {"p50-ms": 118.9}, "BenchmarkH": {"p50-ms": 1}},
			map[string]metrics{"BenchmarkG": {"p50-ms": 118.9}}, false},
		{"equal-named-absent-from-baseline", Gate{Kind: "equal", Metrics: []string{"p50ms"}},
			map[string]metrics{"BenchmarkG": {"p50-ms": 118.9}},
			map[string]metrics{"BenchmarkG": {"p50-ms": 118.9}}, false},
		{"compare-within-threshold", compareRow,
			map[string]metrics{"BenchmarkA": {"ns/op": 1000}},
			map[string]metrics{"BenchmarkA": {"ns/op": 1200}}, true},
		{"compare-time-regression", compareRow,
			map[string]metrics{"BenchmarkA": {"ns/op": 1000}},
			map[string]metrics{"BenchmarkA": {"ns/op": 1300}}, false},
		// 3x B/op growth trips the gate even with flat ns/op.
		{"compare-mem-regression", compareRow,
			map[string]metrics{"BenchmarkX": {"ns/op": 1000, "B/op": 100, "allocs/op": 3}},
			map[string]metrics{"BenchmarkX": {"ns/op": 1000, "B/op": 300, "allocs/op": 3}}, false},
		// Losing a zero-alloc baseline is an unbounded regression.
		{"compare-alloc-regression-from-zero", compareRow,
			map[string]metrics{"BenchmarkX": {"ns/op": 1000, "allocs/op": 0}},
			map[string]metrics{"BenchmarkX": {"ns/op": 1000, "allocs/op": 2}}, false},
		{"compare-mem-improvement", compareRow,
			map[string]metrics{"BenchmarkX": {"ns/op": 1000, "B/op": 4096, "allocs/op": 40}},
			map[string]metrics{"BenchmarkX": {"ns/op": 990, "B/op": 512, "allocs/op": 6}}, true},
		// A baseline recorded without -benchmem must not fail every new
		// run that measures memory.
		{"compare-skips-mem-baseline-lacks", compareRow,
			map[string]metrics{"BenchmarkX": {"ns/op": 1000}},
			map[string]metrics{"BenchmarkX": {"ns/op": 1000, "B/op": 1 << 20, "allocs/op": 999}}, true},
		// A benchmark vanishing from the run fails the gate.
		{"compare-missing-benchmark", compareRow,
			map[string]metrics{"BenchmarkA": {"ns/op": 1000}, "BenchmarkB": {"ns/op": 1000}},
			map[string]metrics{"BenchmarkA": {"ns/op": 1000}}, false},
		{"compare-missing-baseline", compareRow, nil, map[string]metrics{"BenchmarkA": {"ns/op": 1000}}, false},
		{"unknown-kind", Gate{Kind: "min"}, nil, map[string]metrics{"BenchmarkA": {"ns/op": 1000}}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			basePath := filepath.Join(dir, "absent.json")
			if tc.base != nil {
				basePath = writeArtifact(t, dir, "base.json", tc.base)
			}
			cur := mustRead(t, writeArtifact(t, dir, "new.json", tc.cur))
			row, fails := evaluate(tc.gate, basePath, cur, nil)
			if pass := len(fails) == 0; pass != tc.pass {
				t.Fatalf("%s: pass=%v, want %v (%v)", row, pass, tc.pass, fails)
			}
		})
	}
}

// TestEvaluateUnreadableArtifact: a run that wrote no artifact fails
// every row, naming the row it could not check.
func TestEvaluateUnreadableArtifact(t *testing.T) {
	_, err := readArtifact(filepath.Join(t.TempDir(), "BENCH_x_new.json"))
	row, fails := evaluate(Gate{Kind: "max", Bench: "BenchmarkX", Metric: "allocs/op"}, "", nil, err)
	if len(fails) != 1 || !strings.Contains(row, "BenchmarkX allocs/op <= 0") {
		t.Fatalf("row %q fails %v", row, fails)
	}
}

// TestRunFailsOnFailedRecording: a recording that fails (go test
// error, a panicking benchmark, a pattern that matches nothing) fails
// the run, also for an entry with no rows to trip.
func TestRunFailsOnFailedRecording(t *testing.T) {
	entries := []Entry{{Name: "reconcile"}}
	var out bytes.Buffer
	if !run(entries, func(Entry) error { return nil }, &out) {
		t.Fatalf("a clean recording of a row-less entry failed:\n%s", &out)
	}
	out.Reset()
	broken := func(Entry) error { return errors.New("go test: exit status 1") }
	if run(entries, broken, &out) || !strings.Contains(out.String(), "FAIL reconcile") {
		t.Fatalf("a failed recording passed:\n%s", &out)
	}
}

// TestLoadGatesRequiresFields: a row that leaves out a field its kind
// reads is refused at load, not decoded as a zero that always passes.
func TestLoadGatesRequiresFields(t *testing.T) {
	for _, tc := range []struct {
		row string
		ok  bool
	}{
		{`{"kind": "max", "bench": "BenchmarkX", "metric": "allocs/op", "bound": 0, "why": "w"}`, true},
		{`{"kind": "max", "metric": "allocs/op", "bound": 1, "why": "w"}`, false},
		{`{"kind": "max", "bench": "BenchmarkX", "bound": 1, "why": "w"}`, false},
		{`{"kind": "ratio", "num": "BenchmarkA", "den": "BenchmarkB", "metric": "ns/op", "bound": 3, "why": "w"}`, true},
		{`{"kind": "ratio", "num": "BenchmarkA", "den": "BenchmarkB", "metric": "ns/op", "why": "w"}`, false},
		{`{"kind": "ratio", "num": "BenchmarkA", "metric": "ns/op", "bound": 3, "why": "w"}`, false},
		{`{"kind": "ratio", "den": "BenchmarkB", "metric": "ns/op", "bound": 3, "why": "w"}`, false},
		{`{"kind": "ratio", "num": "BenchmarkA", "den": "BenchmarkB", "bound": 3, "why": "w"}`, false},
		{`{"kind": "compare", "bound": 0.25, "why": "w"}`, true},
		{`{"kind": "compare", "why": "w"}`, false},
		{`{"kind": "equal", "why": "w"}`, true},
		{`{"kind": "equal"}`, false},
		{`{"kind": "min", "why": "w"}`, false},
		{`{"kind": "max", "bench": "BenchmarkX", "metric": "allocs/op", "bonud": 1, "why": "w"}`, false},
	} {
		path := filepath.Join(t.TempDir(), gateFile)
		doc := `[{"name": "x", "bench": ".", "benchtime": "1x", "packages": ["."], "gates": [` + tc.row + `]}]`
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := loadGates(path); (err == nil) != tc.ok {
			t.Errorf("%s: err %v, want ok=%v", tc.row, err, tc.ok)
		}
	}
}

func TestCompareArtifactsGate(t *testing.T) {
	base := map[string]metrics{
		"BenchmarkA": {"ns/op": 1000},
		"BenchmarkB": {"ns/op": 1000},
		"BenchmarkC": {"ns/op": 1000},
	}
	cur := map[string]metrics{
		"BenchmarkA": {"ns/op": 1200}, // +20%: within 25%
		"BenchmarkB": {"ns/op": 1300}, // +30%: regression
		"BenchmarkC": {"ns/op": 400},  // improvement
		"BenchmarkD": {"ns/op": 50},   // new, not gated
	}
	dir := t.TempDir()
	n, bad := compareArtifacts(mustRead(t, writeArtifact(t, dir, "old.json", base)),
		mustRead(t, writeArtifact(t, dir, "new.json", cur)), 0.25)
	if n != 3 || len(bad) != 1 || !strings.HasPrefix(bad[0], "BenchmarkB ns/op 1000 -> 1300") {
		t.Fatalf("compared %d, regressions %q", n, bad)
	}
}

func TestCompareArtifactsWithinThreshold(t *testing.T) {
	dir := t.TempDir()
	old := mustRead(t, writeArtifact(t, dir, "old.json", map[string]metrics{"BenchmarkA": {"ns/op": 1000}}))
	cur := mustRead(t, writeArtifact(t, dir, "new.json", map[string]metrics{"BenchmarkA": {"ns/op": 1100}}))
	if _, bad := compareArtifacts(old, cur, 0.25); len(bad) != 0 {
		t.Fatalf("+10%% must pass a 25%% gate: %q", bad)
	}
}

func TestArtifactRatio(t *testing.T) {
	cur := mustRead(t, writeArtifact(t, t.TempDir(), "art.json", map[string]metrics{
		"BenchmarkNaive": {"ns/op": 5000},
		"BenchmarkFast":  {"ns/op": 100},
	}))
	g := Gate{Kind: "ratio", Num: "BenchmarkNaive", Den: "BenchmarkFast", Metric: "ns/op", Bound: 10}
	if row, fails := evaluate(g, "", cur, nil); len(fails) != 0 || !strings.HasSuffix(row, ": 50.00x") {
		t.Fatalf("row %q fails %v, want 50.00x", row, fails)
	}
	g.Num = "BenchmarkMissing"
	if _, fails := evaluate(g, "", cur, nil); len(fails) != 1 || !strings.Contains(fails[0], "BenchmarkMissing") {
		t.Fatalf("missing benchmark: %v", fails)
	}
}

func TestArtifactRatioCustomMetric(t *testing.T) {
	cur := mustRead(t, writeArtifact(t, t.TempDir(), "art.json", map[string]metrics{
		"BenchmarkScale/n=3": {"ns/op": 1000, "queries/s": 9000},
		"BenchmarkScale/n=1": {"ns/op": 1000, "queries/s": 3000},
	}))
	g := Gate{Kind: "ratio", Num: "BenchmarkScale/n=3", Den: "BenchmarkScale/n=1", Metric: "queries/s", Bound: 2}
	if row, fails := evaluate(g, "", cur, nil); len(fails) != 0 || !strings.HasSuffix(row, ": 3.00x") {
		t.Fatalf("row %q fails %v, want 3.00x", row, fails)
	}
	g.Metric = "p99-ms"
	if _, fails := evaluate(g, "", cur, nil); len(fails) != 1 || !strings.Contains(fails[0], "p99-ms") {
		t.Fatalf("absent metric: %v", fails)
	}
}

func TestParseBenchOutputMemMetrics(t *testing.T) {
	out := `goos: linux
pkg: nwsenv/internal/simnet
BenchmarkScaleGridTransfers/hosts=100-8         	     120	    912345 ns/op	    2048 B/op	      31 allocs/op	      7.000 settles
PASS
`
	art := Artifact{Benchmarks: map[string]Result{}}
	parseBenchOutput(&art, out)
	r, ok := art.Benchmarks["BenchmarkScaleGridTransfers/hosts=100"]
	if !ok {
		t.Fatalf("benchmark not parsed: %+v", art.Benchmarks)
	}
	want := map[string]float64{"ns/op": 912345, "B/op": 2048, "allocs/op": 31, "settles": 7}
	for unit, v := range want {
		if r.Metrics[unit] != v {
			t.Errorf("metric %s = %g, want %g", unit, r.Metrics[unit], v)
		}
	}

	// The emitted artifact round-trips the memory metrics.
	data, err := json.Marshal(art)
	if err != nil {
		t.Fatal(err)
	}
	var back Artifact
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Benchmarks["BenchmarkScaleGridTransfers/hosts=100"].Metrics["B/op"] != 2048 {
		t.Errorf("B/op did not round-trip: %+v", back)
	}
}

func TestParseBenchOutput(t *testing.T) {
	out := `goos: linux
pkg: nwsenv
BenchmarkScaleGridTransfers/hosts=1000-8         	       1	  16208686 ns/op	       400.0 bgflows	      1000 hosts	      8103 ns/xfer
PASS
`
	art := Artifact{Benchmarks: map[string]Result{}}
	parseBenchOutput(&art, out)
	r, ok := art.Benchmarks["BenchmarkScaleGridTransfers/hosts=1000"]
	if !ok {
		t.Fatalf("sub-benchmark name not parsed: %v", art.Benchmarks)
	}
	if r.Metrics["ns/op"] != 16208686 || r.Metrics["hosts"] != 1000 || r.Metrics["ns/xfer"] != 8103 {
		t.Fatalf("metrics: %+v", r.Metrics)
	}
	if r.Package != "nwsenv" {
		t.Fatalf("package: %q", r.Package)
	}
}

func TestAssertEqualMetrics(t *testing.T) {
	dir := t.TempDir()
	base := mustRead(t, writeArtifact(t, dir, "base.json", map[string]metrics{
		"BenchmarkE1": {"ns/op": 1000, "networks": 7},
		"BenchmarkE2": {"ns/op": 1000, "probes": 12, "minPairPerMin": 7.8},
	}))
	same := mustRead(t, writeArtifact(t, dir, "same.json", map[string]metrics{
		"BenchmarkE1": {"ns/op": 5000, "networks": 7},
		"BenchmarkE2": {"ns/op": 10, "probes": 12, "minPairPerMin": 7.8, "extra": 1},
	}))
	if n, bad := equalMetrics(base, same, nil); len(bad) != 0 || n != 3 {
		t.Fatalf("an exact reproduction with other ns/op: %d checked, %q", n, bad)
	}
	moved := mustRead(t, writeArtifact(t, dir, "moved.json", map[string]metrics{
		"BenchmarkE2": {"probes": 12, "minPairPerMin": 7.9},
	}))
	_, bad := equalMetrics(base, moved, nil)
	want := []string{"BenchmarkE1: missing", "BenchmarkE2 minPairPerMin = 7.9, want 7.8"}
	if strings.Join(bad, "\n") != strings.Join(want, "\n") {
		t.Fatalf("mismatches %q, want %q", bad, want)
	}
}

// benchFunc matches a top-level benchmark's declaration.
var benchFunc = regexp.MustCompile(`(?m)^func (Benchmark\w+)\(b \*testing\.B\)`)

// TestGateFile holds the committed bench-gates.json to the committed
// baselines, so a typo or a stale baseline fails here rather than only
// in CI: every root BENCH_*.json is some entry's baseline; an entry's
// pattern selects exactly the benchmarks its baseline holds; and every
// row passes with the baseline taken as the new artifact, which needs
// each max and ratio row to name a benchmark and metric the baseline
// has.
func TestGateFile(t *testing.T) {
	root := filepath.Join("..", "..")
	entries, err := loadGates(filepath.Join(root, gateFile))
	if err != nil {
		t.Fatal(err)
	}
	baselines := map[string]bool{}
	for _, e := range entries {
		if baselines[e.baseline()] {
			t.Errorf("entry %q appears twice", e.Name)
		}
		baselines[e.baseline()] = true
	}
	committed, err := filepath.Glob(filepath.Join(root, "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range committed {
		if name := filepath.Base(path); !strings.HasSuffix(name, "_new.json") && !baselines[name] {
			t.Errorf("%s is no entry's baseline", name)
		}
	}

	for _, e := range entries {
		basePath := filepath.Join(root, e.baseline())
		base, err := readArtifact(basePath)
		if err != nil {
			if len(e.Gates) > 0 {
				t.Errorf("%s: gated entry without a baseline: %v", e.Name, err)
			}
			continue
		}
		pattern, err := regexp.Compile(e.Bench)
		if err != nil {
			t.Errorf("%s: bench pattern: %v", e.Name, err)
			continue
		}
		recorded := map[string]bool{}
		for name := range base.Benchmarks {
			top, _, _ := strings.Cut(name, "/")
			recorded[top] = true
		}
		declared := map[string]bool{}
		for _, pkg := range e.Packages {
			files, _ := filepath.Glob(filepath.Join(root, pkg, "*_test.go"))
			for _, f := range files {
				src, err := os.ReadFile(f)
				if err != nil {
					t.Fatal(err)
				}
				for _, m := range benchFunc.FindAllStringSubmatch(string(src), -1) {
					if pattern.MatchString(m[1]) {
						declared[m[1]] = true
					}
				}
			}
		}
		for name := range declared {
			if !recorded[name] {
				t.Errorf("%s: %q selects %s, which %s does not hold", e.Name, e.Bench, name, e.baseline())
			}
		}
		for name := range recorded {
			if !declared[name] {
				t.Errorf("%s: %s holds %s, which %q does not select in %v", e.Name, e.baseline(), name, e.Bench, e.Packages)
			}
		}

		for _, g := range e.Gates {
			if row, fails := evaluate(g, basePath, base, nil); len(fails) > 0 {
				t.Errorf("%s %s %s fails on its own baseline: %q", e.Name, g.Kind, row, fails)
			}
		}
	}
}
