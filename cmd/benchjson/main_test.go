package main

import (
	"encoding/json"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeArtifact(t *testing.T, dir, name string, benches map[string]Entry) string {
	t.Helper()
	path := filepath.Join(dir, name)
	data, err := json.Marshal(Artifact{Command: "test", Benchmarks: benches})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareArtifactsGate(t *testing.T) {
	dir := t.TempDir()
	oldPath := writeArtifact(t, dir, "old.json", map[string]Entry{
		"BenchmarkA": {Metrics: map[string]float64{"ns/op": 1000}},
		"BenchmarkB": {Metrics: map[string]float64{"ns/op": 1000}},
		"BenchmarkC": {Metrics: map[string]float64{"ns/op": 1000}},
	})
	newPath := writeArtifact(t, dir, "new.json", map[string]Entry{
		"BenchmarkA": {Metrics: map[string]float64{"ns/op": 1200}}, // +20%: within 25%
		"BenchmarkB": {Metrics: map[string]float64{"ns/op": 1300}}, // +30%: regression
		"BenchmarkC": {Metrics: map[string]float64{"ns/op": 400}},  // improvement
		"BenchmarkD": {Metrics: map[string]float64{"ns/op": 50}},   // new, informational
	})
	report, regressed, err := compareArtifacts(oldPath, newPath, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if !regressed {
		t.Fatal("30% regression must trip the 25% gate")
	}
	for _, want := range []string{"REGRESSED", "BenchmarkB", "improved", "new      BenchmarkD"} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q:\n%s", want, report)
		}
	}
	if strings.Count(report, "REGRESSED") != 1 {
		t.Errorf("exactly one regression expected:\n%s", report)
	}
}

func TestCompareArtifactsWithinThreshold(t *testing.T) {
	dir := t.TempDir()
	oldPath := writeArtifact(t, dir, "old.json", map[string]Entry{
		"BenchmarkA": {Metrics: map[string]float64{"ns/op": 1000}},
	})
	newPath := writeArtifact(t, dir, "new.json", map[string]Entry{
		"BenchmarkA": {Metrics: map[string]float64{"ns/op": 1100}},
	})
	_, regressed, err := compareArtifacts(oldPath, newPath, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if regressed {
		t.Fatal("+10% must pass a 25% gate")
	}
}

func TestCompareArtifactsMissingBenchmark(t *testing.T) {
	dir := t.TempDir()
	oldPath := writeArtifact(t, dir, "old.json", map[string]Entry{
		"BenchmarkA": {Metrics: map[string]float64{"ns/op": 1000}},
		"BenchmarkB": {Metrics: map[string]float64{"ns/op": 1000}},
	})
	newPath := writeArtifact(t, dir, "new.json", map[string]Entry{
		"BenchmarkA": {Metrics: map[string]float64{"ns/op": 1000}},
	})
	report, regressed, err := compareArtifacts(oldPath, newPath, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if !regressed {
		t.Fatalf("a benchmark vanishing from the run must fail the gate:\n%s", report)
	}
	if !strings.Contains(report, "MISSING") {
		t.Errorf("report should flag the missing benchmark:\n%s", report)
	}
}

func TestCompareArtifactsMissingBaseline(t *testing.T) {
	dir := t.TempDir()
	newPath := writeArtifact(t, dir, "new.json", map[string]Entry{
		"BenchmarkA": {Metrics: map[string]float64{"ns/op": 1000}},
	})
	_, _, err := compareArtifacts(filepath.Join(dir, "absent.json"), newPath, 0.25)
	if err == nil {
		t.Fatal("missing baseline must error")
	}
	// main keys the "record a baseline first" hint off ErrNotExist; the
	// error must keep satisfying it through any wrapping.
	if !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing baseline error %v does not unwrap to os.ErrNotExist", err)
	}
	if !strings.Contains(err.Error(), "absent.json") {
		t.Fatalf("error should name the missing file: %v", err)
	}
}

// TestBaselineHintParses: the command the missing-baseline hint prints
// must be one this tool accepts, recording to the named file.
func TestBaselineHintParses(t *testing.T) {
	hint := baselineHint("BENCH_old.json")
	args, ok := strings.CutPrefix(hint, "go run ./cmd/benchjson ")
	if !ok {
		t.Fatalf("hint %q does not run this tool", hint)
	}
	var o options
	fs := newFlags(&o)
	fs.Init(fs.Name(), flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	if err := fs.Parse(strings.Fields(args)); err != nil {
		t.Fatalf("hint %q: %v", hint, err)
	}
	if o.out != "BENCH_old.json" || o.compare || len(fs.Args()) == 0 {
		t.Fatalf("hint %q records to %q (compare=%v, packages %v)", hint, o.out, o.compare, fs.Args())
	}
}

func TestScrubCompareArgs(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want float64
	}{
		{[]string{"old.json", "new.json", "-threshold", "0.5"}, 0.5},
		{[]string{"old.json", "new.json", "-threshold=0.3"}, 0.3},
		{[]string{"old.json", "new.json", "--threshold=0.4"}, 0.4},
		{[]string{"old.json", "new.json"}, 0.25},
	} {
		threshold := 0.25
		files, err := scrubCompareArgs(tc.args, &threshold)
		if err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		if len(files) != 2 || files[0] != "old.json" || files[1] != "new.json" {
			t.Fatalf("%v: files %v", tc.args, files)
		}
		if threshold != tc.want {
			t.Fatalf("%v: threshold %v want %v", tc.args, threshold, tc.want)
		}
	}
	if _, err := scrubCompareArgs([]string{"a", "b", "-threshold=bogus"}, new(float64)); err == nil {
		t.Fatal("bogus threshold should error")
	}
}

func TestArtifactRatio(t *testing.T) {
	dir := t.TempDir()
	path := writeArtifact(t, dir, "art.json", map[string]Entry{
		"BenchmarkNaive": {Metrics: map[string]float64{"ns/op": 5000}},
		"BenchmarkFast":  {Metrics: map[string]float64{"ns/op": 100}},
	})
	ratio, err := artifactRatio(path, "BenchmarkNaive", "BenchmarkFast", "ns/op")
	if err != nil {
		t.Fatal(err)
	}
	if ratio != 50 {
		t.Fatalf("ratio %v want 50", ratio)
	}
	if _, err := artifactRatio(path, "BenchmarkMissing", "BenchmarkFast", "ns/op"); err == nil {
		t.Fatal("missing benchmark should error")
	}
}

func TestArtifactRatioCustomMetric(t *testing.T) {
	dir := t.TempDir()
	path := writeArtifact(t, dir, "art.json", map[string]Entry{
		// The vclock-simulation shape: wall-clock ns/op flat across the
		// sweep, the scaling story in a virtual-time custom metric.
		"BenchmarkScale/n=3": {Metrics: map[string]float64{"ns/op": 1000, "queries/s": 9000}},
		"BenchmarkScale/n=1": {Metrics: map[string]float64{"ns/op": 1000, "queries/s": 3000}},
	})
	ratio, err := artifactRatio(path, "BenchmarkScale/n=3", "BenchmarkScale/n=1", "queries/s")
	if err != nil {
		t.Fatal(err)
	}
	if ratio != 3 {
		t.Fatalf("ratio %v want 3", ratio)
	}
	if _, err := artifactRatio(path, "BenchmarkScale/n=3", "BenchmarkScale/n=1", "p99-ms"); err == nil {
		t.Fatal("absent metric should error")
	}
}

func TestCompareGatesOnMemRegression(t *testing.T) {
	dir := t.TempDir()
	oldPath := writeArtifact(t, dir, "old.json", map[string]Entry{
		"BenchmarkX": {Metrics: map[string]float64{"ns/op": 1000, "B/op": 100, "allocs/op": 3}},
	})
	newPath := writeArtifact(t, dir, "new.json", map[string]Entry{
		"BenchmarkX": {Metrics: map[string]float64{"ns/op": 1000, "B/op": 300, "allocs/op": 3}},
	})
	report, regressed, err := compareArtifacts(oldPath, newPath, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if !regressed {
		t.Fatalf("3x B/op growth must trip the 25%% gate even with flat ns/op:\n%s", report)
	}
	if !strings.Contains(report, "B/op") || !strings.Contains(report, "REGRESSED") {
		t.Errorf("report does not call out the B/op regression:\n%s", report)
	}
}

func TestCompareGatesOnAllocRegressionFromZero(t *testing.T) {
	dir := t.TempDir()
	oldPath := writeArtifact(t, dir, "old.json", map[string]Entry{
		"BenchmarkX": {Metrics: map[string]float64{"ns/op": 1000, "allocs/op": 0}},
	})
	newPath := writeArtifact(t, dir, "new.json", map[string]Entry{
		"BenchmarkX": {Metrics: map[string]float64{"ns/op": 1000, "allocs/op": 2}},
	})
	_, regressed, err := compareArtifacts(oldPath, newPath, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if !regressed {
		t.Fatal("losing a zero-alloc baseline must fail the gate")
	}
}

func TestComparePassesOnMemImprovement(t *testing.T) {
	dir := t.TempDir()
	oldPath := writeArtifact(t, dir, "old.json", map[string]Entry{
		"BenchmarkX": {Metrics: map[string]float64{"ns/op": 1000, "B/op": 4096, "allocs/op": 40}},
	})
	newPath := writeArtifact(t, dir, "new.json", map[string]Entry{
		"BenchmarkX": {Metrics: map[string]float64{"ns/op": 990, "B/op": 512, "allocs/op": 6}},
	})
	report, regressed, err := compareArtifacts(oldPath, newPath, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if regressed {
		t.Fatalf("a memory improvement must pass the gate:\n%s", report)
	}
	if !strings.Contains(report, "improved") {
		t.Errorf("report does not note the improvement:\n%s", report)
	}
}

func TestCompareSkipsMemWhenBaselineLacksIt(t *testing.T) {
	// A baseline recorded before -benchmem must not fail every new run
	// that measures memory.
	dir := t.TempDir()
	oldPath := writeArtifact(t, dir, "old.json", map[string]Entry{
		"BenchmarkX": {Metrics: map[string]float64{"ns/op": 1000}},
	})
	newPath := writeArtifact(t, dir, "new.json", map[string]Entry{
		"BenchmarkX": {Metrics: map[string]float64{"ns/op": 1000, "B/op": 1 << 20, "allocs/op": 999}},
	})
	report, regressed, err := compareArtifacts(oldPath, newPath, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if regressed {
		t.Fatalf("memory metrics absent from the baseline must not gate:\n%s", report)
	}
}

func TestParseBenchOutputMemMetrics(t *testing.T) {
	out := `goos: linux
pkg: nwsenv/internal/simnet
BenchmarkScaleGridTransfers/hosts=100-8         	     120	    912345 ns/op	    2048 B/op	      31 allocs/op	      7.000 settles
PASS
`
	art := Artifact{Benchmarks: map[string]Entry{}}
	parseBenchOutput(&art, out)
	e, ok := art.Benchmarks["BenchmarkScaleGridTransfers/hosts=100"]
	if !ok {
		t.Fatalf("benchmark not parsed: %+v", art.Benchmarks)
	}
	want := map[string]float64{"ns/op": 912345, "B/op": 2048, "allocs/op": 31, "settles": 7}
	for unit, v := range want {
		if e.Metrics[unit] != v {
			t.Errorf("metric %s = %g, want %g", unit, e.Metrics[unit], v)
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
	art := Artifact{Benchmarks: map[string]Entry{}}
	parseBenchOutput(&art, out)
	e, ok := art.Benchmarks["BenchmarkScaleGridTransfers/hosts=1000"]
	if !ok {
		t.Fatalf("sub-benchmark name not parsed: %v", art.Benchmarks)
	}
	if e.Metrics["ns/op"] != 16208686 || e.Metrics["hosts"] != 1000 || e.Metrics["ns/xfer"] != 8103 {
		t.Fatalf("metrics: %+v", e.Metrics)
	}
	if e.Package != "nwsenv" {
		t.Fatalf("package: %q", e.Package)
	}
}
