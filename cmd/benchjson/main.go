// Command benchjson runs `go test -bench` and emits a machine-readable
// JSON artifact — benchmark name → ns/op, allocs and every custom
// b.ReportMetric value — so CI can archive the bench trajectory of the
// repo instead of letting the numbers scroll away in logs.
//
//	benchjson -bench 'Reconcile' -out BENCH_reconcile.json ./internal/reconcile/
//	benchjson -bench . -benchtime 1x -out BENCH_all.json ./...
//
// With -compare it instead diffs two artifacts and exits non-zero when
// any benchmark's ns/op regressed by more than -threshold (default
// 0.25 = 25%), which is the CI regression gate for the committed
// BENCH_*.json baselines:
//
//	benchjson -compare old.json new.json -threshold 0.25
//
// With -ratio-min it asserts a same-run ratio between two benchmarks
// of one artifact — machine-independent, the CI gate for "incremental
// engine ≥ N× faster than the naive reference":
//
//	benchjson -ratio-num 'BenchmarkScaleGridTransfersNaive/hosts=1000' \
//	          -ratio-den 'BenchmarkScaleGridTransfers/hosts=1000' \
//	          -ratio-min 10 BENCH_scale.json
//
// The ratio defaults to ns/op; -ratio-metric gates on any custom
// b.ReportMetric unit instead — required when the benchmark's story
// lives in virtual time (a vclock simulation's wall-clock ns/op barely
// moves while its virtual-time throughput scales):
//
//	benchjson -ratio-num 'BenchmarkGatewayScale/gw=3' \
//	          -ratio-den 'BenchmarkGatewayScale/gw=1' \
//	          -ratio-metric 'queries/s' -ratio-min 2 BENCH_gateway.json
//
// With -assert-max it asserts absolute per-benchmark metric ceilings
// on one artifact. Machine-independent for deterministic metrics like
// allocs/op — the CI gate for "the batch path stays within N allocs":
//
//	benchjson -assert-max 'BenchmarkQueryBatch/hosts=500:allocs/op<=170' BENCH_query.json
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Entry is one benchmark's parsed result.
type Entry struct {
	Package    string `json:"package"`
	Iterations int64  `json:"iterations"`
	// Metrics maps unit → value: "ns/op", "B/op", "allocs/op", plus any
	// custom b.ReportMetric units ("hosts", "redeploy-fraction", ...).
	Metrics map[string]float64 `json:"metrics"`
}

// Artifact is the emitted document.
type Artifact struct {
	// Command echoes the go test invocation for reproducibility.
	Command    string           `json:"command"`
	Benchmarks map[string]Entry `json:"benchmarks"`
}

// benchLine matches "BenchmarkName-8   	  10   123456 ns/op  3.00 widgets ...".
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+(.*)$`)

// options holds the command line.
type options struct {
	out, bench, benchtime  string
	benchmem, compare      bool
	threshold, ratioMin    float64
	ratioNum, ratioDen     string
	ratioMetric, assertMax string
}

// newFlags defines the tool's flags on a fresh flag set filling o.
func newFlags(o *options) *flag.FlagSet {
	fs := flag.NewFlagSet("benchjson", flag.ExitOnError)
	fs.StringVar(&o.out, "out", "BENCH_reconcile.json", "output JSON file")
	fs.StringVar(&o.bench, "bench", ".", "benchmark pattern (go test -bench)")
	fs.StringVar(&o.benchtime, "benchtime", "1x", "per-benchmark budget (go test -benchtime)")
	fs.BoolVar(&o.benchmem, "benchmem", true, "include allocation metrics")
	fs.BoolVar(&o.compare, "compare", false, "compare two artifacts (old.json new.json) instead of running benchmarks")
	fs.Float64Var(&o.threshold, "threshold", 0.25, "allowed ns/op regression fraction in -compare mode")
	fs.StringVar(&o.ratioNum, "ratio-num", "", "numerator benchmark name for the -ratio-min assertion on one artifact")
	fs.StringVar(&o.ratioDen, "ratio-den", "", "denominator benchmark name for the -ratio-min assertion")
	fs.Float64Var(&o.ratioMin, "ratio-min", 0, "minimum ratio num/den; non-zero enables the assertion")
	fs.StringVar(&o.ratioMetric, "ratio-metric", "ns/op", "metric key the -ratio-min assertion compares")
	fs.StringVar(&o.assertMax, "assert-max", "", "comma-separated absolute ceilings 'bench:metric<=value' asserted on one artifact")
	return fs
}

// baselineHint is the command that records a missing -compare baseline.
func baselineHint(old string) string {
	return "go run ./cmd/benchjson -out " + old + " ./..."
}

func main() {
	var o options
	fs := newFlags(&o)
	fs.Parse(os.Args[1:])
	args := fs.Args()

	if o.ratioMin > 0 {
		// Same-run ratio assertion: machine-independent, unlike the
		// absolute ns/op gate of -compare.
		if len(args) != 1 || o.ratioNum == "" || o.ratioDen == "" {
			fmt.Fprintln(os.Stderr, "benchjson: -ratio-min needs -ratio-num, -ratio-den and one artifact file")
			os.Exit(2)
		}
		ratio, err := artifactRatio(args[0], o.ratioNum, o.ratioDen, o.ratioMetric)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		fmt.Printf("benchjson: %s / %s = %.1fx on %s (minimum %.1fx)\n", o.ratioNum, o.ratioDen, ratio, o.ratioMetric, o.ratioMin)
		if ratio < o.ratioMin {
			fmt.Fprintf(os.Stderr, "benchjson: ratio %.2f below required %.2f\n", ratio, o.ratioMin)
			os.Exit(1)
		}
		return
	}

	if o.assertMax != "" {
		if len(args) != 1 {
			fmt.Fprintln(os.Stderr, "benchjson: -assert-max needs one artifact file")
			os.Exit(2)
		}
		if err := assertCeilings(args[0], o.assertMax); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		return
	}

	if o.compare {
		files, err := scrubCompareArgs(args, &o.threshold)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(2)
		}
		if len(files) != 2 {
			fmt.Fprintln(os.Stderr, "benchjson: -compare needs exactly two artifact files (old new)")
			os.Exit(2)
		}
		report, regressed, err := compareArtifacts(files[0], files[1], o.threshold)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			if os.IsNotExist(err) || errors.Is(err, os.ErrNotExist) {
				fmt.Fprintf(os.Stderr, "benchjson: no baseline yet? record one first:\n")
				fmt.Fprintf(os.Stderr, "benchjson:   %s\n", baselineHint(files[0]))
				fmt.Fprintf(os.Stderr, "benchjson: then re-run -compare against a fresh artifact\n")
			}
			os.Exit(1)
		}
		fmt.Print(report)
		if regressed {
			os.Exit(1)
		}
		return
	}

	if len(args) == 0 {
		args = []string{"./..."}
	}
	runBenchmarks(o.out, o.bench, o.benchtime, o.benchmem, args)
}

func runBenchmarks(out, bench, benchtime string, benchmem bool, pkgs []string) {
	args := []string{"test", "-run", "^$", "-bench", bench, "-benchtime", benchtime}
	if benchmem {
		args = append(args, "-benchmem")
	}
	args = append(args, pkgs...)
	cmd := exec.Command("go", args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		os.Stderr.Write(stdout.Bytes())
		fmt.Fprintln(os.Stderr, "benchjson: go test:", err)
		os.Exit(1)
	}

	art := Artifact{
		Command:    "go " + strings.Join(args, " "),
		Benchmarks: map[string]Entry{},
	}
	parseBenchOutput(&art, stdout.String())
	if len(art.Benchmarks) == 0 {
		fmt.Fprintf(os.Stderr, "benchjson: no benchmarks matched %q in %v\n%s", bench, pkgs, stdout.String())
		os.Exit(1)
	}

	data, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Printf("benchjson: %d benchmark(s) -> %s\n", len(art.Benchmarks), out)
}

// parseBenchOutput fills art.Benchmarks from `go test -bench` output.
func parseBenchOutput(art *Artifact, output string) {
	pkg := ""
	for _, line := range strings.Split(output, "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "pkg: "); ok {
			pkg = rest
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		iters, _ := strconv.ParseInt(m[2], 10, 64)
		entry := Entry{Package: pkg, Iterations: iters, Metrics: map[string]float64{}}
		// The tail is tab-separated "value unit" pairs.
		fields := strings.Fields(m[3])
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			entry.Metrics[fields[i+1]] = v
		}
		art.Benchmarks[m[1]] = entry
	}
}

// scrubCompareArgs tolerates trailing flags after the positional files
// (`-compare old.json new.json -threshold 0.25` or `-threshold=0.25`):
// the flag package stops at the first positional argument.
func scrubCompareArgs(args []string, threshold *float64) ([]string, error) {
	var files []string
	parse := func(s string) error {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return fmt.Errorf("bad -threshold %q", s)
		}
		*threshold = v
		return nil
	}
	for i := 0; i < len(args); i++ {
		a := args[i]
		switch {
		case a == "-threshold" || a == "--threshold":
			if i+1 >= len(args) {
				return nil, fmt.Errorf("%s needs a value", a)
			}
			if err := parse(args[i+1]); err != nil {
				return nil, err
			}
			i++
		case strings.HasPrefix(a, "-threshold=") || strings.HasPrefix(a, "--threshold="):
			if err := parse(a[strings.Index(a, "=")+1:]); err != nil {
				return nil, err
			}
		default:
			files = append(files, a)
		}
	}
	return files, nil
}

// artifactRatio returns metric(num) / metric(den) from one artifact.
// assertCeilings parses 'bench:metric<=value' clauses and checks each
// against the artifact, reporting every measured value as it goes.
func assertCeilings(path, spec string) error {
	art, err := readArtifact(path)
	if err != nil {
		return err
	}
	for _, clause := range strings.Split(spec, ",") {
		clause = strings.TrimSpace(clause)
		name, rest, ok := strings.Cut(clause, ":")
		if !ok {
			return fmt.Errorf("-assert-max clause %q: want 'bench:metric<=value'", clause)
		}
		metric, lim, ok := strings.Cut(rest, "<=")
		if !ok {
			return fmt.Errorf("-assert-max clause %q: want 'bench:metric<=value'", clause)
		}
		max, err := strconv.ParseFloat(strings.TrimSpace(lim), 64)
		if err != nil {
			return fmt.Errorf("-assert-max clause %q: bad ceiling: %v", clause, err)
		}
		e, found := art.Benchmarks[name]
		if !found {
			return fmt.Errorf("-assert-max: benchmark %q not in %s", name, path)
		}
		v, found := e.Metrics[strings.TrimSpace(metric)]
		if !found {
			return fmt.Errorf("-assert-max: %s has no metric %q", name, metric)
		}
		fmt.Printf("benchjson: %s %s = %g (ceiling %g)\n", name, strings.TrimSpace(metric), v, max)
		if v > max {
			return fmt.Errorf("%s %s = %g exceeds ceiling %g", name, strings.TrimSpace(metric), v, max)
		}
	}
	return nil
}

func artifactRatio(path, num, den, metric string) (float64, error) {
	art, err := readArtifact(path)
	if err != nil {
		return 0, err
	}
	var vals [2]float64
	for i, name := range []string{num, den} {
		e, ok := art.Benchmarks[name]
		if !ok {
			return 0, fmt.Errorf("%s: benchmark %q not in artifact", path, name)
		}
		v, ok := e.Metrics[metric]
		if !ok || v <= 0 {
			return 0, fmt.Errorf("%s: benchmark %q has no positive %s", path, name, metric)
		}
		vals[i] = v
	}
	return vals[0] / vals[1], nil
}

func readArtifact(path string) (*Artifact, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var art Artifact
	if err := json.Unmarshal(data, &art); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &art, nil
}

// compareArtifacts diffs the ns/op of every benchmark present in the old
// artifact against the new one. It reports regressions beyond the
// threshold fraction and benchmarks that disappeared; both fail the
// gate. New-only benchmarks are informational.
func compareArtifacts(oldPath, newPath string, threshold float64) (report string, regressed bool, err error) {
	oldArt, err := readArtifact(oldPath)
	if err != nil {
		return "", false, err
	}
	newArt, err := readArtifact(newPath)
	if err != nil {
		return "", false, err
	}
	var b strings.Builder
	names := make([]string, 0, len(oldArt.Benchmarks))
	for name := range oldArt.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(&b, "benchjson: comparing %s -> %s (threshold %.0f%%)\n", oldPath, newPath, threshold*100)
	for _, name := range names {
		oldE := oldArt.Benchmarks[name]
		newE, ok := newArt.Benchmarks[name]
		if !ok {
			fmt.Fprintf(&b, "  MISSING  %-50s (present in baseline, absent in new run)\n", name)
			regressed = true
			continue
		}
		oldNs, okOld := oldE.Metrics["ns/op"]
		newNs, okNew := newE.Metrics["ns/op"]
		if !okOld || !okNew || oldNs <= 0 {
			fmt.Fprintf(&b, "  SKIP     %-50s (no ns/op to compare)\n", name)
			continue
		}
		ratio := newNs/oldNs - 1
		verdict := "ok"
		if ratio > threshold {
			verdict = "REGRESSED"
			regressed = true
		} else if ratio < -threshold {
			verdict = "improved"
		}
		fmt.Fprintf(&b, "  %-10s %-50s %14.0f -> %14.0f ns/op (%+.1f%%)\n",
			verdict, name, oldNs, newNs, ratio*100)
		// Memory gates apply only when both runs recorded the metric:
		// a baseline predating -benchmem must not fail every comparison.
		for _, unit := range []string{"B/op", "allocs/op"} {
			oldV, okOld := oldE.Metrics[unit]
			newV, okNew := newE.Metrics[unit]
			if !okOld || !okNew {
				continue
			}
			var frac float64
			switch {
			case oldV > 0:
				frac = newV/oldV - 1
			case newV > 0:
				// Zero-alloc baseline lost: unbounded regression.
				frac = math.Inf(1)
			default:
				continue
			}
			verdict := "ok"
			delta := fmt.Sprintf("%+.1f%%", frac*100)
			if math.IsInf(frac, 1) {
				delta = "from zero"
			}
			if frac > threshold {
				verdict = "REGRESSED"
				regressed = true
			} else if frac < -threshold {
				verdict = "improved"
			}
			fmt.Fprintf(&b, "  %-10s %-50s %14.0f -> %14.0f %s (%s)\n",
				verdict, name, oldV, newV, unit, delta)
		}
	}
	for name := range newArt.Benchmarks {
		if _, ok := oldArt.Benchmarks[name]; !ok {
			fmt.Fprintf(&b, "  new      %-50s (no baseline yet)\n", name)
		}
	}
	return b.String(), regressed, nil
}
