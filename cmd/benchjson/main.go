// Command benchjson records the repo's benchmark artifacts and checks
// the gates they must pass. Both are declared once, in bench-gates.json
// at the repo root: one entry per artifact, naming the `go test -bench`
// pattern, -benchtime and packages that record it, and its gate rows.
// Run from the repo root:
//
//	benchjson              # every entry
//	benchjson scale query  # the named entries
//
// Entry <name> runs `go test -run '^$' -benchmem` and writes every
// benchmark's ns/op, B/op, allocs/op and custom b.ReportMetric values
// to BENCH_<name>_new.json. Its committed baseline is BENCH_<name>.json.
// Once every named entry has run, benchjson evaluates every row of
// them, prints one line per row (what it measured, the bound, the
// verdict), and exits 1 if any recording or row failed. It takes no
// flags. A row is one of four kinds:
//
//	max      bench's metric <= bound (machine-independent for allocs/op, B/op)
//	ratio    num's metric / den's metric >= bound, within one run
//	equal    every custom metric of the baseline (or only the named
//	         metrics) reproduced exactly (virtual-time results are
//	         deterministic)
//	compare  no baseline benchmark missing, and its ns/op, B/op and
//	         allocs/op at most bound (a fraction) above the baseline's
//
// Each row carries a why string saying what it guards.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// gateFile is the declaration benchjson reads, relative to the working
// directory.
const gateFile = "bench-gates.json"

// Entry is one artifact of the gate file.
type Entry struct {
	Name      string   `json:"name"`
	Why       string   `json:"why"`
	Bench     string   `json:"bench"`
	Benchtime string   `json:"benchtime"`
	Packages  []string `json:"packages"`
	Gates     []Gate   `json:"gates"`
}

// Gate is one row. Kind says which other fields it reads: max reads
// Bench, Metric and Bound; ratio Num, Den, Metric and Bound; compare
// Bound; equal Metrics, if set.
type Gate struct {
	Kind    string   `json:"kind"`
	Bench   string   `json:"bench,omitempty"`
	Num     string   `json:"num,omitempty"`
	Den     string   `json:"den,omitempty"`
	Metric  string   `json:"metric,omitempty"`
	Metrics []string `json:"metrics,omitempty"`
	Bound   float64  `json:"bound,omitempty"`
	Why     string   `json:"why"`
}

func (e Entry) baseline() string { return "BENCH_" + e.Name + ".json" }
func (e Entry) output() string   { return "BENCH_" + e.Name + "_new.json" }

// Result is one benchmark's parsed result.
type Result struct {
	Package    string `json:"package"`
	Iterations int64  `json:"iterations"`
	// Metrics maps unit → value: "ns/op", "B/op", "allocs/op", plus any
	// custom b.ReportMetric units ("hosts", "redeploy-fraction", ...).
	Metrics map[string]float64 `json:"metrics"`
}

// Artifact is the emitted document.
type Artifact struct {
	// Command echoes the go test invocation for reproducibility.
	Command    string            `json:"command"`
	Benchmarks map[string]Result `json:"benchmarks"`
}

// benchLine matches "BenchmarkName-8   	  10   123456 ns/op  3.00 widgets ...".
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+(.*)$`)

func main() {
	entries, err := loadGates(gateFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(2)
	}
	if names := os.Args[1:]; len(names) > 0 {
		var picked []Entry
		for _, name := range names {
			i := slices.IndexFunc(entries, func(e Entry) bool { return e.Name == name })
			if i < 0 {
				var known []string
				for _, e := range entries {
					known = append(known, e.Name)
				}
				fmt.Fprintf(os.Stderr, "benchjson: no entry %q in %s (entries: %s)\n", name, gateFile, strings.Join(known, " "))
				os.Exit(2)
			}
			picked = append(picked, entries[i])
		}
		entries = picked
	}
	if !run(entries, record, os.Stdout) {
		os.Exit(1)
	}
}

// run records every entry with rec, then evaluates every row of every
// entry, printing one line per failed recording and per row to w. It
// reports whether every recording and every row passed; a failed
// recording fails the run even for an entry without rows.
func run(entries []Entry, rec func(Entry) error, w io.Writer) (ok bool) {
	ok = true
	for _, e := range entries {
		// A failed run leaves no artifact, so its rows fail below too.
		if err := rec(e); err != nil {
			fmt.Fprintf(w, "FAIL %-9s %-7s %v\n", e.Name, "record", err)
			ok = false
		}
	}
	for _, e := range entries {
		cur, err := readArtifact(e.output())
		for _, g := range e.Gates {
			row, fails := evaluate(g, e.baseline(), cur, err)
			verdict := "ok"
			if len(fails) > 0 {
				verdict, ok = "FAIL", false
			}
			fmt.Fprintf(w, "%-4s %-9s %-7s %s\n", verdict, e.Name, g.Kind, row)
			for _, f := range fails {
				fmt.Fprintf(w, "     %s\n", f)
			}
		}
	}
	return ok
}

// loadGates reads the gate file, refusing unknown fields so a
// misspelt key fails instead of leaving a row unchecked.
func loadGates(path string) ([]Entry, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var entries []Entry
	if err := dec.Decode(&entries); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	for _, e := range entries {
		for i, g := range e.Gates {
			if err := g.check(); err != nil {
				return nil, fmt.Errorf("%s: entry %q row %d: %w", path, e.Name, i, err)
			}
		}
	}
	return entries, nil
}

// check refuses a row that leaves out a field its kind reads, so an
// omitted key fails instead of decoding as a zero that always passes.
// A max row's bound may be 0: a zero ceiling is the strictest one.
func (g Gate) check() error {
	var missing []string
	need := func(field string, set bool) {
		if !set {
			missing = append(missing, field)
		}
	}
	switch g.Kind {
	case "max":
		need("bench", g.Bench != "")
		need("metric", g.Metric != "")
	case "ratio":
		need("num", g.Num != "")
		need("den", g.Den != "")
		need("metric", g.Metric != "")
		need("a positive bound", g.Bound > 0)
	case "compare":
		need("a positive bound", g.Bound > 0)
	case "equal":
	default:
		return fmt.Errorf("unknown gate kind %q", g.Kind)
	}
	need("why", g.Why != "")
	if len(missing) > 0 {
		return fmt.Errorf("%s row lacks %s", g.Kind, strings.Join(missing, ", "))
	}
	return nil
}

// record runs entry e's benchmarks and writes its artifact.
func record(e Entry) error {
	// Gone before the run, so a failed run leaves no stale artifact for
	// the rows to read; a missing file is fine.
	_ = os.Remove(e.output())
	args := append([]string{"test", "-run", "^$", "-bench", e.Bench, "-benchtime", e.Benchtime, "-benchmem"}, e.Packages...)
	cmd := exec.Command("go", args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		os.Stderr.Write(stdout.Bytes())
		return fmt.Errorf("go test: %w", err)
	}
	art := Artifact{Command: "go " + strings.Join(args, " "), Benchmarks: map[string]Result{}}
	parseBenchOutput(&art, stdout.String())
	if len(art.Benchmarks) == 0 {
		os.Stderr.Write(stdout.Bytes())
		return fmt.Errorf("no benchmarks matched %q in %v", e.Bench, e.Packages)
	}
	data, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(e.output(), append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("benchjson: %d benchmark(s) -> %s\n", len(art.Benchmarks), e.output())
	return nil
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
		r := Result{Package: pkg, Iterations: iters, Metrics: map[string]float64{}}
		// The tail is tab-separated "value unit" pairs.
		fields := strings.Fields(m[3])
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			r.Metrics[fields[i+1]] = v
		}
		art.Benchmarks[m[1]] = r
	}
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

// num formats a metric value in full, never in exponent form.
func num(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }

// metric returns one benchmark's value of one metric.
func (a *Artifact) metric(bench, unit string) (float64, error) {
	r, ok := a.Benchmarks[bench]
	if !ok {
		return 0, fmt.Errorf("benchmark %q not in the artifact", bench)
	}
	v, ok := r.Metrics[unit]
	if !ok {
		return 0, fmt.Errorf("%s has no metric %q", bench, unit)
	}
	return v, nil
}

// evaluate checks row g against the new artifact cur, which could not
// be read if curErr is set, and for equal and compare against the
// baseline at basePath. It returns the row with its bound and what it
// measured, and why it failed if it did.
func evaluate(g Gate, basePath string, cur *Artifact, curErr error) (row string, fails []string) {
	switch g.Kind {
	case "max":
		row = fmt.Sprintf("%s %s <= %s", g.Bench, g.Metric, num(g.Bound))
	case "ratio":
		row = fmt.Sprintf("%s / %s %s >= %sx", g.Num, g.Den, g.Metric, num(g.Bound))
	case "equal":
		row = "custom metrics == " + basePath
		if len(g.Metrics) > 0 {
			row = strings.Join(g.Metrics, ", ") + " == " + basePath
		}
	case "compare":
		row = fmt.Sprintf("ns/op, B/op, allocs/op <= +%.0f%% of %s", g.Bound*100, basePath)
	default:
		return "", []string{fmt.Sprintf("unknown gate kind %q", g.Kind)}
	}
	if curErr != nil {
		return row, []string{curErr.Error()}
	}
	switch g.Kind {
	case "max":
		v, err := cur.metric(g.Bench, g.Metric)
		if err != nil {
			return row, []string{err.Error()}
		}
		if v > g.Bound {
			fails = []string{num(v) + " exceeds the ceiling"}
		}
		return row + ": " + num(v), fails
	case "ratio":
		n, err := cur.metric(g.Num, g.Metric)
		if err != nil {
			return row, []string{err.Error()}
		}
		d, err := cur.metric(g.Den, g.Metric)
		if err != nil {
			return row, []string{err.Error()}
		}
		if n <= 0 || d <= 0 {
			return row, []string{fmt.Sprintf("needs positive values, got %s / %s", num(n), num(d))}
		}
		if n/d < g.Bound {
			fails = []string{fmt.Sprintf("%.2fx is below the minimum", n/d)}
		}
		return fmt.Sprintf("%s: %.2fx", row, n/d), fails
	}
	base, err := readArtifact(basePath)
	if err != nil {
		return row, []string{"baseline: " + err.Error()}
	}
	if g.Kind == "equal" {
		n, fails := equalMetrics(base, cur, g.Metrics)
		return fmt.Sprintf("%s: %d metric(s) checked", row, n), fails
	}
	n, fails := compareArtifacts(base, cur, g.Bound)
	return fmt.Sprintf("%s: %d benchmark(s) compared", row, n), fails
}

// equalMetrics checks that cur carries every custom metric of every
// benchmark in base with exactly the same value, only the units in
// only when it is not empty, and returns how many it checked and every
// missing benchmark, missing metric and mismatch. A unit of only that
// no baseline benchmark has fails too: it would check nothing.
func equalMetrics(base, cur *Artifact, only []string) (n int, bad []string) {
	checked := map[string]bool{}
	for name, br := range base.Benchmarks {
		cr, ok := cur.Benchmarks[name]
		if !ok {
			bad = append(bad, name+": missing")
			continue
		}
		for unit, want := range br.Metrics {
			switch {
			case unit == "ns/op" || unit == "B/op" || unit == "allocs/op":
				continue
			case len(only) > 0 && !slices.Contains(only, unit):
				continue
			}
			n++
			checked[unit] = true
			if got, ok := cr.Metrics[unit]; !ok {
				bad = append(bad, fmt.Sprintf("%s %s: missing (want %s)", name, unit, num(want)))
			} else if got != want {
				bad = append(bad, fmt.Sprintf("%s %s = %s, want %s", name, unit, num(got), num(want)))
			}
		}
	}
	for _, unit := range only {
		if !checked[unit] {
			bad = append(bad, unit+": in no baseline benchmark")
		}
	}
	sort.Strings(bad)
	return n, bad
}

// compareArtifacts checks every benchmark of base against cur: it must
// still be there, and its ns/op, B/op and allocs/op may grow by at most
// the threshold fraction. It returns how many benchmarks it compared
// and every regression and missing benchmark. A benchmark without ns/op
// on both sides is skipped; a memory metric is compared only when both
// sides have it (a baseline recorded without -benchmem gates on time
// alone), and a zero baseline allows no growth at all.
func compareArtifacts(base, cur *Artifact, threshold float64) (n int, bad []string) {
	for name, old := range base.Benchmarks {
		now, ok := cur.Benchmarks[name]
		if !ok {
			bad = append(bad, name+": missing from the new run")
			continue
		}
		if v, ok := old.Metrics["ns/op"]; !ok || v <= 0 {
			continue
		}
		if _, ok := now.Metrics["ns/op"]; !ok {
			continue
		}
		n++
		for _, unit := range []string{"ns/op", "B/op", "allocs/op"} {
			was, okOld := old.Metrics[unit]
			is, okNew := now.Metrics[unit]
			if !okOld || !okNew || is <= was {
				continue
			}
			frac := math.Inf(1) // from zero
			if was > 0 {
				frac = is/was - 1
			}
			if frac > threshold {
				bad = append(bad, fmt.Sprintf("%s %s %s -> %s (%+.1f%%)", name, unit, num(was), num(is), frac*100))
			}
		}
	}
	sort.Strings(bad)
	return n, bad
}
