// Command bench is the repository's one benchmark: three closed-loop
// workloads on loopback TCP, an open-loop storm on the virtual clock and
// the deploy-to-repair lifecycle, each run untraced for the end-to-end
// numbers and traced for the per-layer ledger. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"

	"nwsenv/internal/scenlab"
)

// params is what one pass of a workload is run with. The seed is the only
// input that changes the generated load.
type params struct {
	seed    int64
	seconds float64 // measured window (tcp_*), host-time budget of the repetitions (sim_*)
	traced  bool
	setups  int     // set-ups measured; setup_s is their median
	refRate float64 // traced pass: the untraced work_per_s that trace_overhead_pct compares with
}

func runWorkload(name string, p params) (*result, error) {
	// Start every pass from a collected heap, so that passes sharing a
	// process measure what a pass alone in its process measures.
	debug.FreeOSMemory()
	switch name {
	case "sim_storm":
		return runStorm(p)
	case "sim_lifecycle":
		spec, err := scenlab.Decode(lifecycleJSON)
		if err != nil {
			return nil, err
		}
		return runLifecycle(spec, p)
	}
	if _, ok := tcpWorkloads[name]; ok {
		return runTCP(name, p)
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func main() {
	var (
		workload = flag.String("workload", "", "run one workload (default: all five)")
		seed     = flag.Int64("seed", 42, "seed of the generated load: series names and values, request permutations, topology and fault schedule")
		seconds  = flag.Float64("seconds", 10, "measured seconds per pass")
		trace    = flag.Int("trace", -1, "0: untraced pass only (end-to-end metrics); 1: traced pass only (per-layer metrics); default both")
		agree    = flag.Bool("agree", false, "run the untraced pass twice and compare the two against the bounds")
		outDir   = flag.String("out", "bench/out", "directory for results.json, trace.jsonl and budget.md")
	)
	flag.Parse()
	names := []string{*workload}
	if *workload == "" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.Name)
		}
	}
	var err error
	ok := false
	switch {
	case flag.NArg() > 0:
		err = fmt.Errorf("unexpected argument %q", flag.Arg(0))
	case *seconds <= 0 || *trace < -1 || *trace > 1:
		err = fmt.Errorf("-seconds must be positive and -trace one of 0, 1")
	case *agree:
		ok, err = runAgree(os.Stdout, names, *seed, *seconds)
	default:
		ok, err = runLedger(os.Stdout, names, *seed, *seconds, *trace, *outDir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	if !ok {
		os.Exit(1)
	}
}

// ledger is results.json.
type ledger struct {
	Provenance provenance    `json:"provenance"`
	Runs       []*result     `json:"runs"`
	Budgets    []budgetTable `json:"budgets,omitempty"`
}

// runLedger runs the selected passes of the selected workloads, prints
// every metric as "workload metric value unit", writes the artifacts, and
// reports whether every output check passed. When exactly one pass of one
// workload ran, the last line printed is the driver's JSON result.
func runLedger(w io.Writer, names []string, seed int64, seconds float64, trace int, outDir string) (bool, error) {
	led := ledger{Provenance: newProvenance(seed, seconds)}
	printProvenance(w, led.Provenance)
	var spans []span
	for _, name := range names {
		p := params{seed: seed, seconds: seconds, setups: setupRepeat}
		if trace != 1 {
			r, err := runWorkload(name, p)
			if err != nil {
				return false, err
			}
			printRun(w, r, endToEnd)
			led.Runs = append(led.Runs, r)
			p.refRate = r.Values["work_per_s"]
		}
		if trace != 0 {
			if _, tcp := tcpWorkloads[name]; tcp && p.refRate == 0 {
				// The traced pass alone still states its overhead: a short
				// untraced window gives the reference rate.
				ref, err := runWorkload(name, params{seed: seed, seconds: seconds / 3, setups: 1})
				if err != nil {
					return false, err
				}
				p.refRate = ref.Values["work_per_s"]
			}
			p.traced = true
			r, err := runWorkload(name, p)
			if err != nil {
				return false, err
			}
			printRun(w, r, perLayer)
			for i := range r.spans {
				r.spans[i].Workload = name
			}
			spans = append(spans, r.spans...)
			led.Runs = append(led.Runs, r)
			led.Budgets = append(led.Budgets, r.budget...)
		}
	}
	for _, b := range led.Budgets {
		printBudget(w, b, "# ")
	}
	if err := writeArtifacts(outDir, led, spans, trace != 0); err != nil {
		return false, err
	}
	correct := true
	for _, r := range led.Runs {
		correct = correct && r.correct()
	}
	if len(led.Runs) == 1 {
		defs := endToEnd
		if trace == 1 {
			defs = perLayer
		}
		if err := printDriverJSON(w, led.Runs[0], defs); err != nil {
			return false, err
		}
	}
	return correct, nil
}

func printProvenance(w io.Writer, p provenance) {
	fmt.Fprintf(w, "# commit %s, %s, GOMAXPROCS %d, nproc %d, %s\n", p.GitCommit, p.GoVersion, p.GOMAXPROCS, p.NumCPU, p.CPUModel)
	fmt.Fprintf(w, "# seed %d, warm-up %gs discarded, measured %gs; %s\n", p.Seed, p.WarmupS, p.MeasuredS, p.Transport)
	fmt.Fprintf(w, "# clients: %s\n", p.Clients)
}

// printRun prints the run's metrics out of defs that its workload
// measures, then its checks.
func printRun(w io.Writer, r *result, defs []metricDef) {
	pass := "untraced"
	if r.Traced {
		pass = "traced"
	}
	fmt.Fprintf(w, "# %s, %s pass: %d operations attempted, %d failed\n", r.Workload, pass, r.Attempted, r.Failed)
	for _, m := range defs {
		if m.measuredOn(r.Workload) {
			fmt.Fprintf(w, "%s %s %.6g %s\n", r.Workload, m.Name, r.Values[m.Name], m.Unit)
		}
	}
	for _, c := range r.Checks {
		if c.OK {
			fmt.Fprintf(w, "# check %s %s ok\n", r.Workload, c.Name)
		} else {
			fmt.Fprintf(w, "# check %s %s FAILED: %s\n", r.Workload, c.Name, c.Detail)
		}
	}
}

func printBudget(w io.Writer, b budgetTable, prefix string) {
	fmt.Fprintf(w, "%sbudget %s: %s = %.1f us\n", prefix, b.Workload, b.Metric, b.E2EUS)
	for _, row := range b.Rows {
		fmt.Fprintf(w, "%s  %-14s %9.1f us  %4.1f%%  %s\n", prefix, row.Layer, row.US, 100*ratio(row.US, b.E2EUS), row.What)
	}
	fmt.Fprintf(w, "%s  %-14s %9.1f us  %4.1f%%\n", prefix, "layers, summed", b.SumUS, 100*ratio(b.SumUS, b.E2EUS))
	fmt.Fprintf(w, "%s  %-14s %9.1f us  %4.1f%%  what no layer explains\n", prefix, "residual", b.ResidualUS, 100*ratio(b.ResidualUS, b.E2EUS))
	for _, sp := range b.Spans {
		fmt.Fprintf(w, "%s  span %-19s %9.1f us  (%s, under the load)\n", prefix, sp.Layer, sp.US, sp.What)
	}
}

// printDriverJSON prints the one-line result the benchmark driver reads:
// every metric of defs, 0 where the workload does not measure it.
func printDriverJSON(w io.Writer, r *result, defs []metricDef) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), r.Attempted, r.Failed, map[string]value{}}
	for _, m := range defs {
		out.Metrics[m.Name] = value{r.Values[m.Name], m.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// writeArtifacts writes results.json and, after a traced pass,
// trace.jsonl and budget.md.
func writeArtifacts(dir string, led ledger, spans []span, traced bool) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(led, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "results.json"), append(b, '\n'), 0o644); err != nil {
		return err
	}
	if !traced {
		return nil
	}
	if err := writeTrace(filepath.Join(dir, "trace.jsonl"), spans); err != nil {
		return err
	}
	var md strings.Builder
	md.WriteString("# Latency budget\n\nGenerated by the traced pass. End-to-end median = sum of the layers' self times + residual.\n")
	for _, t := range led.Budgets {
		md.WriteString("\n```\n")
		printBudget(&md, t, "")
		md.WriteString("```\n")
	}
	return os.WriteFile(filepath.Join(dir, "budget.md"), []byte(md.String()), 0o644)
}
