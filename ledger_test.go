package nwsenv

import (
	"encoding/json"
	"fmt"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"nwsenv/internal/scenlab"
)

// The claims ledger: every number EXPERIMENTS.md states about the
// paper's results is rendered from the committed artifacts the gates
// read (BENCH_paper.json, BENCH_gateway.json, bench-gates.json,
// scenarios/ and lab-baselines/), between a "<!-- ledger:NAME -->" and a
// "<!-- /ledger:NAME -->" line. TestLedger renders each block again and
// fails on any difference, printing the fresh block to paste in.

// paperClaim is one figure or claim of the paper and the benchmark
// that reproduces it.
type paperClaim struct{ id, bench, claim string }

var paperClaims = []paperClaim{
	{"E1", "BenchmarkFig1bEffectiveView", "Figure 1(b): the effective topology of the ENS-Lyon LAN after merging the two firewall-side runs — network list, classifications, base/local bandwidths."},
	{"E2", "BenchmarkFig2StructuralTree", "Figure 2: the structural traceroute tree rooted at the escape path, as seen from `the-doors`."},
	{"E3", "BenchmarkFig3DeploymentPlan", "Figure 3: the derived NWS deployment plan — per-network cliques, representative pairs on shared segments, the canaria–popc0 bridge, name server / forecaster / memory placement."},
	{"E4", "BenchmarkE4MappingCost", "§4.3 \"Bandwidth waste\": naive full-mesh mapping needs ~50 days at scale while ENV maps in minutes; probe counts and virtual time against host count (the naive cost model is in `baseline_test.go`)."},
	{"E5", "BenchmarkE5SciClassification", "§4.2.2.4: the sci cluster classifies `ENV_Switched`, reproducing the paper's GridML listing."},
	{"E6", "BenchmarkE6DeploymentQuality", "§2.3 constraints: the ENV-driven plan against full mesh and one big clique on probes, collisions, completeness and measurement frequency (the baseline planners are in `baseline_test.go`)."},
	{"E7", "BenchmarkE7CliqueFrequency", "§2.3: \"the measurement frequency decreases when the number of hosts in a given clique increases\"."},
	{"E8", "BenchmarkE8CollisionHalving", "§2.3 rationale: two colliding probes on a shared segment each report about half the true bandwidth."},
	{"E9", "BenchmarkE9FirewallMerge", "§4.3 \"Firewalls\": running ENV on each side and merging with gateway aliases yields one coherent view with cross-aliased gateways."},
	{"E10", "BenchmarkE10AsymmetryBlindspot", "§4.3 \"Asymmetric routes\": one-way probing reports the 10 Mbps direction of the 10/100 the-doors↔popc0 route and cannot see the asymmetry."},
	{"E11", "BenchmarkE11ThresholdAblation", "§4.2.2 thresholds (3 / 1.25 / 0.7 / 0.9): classification accuracy under threshold perturbation, including the strict-paper bottleneck blind spot."},
	{"E12", "BenchmarkE12ForecasterAccuracy", "§2.1: the forecaster battery tracks its best member per trace shape (constant, noise, random walk, diurnal + spikes)."},
	{"E13", "BenchmarkE13CompositionAccuracy", "§2.3/§5.1: end-to-end estimates composed from per-segment measurements (latencies add, bandwidths min) against ground truth."},
	{"E14", "BenchmarkE14TokenRecovery", "§2.3: token-ring robustness — a member dies holding the token; watchdog and election resume monitoring, measured recovery gap. `TestRingExhaustive` checks the protocol under it through every interleaving of small rings."},
	{"E15", "BenchmarkE15PairwiseAblation", "§6: \"a possibility to lock hosts (and not networks) is still needed\" — the pairwise scheduler multiplies per-pair frequency on switched networks without collisions."},
	{"E16", "BenchmarkE16BidirectionalMapping", "§4.3 future work: bidirectional probing detects the asymmetric route E10 shows is otherwise invisible, at roughly double the phase's probe cost."},
}

// gateEntry mirrors one entry of bench-gates.json (cmd/benchjson's
// Entry, which a test cannot import from a main package).
type gateEntry struct {
	Name      string   `json:"name"`
	Why       string   `json:"why"`
	Bench     string   `json:"bench"`
	Benchtime string   `json:"benchtime"`
	Packages  []string `json:"packages"`
	Gates     []struct {
		Kind    string   `json:"kind"`
		Bench   string   `json:"bench"`
		Num     string   `json:"num"`
		Den     string   `json:"den"`
		Metric  string   `json:"metric"`
		Metrics []string `json:"metrics"`
		Bound   float64  `json:"bound"`
		Why     string   `json:"why"`
	} `json:"gates"`
}

// hostClock lists the metrics of a host's clock and allocator, which
// no equal row reads: re-recording only them moves no ledger line.
var hostClock = []string{"ns/op", "B/op", "allocs/op"}

func TestLedger(t *testing.T) {
	data, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(data)
	for _, b := range []struct {
		name   string
		render func() (string, error)
	}{
		{"e-rows", renderPaperRows},
		{"scenarios", renderScenarios},
		{"gates", renderGates},
		{"gateway", renderGatewayStorm},
		{"probe-law", renderProbeLaw},
	} {
		want, err := b.render()
		if err != nil {
			t.Errorf("ledger %s: %v", b.name, err)
			continue
		}
		open, end := "<!-- ledger:"+b.name+" -->\n", "<!-- /ledger:"+b.name+" -->\n"
		_, rest, ok1 := strings.Cut(doc, open)
		got, _, ok2 := strings.Cut(rest, end)
		if !ok1 || !ok2 {
			t.Errorf("EXPERIMENTS.md lacks the %q and %q lines", strings.TrimSpace(open), strings.TrimSpace(end))
			continue
		}
		if got != want {
			t.Errorf("EXPERIMENTS.md's %s block differs from the committed artifacts; rendered:\n%s%s%s", b.name, open, want, end)
		}
	}
}

// benchArtifact is the part of a BENCH_<entry>.json file the ledger
// reads.
type benchArtifact struct {
	Benchmarks map[string]struct {
		Metrics map[string]float64 `json:"metrics"`
	} `json:"benchmarks"`
}

// equalRow returns the metrics the named entry's equal row holds
// exactly (empty: every custom metric) and the entry's artifact.
func equalRow(entry string) ([]string, *benchArtifact, error) {
	entries, err := loadGateEntries()
	if err != nil {
		return nil, nil, err
	}
	for _, e := range entries {
		for _, g := range e.Gates {
			if e.Name == entry && g.Kind == "equal" {
				var art benchArtifact
				return g.Metrics, &art, readJSON("BENCH_"+entry+".json", &art)
			}
		}
	}
	return nil, nil, fmt.Errorf("bench-gates.json has no equal row in its %s entry", entry)
}

// renderPaperRows renders the E-row index and every metric the paper
// entry's equal row holds exactly.
func renderPaperRows() (string, error) {
	only, art, err := equalRow("paper")
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("| ID | Benchmark | Paper figure / claim |\n|---|---|---|\n")
	for _, c := range paperClaims {
		fmt.Fprintf(&b, "| %s | `%s` | %s |\n", c.id, c.bench, cell(c.claim))
	}
	var rows strings.Builder
	n := 0
	for _, c := range paperClaims {
		res, ok := art.Benchmarks[c.bench]
		if !ok {
			return "", fmt.Errorf("BENCH_paper.json has no %s", c.bench)
		}
		for _, unit := range slices.Sorted(maps.Keys(res.Metrics)) {
			if slices.Contains(hostClock, unit) || len(only) > 0 && !slices.Contains(only, unit) {
				continue
			}
			n++
			fmt.Fprintf(&rows, "| %s | `%s` | %s |\n", c.id, unit, num(res.Metrics[unit]))
		}
	}
	for name := range art.Benchmarks {
		if !slices.ContainsFunc(paperClaims, func(c paperClaim) bool { return c.bench == name }) {
			return "", fmt.Errorf("BENCH_paper.json's %s has no paper claim", name)
		}
	}
	fmt.Fprintf(&b, "\nThe `paper` entry's `equal` row of `bench-gates.json` holds these %d metrics of `BENCH_paper.json` exactly:\n\n", n)
	b.WriteString("| ID | Metric | Value |\n|---|---|---|\n")
	b.WriteString(rows.String())
	return b.String(), nil
}

// renderScenarios renders every committed scenario with its SLO gates,
// and the replication scenario's gates measured at k = 0, 1 and 2.
func renderScenarios() (string, error) {
	files, err := scenlab.LoadDir("scenarios")
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("| Scenario | Topology | Fault | SLO gates | Claim |\n|---|---|---|---|---|\n")
	var repl *scenlab.Spec
	for _, f := range files {
		s := f.Spec
		if s.Name == "replication" {
			repl = s
		}
		gates, _ := scenlab.EvaluateGates(s.SLO, &scenlab.Summary{})
		var bounds []string
		for _, g := range gates {
			bounds = append(bounds, "`"+g.Name+"` "+g.Threshold)
		}
		fault := string(s.Fault.Kind)
		if s.Fault.Target != "" {
			fault += " (" + s.Fault.Target + " hosts)"
		}
		fmt.Fprintf(&b, "| `%s` | %s, seed %d | %s | %s | %s |\n", filepath.Base(f.Path), topology(s.Topology), s.Seed, fault,
			cell(strings.Join(bounds, "; ")), cell(s.Claim))
	}
	if repl == nil {
		return "", fmt.Errorf("scenarios/ has no replication scenario")
	}

	var sums [3]scenlab.Summary
	var results [3][]scenlab.GateResult
	var pass [3]bool
	for k := range sums {
		if err := readJSON(fmt.Sprintf("lab-baselines/replication/k%d/summary.json", k), &sums[k]); err != nil {
			return "", err
		}
		results[k], pass[k] = scenlab.EvaluateGates(repl.SLO, &sums[k])
	}
	fmt.Fprintf(&b, "\n`replication.json` at k = 0, 1 and 2, seed %d: each gate's value and verdict in `lab-baselines/replication/k*/summary.json`, judged against the scenario file:\n\n", sums[1].Seed)
	b.WriteString("| | k=0 | k=1 | k=2 |\n|---|---|---|---|\n")
	verdict := func(ok bool) string {
		if ok {
			return "pass"
		}
		return "**breach**"
	}
	fmt.Fprintf(&b, "| verdict | %s | %s | %s |\n", verdict(pass[0]), verdict(pass[1]), verdict(pass[2]))
	for i, g := range results[1] {
		fmt.Fprintf(&b, "| `%s` %s |", g.Name, cell(g.Threshold))
		for k := range results {
			if i >= len(results[k]) || results[k][i].Name != g.Name {
				return "", fmt.Errorf("replication k%d evaluates other gates than k1", k)
			}
			r := results[k][i]
			fmt.Fprintf(&b, " %s %s |", cell(r.Measured), verdict(r.Pass))
		}
		b.WriteString("\n")
	}
	// The fan-out's own counters, which no gate reads.
	for _, m := range []string{"replica/fanout_messages", "replica/fanout_drops", "replica/lag:p95", "replica/lag:max"} {
		fmt.Fprintf(&b, "| `%s` |", m)
		for k := range sums {
			if v, ok := sums[k].Metrics[m]; ok {
				fmt.Fprintf(&b, " %s |", num(v))
			} else {
				b.WriteString(" — |")
			}
		}
		b.WriteString("\n")
	}
	return b.String(), nil
}

// renderProbeLaw renders ENV's probe law on the grid family
// TestENVProbeLaw checks (probelaw_test.go).
func renderProbeLaw() (string, error) {
	var b strings.Builder
	g := probeLawGrid(0)
	fmt.Fprintf(&b, "On `SyntheticGrid{Sites: %d, SwitchesPerSite: %d, HostsPerSwitch: h}`, one ENV run over every host (`topo.MapAll` through `core.Pipeline.Map`) makes exactly %d·hosts + %d bandwidth probes, and its virtual time is linear in hosts: from one size to the next, the virtual seconds per host stay within %s%% of those across the whole range. `TestENVProbeLaw` checks both at:\n\n",
		g.Sites, g.SwitchesPerSite, probeLawSlope, probeLawBase, num(100*probeLawStep))
	b.WriteString("| h | hosts | probes |\n|---|---|---|\n")
	for _, h := range probeLawSizes {
		n := probeLawHosts(h)
		fmt.Fprintf(&b, "| %d | %d | %d |\n", h, n, probeLawSlope*n+probeLawBase)
	}
	return b.String(), nil
}

// renderGatewayStorm renders the storm's values the gateway entry's
// equal row holds exactly, one row per gateway count.
func renderGatewayStorm() (string, error) {
	only, art, err := equalRow("gateway")
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "| Benchmark | %s |\n|---|%s\n", strings.Join(only, " | "), strings.Repeat("---|", len(only)))
	for _, name := range slices.Sorted(maps.Keys(art.Benchmarks)) {
		fmt.Fprintf(&b, "| `%s` |", name)
		for _, m := range only {
			v, ok := art.Benchmarks[name].Metrics[m]
			if !ok {
				return "", fmt.Errorf("BENCH_gateway.json's %s has no %s", name, m)
			}
			fmt.Fprintf(&b, " %s |", num(v))
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "\nThe `gateway` entry's `equal` row of `bench-gates.json` holds these %d values of `BENCH_gateway.json` exactly.\n",
		len(only)*len(art.Benchmarks))
	return b.String(), nil
}

// topology renders a scenario's platform in one cell.
func topology(t scenlab.TopologySpec) string {
	switch {
	case t.Grid != nil:
		s := fmt.Sprintf("grid %d×%d×%d (sites × switches × hosts)", t.Grid.Sites, t.Grid.SwitchesPerSite, t.Grid.HostsPerSwitch)
		if t.Grid.SiteDomains {
			s += ", a domain per site"
		}
		return s
	case t.LAN != nil:
		return fmt.Sprintf("LAN %d×%d (subnets × hosts)", t.LAN.Subnets, t.LAN.HostsPerSubnet)
	}
	return t.Kind
}

// renderGates renders every entry and every row of bench-gates.json.
func renderGates() (string, error) {
	entries, err := loadGateEntries()
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("| Entry | Benchmarks | Benchtime | Packages | Why |\n|---|---|---|---|---|\n")
	for _, e := range entries {
		fmt.Fprintf(&b, "| `%s` | `%s` | %s | `%s` | %s |\n", e.Name, cell(e.Bench), e.Benchtime, strings.Join(e.Packages, "` `"), cell(e.Why))
	}
	b.WriteString("\n| Entry | Kind | Benchmark | Metric | Bound | Why |\n|---|---|---|---|---|---|\n")
	n := 0
	for _, e := range entries {
		for _, g := range e.Gates {
			n++
			bench, metric, bound := "`"+g.Bench+"`", g.Metric, num(g.Bound)
			switch g.Kind {
			case "ratio":
				bench = "`" + g.Num + "` / `" + g.Den + "`"
			case "equal":
				bench, metric, bound = "every benchmark", "every custom metric", "the baseline's value"
				if len(g.Metrics) > 0 {
					metric = strings.Join(g.Metrics, ", ")
				}
			}
			fmt.Fprintf(&b, "| `%s` | %s | %s | %s | %s | %s |\n", e.Name, g.Kind, bench, metric, bound, cell(g.Why))
		}
	}
	fmt.Fprintf(&b, "\n%d rows; `go run ./cmd/benchjson` checks every one against `BENCH_<entry>.json`.\n", n)
	return b.String(), nil
}

func loadGateEntries() ([]gateEntry, error) {
	var entries []gateEntry
	return entries, readJSON("bench-gates.json", &entries)
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// cell escapes a table cell's pipes.
func cell(s string) string { return strings.ReplaceAll(s, "|", `\|`) }

// num renders a value with as many digits as it has, never in
// exponent form.
func num(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }

// citedDocs are the documents whose backticked names must resolve.
var citedDocs = []string{"EXPERIMENTS.md", "README.md", ".claude/skills/verify/SKILL.md"}

var (
	codeSpan  = regexp.MustCompile("`[^`\n]+`")
	testName  = regexp.MustCompile(`(^|[^A-Za-z0-9_^])((?:Test|Benchmark|Example|Fuzz)[A-Z_0-9][A-Za-z0-9_]*)`)
	repoPath  = regexp.MustCompile(`(^|[^A-Za-z0-9_-])((?:internal|cmd)/[A-Za-z0-9_./-]*)`)
	declFunc  = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Example|Fuzz)[A-Za-z0-9_]*)\(`)
	fenceLine = regexp.MustCompile("(?m)^\\s*```.*$")
)

// TestDocsCiteDeclaredNames: every test, benchmark, example or fuzz
// target the documents name in backticks is declared in some _test.go
// file (bench/ included), and every internal/ or cmd/ path they name
// exists, so a rename cannot leave a citation dangling.
func TestDocsCiteDeclaredNames(t *testing.T) {
	declared := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range declFunc.FindAllStringSubmatch(string(src), -1) {
			declared[m[1]] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, docPath := range citedDocs {
		data, err := os.ReadFile(docPath)
		if err != nil {
			t.Fatal(err)
		}
		for _, span := range codeSpan.FindAllString(fenceLine.ReplaceAllString(string(data), ""), -1) {
			for _, m := range testName.FindAllStringSubmatch(span, -1) {
				if !declared[m[2]] {
					t.Errorf("%s cites %s, which no _test.go declares", docPath, m[2])
				}
			}
			for _, m := range repoPath.FindAllStringSubmatch(span, -1) {
				p := strings.TrimRight(strings.TrimSuffix(m[2], "..."), "/.")
				if _, err := os.Stat(p); err != nil {
					t.Errorf("%s cites %s, which does not exist", docPath, m[2])
				}
			}
		}
	}
}
