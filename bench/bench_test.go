package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"nwsenv/internal/scenlab"
)

// benchmarkJSON is the driver's contract file at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func catalogueJSON() benchmarkJSON {
	b := benchmarkJSON{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: 10}
	for _, w := range workloads {
		b.Workloads = append(b.Workloads, struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		}{w.Name, w.Why})
	}
	for _, m := range endToEnd {
		bound := m.Bound
		b.EndToEnd = append(b.EndToEnd, jsonMetric{m.Name, m.Unit, m.Better, &bound})
	}
	for _, m := range perLayer {
		b.PerLayer = append(b.PerLayer, jsonMetric{m.Name, m.Unit, m.Better, nil})
	}
	return b
}

// TestBenchmarkJSONIsTheCatalogue keeps ../BENCHMARK.json equal to the
// catalogue. UPDATE_BENCHMARK_JSON=1 rewrites the file from it.
func TestBenchmarkJSONIsTheCatalogue(t *testing.T) {
	want := catalogueJSON()
	if os.Getenv("UPDATE_BENCHMARK_JSON") != "" {
		out, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("../BENCHMARK.json", append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var got benchmarkJSON
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json differs from the catalogue; rerun with UPDATE_BENCHMARK_JSON=1")
	}
}

// TestCatalogueWithinTheDriversLimits checks names, units and counts
// against the limits the driver refuses a benchmark for.
func TestCatalogueWithinTheDriversLimits(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the allowed alphabet or length", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		use(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, m := range endToEnd {
		use(m.Name)
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.On != nil {
			t.Errorf("%s: every workload must report an end-to-end metric", m.Name)
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q is outside the allowed alphabet or length", m.Name, m.Unit)
		}
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("%s: better is %q", m.Name, m.Better)
		}
	}
	for _, m := range perLayer {
		use(m.Name)
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics", len(endToEnd), len(perLayer))
	}
}

// virtualValues picks a run's virtual-time numbers.
func virtualValues(r *result) map[string]float64 {
	out := map[string]float64{}
	for k, v := range r.Values {
		if strings.Contains(k, "_v_") {
			out[k] = v
		}
	}
	return out
}

// TestSmoke runs every workload once untraced and once traced with a
// one-second window and a 12-host lifecycle: every catalogued metric is
// reported by exactly the workloads that declare it, every output check
// passes, and the simulated workloads' virtual numbers repeat.
func TestSmoke(t *testing.T) {
	start := time.Now()
	spec, err := scenlab.Decode(lifecycleJSON)
	if err != nil {
		t.Fatal(err)
	}
	spec.Topology.Grid.Sites, spec.Topology.Grid.SwitchesPerSite, spec.Topology.Grid.HostsPerSwitch = 3, 2, 2
	run := func(name string, p params) *result {
		t.Helper()
		var r *result
		var err error
		if name == "sim_lifecycle" {
			r, err = runLifecycle(spec, p)
		} else {
			r, err = runWorkload(name, p)
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, c := range r.Checks {
			if !c.OK {
				t.Errorf("%s: check %s failed: %s", name, c.Name, c.Detail)
			}
		}
		if r.Attempted == 0 || r.Failed != 0 {
			t.Errorf("%s: %d operations attempted, %d failed", name, r.Attempted, r.Failed)
		}
		return r
	}
	defs := map[string]metricDef{}
	for _, m := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		defs[m.Name] = m
	}
	for _, w := range workloads {
		p := params{seed: 7, seconds: 1, setups: 1}
		untraced := run(w.Name, p)
		for _, m := range endToEnd {
			if v, ok := untraced.Values[m.Name]; !ok || v <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v (reported: %v)", w.Name, m.Name, v, ok)
			}
		}
		p.traced, p.refRate = true, untraced.Values["work_per_s"]
		traced := run(w.Name, p)
		for _, m := range perLayer {
			if _, ok := traced.Values[m.Name]; ok != m.measuredOn(w.Name) {
				t.Errorf("%s: metric %s reported=%v, catalogue says measured=%v", w.Name, m.Name, ok, m.measuredOn(w.Name))
			}
		}
		for k := range traced.Values {
			if _, ok := defs[k]; !ok {
				t.Errorf("%s: reports %s, which the catalogue does not name", w.Name, k)
			}
		}
		if len(traced.spans) == 0 && strings.HasPrefix(w.Name, "tcp_") {
			t.Errorf("%s: the traced pass recorded no spans", w.Name)
		}
		if strings.HasPrefix(w.Name, "sim_") {
			a, b := virtualValues(untraced), virtualValues(traced)
			if len(a) == 0 {
				t.Errorf("%s: no virtual-time numbers", w.Name)
			}
			for k, v := range a {
				if b[k] != v {
					t.Errorf("%s: %s is %v, then %v, in two runs of one seed", w.Name, k, v, b[k])
				}
			}
		}
	}
	t.Logf("smoke run took %v", time.Since(start).Round(time.Millisecond))
}

func TestSelfTimeIsSpanMinusItsChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", StartNS: 0, EndNS: 100_000},
		{ID: 2, Parent: 1, Name: "child", StartNS: 10_000, EndNS: 40_000},
		{ID: 3, Parent: 1, Name: "child", StartNS: 30_000, EndNS: 60_000},  // overlaps the first
		{ID: 4, Parent: 1, Name: "child", StartNS: 90_000, EndNS: 120_000}, // runs past the parent
		{ID: 5, Name: "before the window", StartNS: -5, EndNS: 5},
	}
	st := summarize(spans, 0, time.Second)
	if got := st.selfP50("parent"); got != 40 {
		t.Errorf("parent self time = %v us, want 100 - (10..60) - (90..100) = 40", got)
	}
	if got := st.p50("child"); got != 30 {
		t.Errorf("child median = %v us, want 30", got)
	}
	if n := len(st.dur["before the window"]); n != 0 {
		t.Errorf("a span starting before the window was counted")
	}
}

func TestQuantileIsNearestRank(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{0.5, 5}, {0.9, 9}, {0.99, 10}, {0, 1}} {
		if got := quantile(vals, c.p); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of nothing should be 0")
	}
}
