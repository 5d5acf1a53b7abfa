package scenlab

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"testing"
	"time"

	"nwsenv/internal/deploy"
	nwsmetrics "nwsenv/internal/metrics"
	"nwsenv/internal/nws/clique"
	"nwsenv/internal/simnet"
)

// labSpec is a small, fast scenario for harness tests: a 2×2 LAN, short
// phases, one crash that heals.
func labSpec(t *testing.T) *Spec {
	t.Helper()
	s, err := Decode([]byte(`{
		"name": "labtest",
		"seed": 7,
		"topology": {"kind": "lan", "lan": {"subnets": 2, "hosts_per_subnet": 2}},
		"phases": {"warmup_sec": 180, "inject_sec": 360, "recovery_sec": 240},
		"fault": {"kind": "crash", "start_sec": 60, "heal_after_sec": 180},
		"slo": {"queries_must_flow": true, "converged": true, "repairs_min": 1, "invariants": "all"}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRunMeetsItsGates(t *testing.T) {
	res, err := Run(labSpec(t), 7)
	if err != nil {
		t.Fatal(err)
	}
	sum := Summarize(res)
	if !sum.Pass {
		t.Fatalf("lab scenario breached its SLO:\n%+v", sum.Gates)
	}
	if sum.Repairs < 1 || sum.Injected != 2 {
		t.Fatalf("crash not injected/repaired: %+v", sum)
	}
	if res.Invariants.Checks != sum.Rounds {
		t.Fatalf("invariants checked after %d of %d rounds", res.Invariants.Checks, sum.Rounds)
	}
	if len(res.Samples) == 0 {
		t.Fatal("no samples recorded")
	}
	last := res.Samples[len(res.Samples)-1]
	if int64(last.TSec) != sum.VirtualSec {
		t.Fatalf("virtual span %d does not end at final sample %d", sum.VirtualSec, last.TSec)
	}
}

// TestRunFailsUnmeetableAssertion proves the harness actually gates: an
// assertion no run can satisfy must produce Pass == false, which run
// and matrix turn into a non-zero exit.
func TestRunFailsUnmeetableAssertion(t *testing.T) {
	s := labSpec(t)
	impossible := -1
	s.SLO.MaxForecastGapTicks = &impossible // a gap count is never negative
	res, err := Run(s, 7)
	if err != nil {
		t.Fatal(err)
	}
	sum := Summarize(res)
	if sum.Pass {
		t.Fatal("summary passed an unmeetable assertion")
	}
	found := false
	for _, g := range sum.Gates {
		if g.Name == "max_forecast_gap_ticks" {
			found = true
			if g.Pass {
				t.Fatalf("unmeetable gate passed: %+v", g)
			}
		}
	}
	if !found {
		t.Fatalf("unmeetable gate not evaluated: %+v", sum.Gates)
	}
}

// TestRunDeterministic: the same committed scenario file and seed must
// produce byte-identical artifacts — summary.json, samples.jsonl, and
// the telemetry pair metrics.jsonl + trace.jsonl — the property the
// matrix's rerun column and CI replays rely on.
func TestRunDeterministic(t *testing.T) {
	f, err := LoadFile(filepath.Join("..", "..", "scenarios", "crash.json"))
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"summary.json", "samples.jsonl", "metrics.jsonl", "trace.jsonl"}
	artifacts := func(dir string) map[string][]byte {
		t.Helper()
		res, err := Run(f.Spec, f.Spec.Seed)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := WriteArtifacts(dir, res, NewProvenance(f, f.Spec.Seed, 1)); err != nil {
			t.Fatal(err)
		}
		out := map[string][]byte{}
		for _, name := range names {
			data, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			if len(data) == 0 {
				t.Fatalf("%s is empty", name)
			}
			out[name] = data
		}
		return out
	}
	base := t.TempDir()
	one := artifacts(filepath.Join(base, "one"))
	two := artifacts(filepath.Join(base, "two"))
	for _, name := range names {
		if string(one[name]) != string(two[name]) {
			t.Errorf("%s not byte-deterministic:\n--- run 1\n%s\n--- run 2\n%s", name, one[name], two[name])
		}
	}
}

// TestTraceDetectsWallClockContamination is the negative control for
// TestRunDeterministic: a span carrying wall-clock timestamps must
// change the rendered trace bytes, proving the byte-equality check
// would actually catch a subsystem that timed itself off time.Now
// instead of the platform clock.
func TestTraceDetectsWallClockContamination(t *testing.T) {
	res, err := Run(labSpec(t), 7)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := res.Telemetry.RenderTraceJSONL()
	if err != nil {
		t.Fatal(err)
	}
	span := res.Telemetry.StartSpan("pipeline", "contaminated")
	span.Annotate("wall_ns", strconv.FormatInt(time.Now().UnixNano(), 10))
	span.End()
	dirty, err := res.Telemetry.RenderTraceJSONL()
	if err != nil {
		t.Fatal(err)
	}
	if string(clean) == string(dirty) {
		t.Fatal("a wall-clock span left the trace bytes unchanged; the determinism check is toothless")
	}
}

// TestGateReplaysArtifacts: Gate re-reads what WriteArtifacts laid out
// (matrix layout: <dir>/<scenario>/run-<k>/) and reproduces the verdict.
func TestGateReplaysArtifacts(t *testing.T) {
	s := labSpec(t)
	res, err := Run(s, 7)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	f := &File{Spec: s, Path: "labtest.json", SHA256: "test"}
	sum, err := WriteArtifacts(filepath.Join(dir, s.Name, "run-1"), res, NewProvenance(f, 7, 1))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Gate(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Summaries) != 1 || rep.OK() != sum.Pass {
		t.Fatalf("gate replay: %d summaries, ok=%v want %v", len(rep.Summaries), rep.OK(), sum.Pass)
	}
	out := rep.String()
	for _, frag := range []string{"labtest", "1 run(s)", "queries_must_flow"} {
		if !strings.Contains(out, frag) {
			t.Errorf("gate report misses %q:\n%s", frag, out)
		}
	}
	if _, err := Gate(t.TempDir()); err == nil || !strings.Contains(err.Error(), "scenlab matrix") {
		t.Errorf("empty gate dir should point at the matrix: %v", err)
	}
}

// liveHeap is the heap a full collection leaves live.
func liveHeap() uint64 {
	runtime.GC()
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(sample)
	return sample[0].Value.Uint64()
}

// TestRunsLeaveHeapFlat: a finished run strands nothing. Twenty runs of
// the crash scenario in one process keep the live heap within 5% of
// where the warm-up runs left it, and the goroutine count where it was;
// a run that left its deployment's processes parked would keep their
// stacks, stations and windows reachable, about 2 MB a run. The warm-up
// is two runs because the second still settles runtime caches (about
// 9 KB), and the test runs on one P because the runtime spreads dead
// goroutine descriptors over the Ps' free lists, a creep of a few KB
// that no run causes.
func TestRunsLeaveHeapFlat(t *testing.T) {
	f, err := LoadFile(filepath.Join("..", "..", "scenarios", "crash.json"))
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const warmup, runs = 2, 20
	var ref uint64
	goroutines := 0
	for i := 1; i <= warmup+runs; i++ {
		if _, err := Run(f.Spec, f.Spec.Seed); err != nil {
			t.Fatal(err)
		}
		live := liveHeap()
		if i <= warmup {
			ref, goroutines = live, runtime.NumGoroutine()
			continue
		}
		if d := float64(live)/float64(ref) - 1; d > 0.05 || d < -0.05 {
			t.Fatalf("run %d: live heap %d B, %+.1f%% from the %d B the warm-up left", i, live, 100*d, ref)
		}
		if n := runtime.NumGoroutine(); n != goroutines {
			t.Fatalf("run %d: %d goroutines, %d after the warm-up", i, n, goroutines)
		}
	}
}

// TestInvariantGateFails: the "invariants": "all" gate fails a run whose
// plan puts two cliques without a common member on one link and whose
// token ring carried a duplicated token, naming the two predicates it
// broke, and fails a run that never evaluated the invariants at all.
func TestInvariantGateFails(t *testing.T) {
	topo := simnet.NewTopology()
	topo.AddSwitch("s1")
	topo.AddSwitch("s2")
	topo.Connect("s1", "s2")
	for i, h := range []string{"a", "b", "c", "d"} {
		topo.AddHost(h, fmt.Sprintf("10.0.0.%d", i+1), h, "x")
		topo.Connect(h, []string{"s1", "s1", "s2", "s2"}[i])
	}
	plan := &deploy.Plan{Hosts: []string{"a", "b", "c", "d"}, Cliques: []deploy.CliqueSpec{
		{Name: "x", Members: []string{"a", "c", "b", "d"}, Period: time.Second},
		{Name: "y", Members: []string{"b", "d"}, Period: time.Second},
		{Name: "z", Members: []string{"a", "c"}, Period: time.Second},
	}}
	holds := []clique.Hold{
		{Clique: "z", Host: "a", Seq: 1, From: 0, To: time.Second},
		{Clique: "z", Host: "c", Seq: 2, From: time.Second, To: 2 * time.Second},
		{Clique: "z", Host: "a", Seq: 2, From: 1500 * time.Millisecond, To: 2500 * time.Millisecond}, // the duplicate
	}
	inv := nwsmetrics.NewInvariants()
	inv.Check(plan, topo, nil, holds)
	s := Summarize(&Result{Spec: &Spec{Name: "seeded", SLO: SLOSpec{Invariants: "all"}}, Invariants: inv})
	if s.Pass {
		t.Fatalf("seeded violations passed the gate: %+v", s.Gates)
	}
	breached := map[string]bool{}
	for _, g := range s.Gates {
		if !g.Pass {
			breached[g.Name] = true
		}
	}
	for _, want := range []string{"invariant collision_freedom", "invariant one_token_per_clique_epoch"} {
		if !breached[want] {
			t.Errorf("gate %q did not breach: %+v", want, s.Gates)
		}
	}
	if len(breached) != 2 {
		t.Errorf("breached %v, want exactly the two seeded predicates", breached)
	}
	if _, pass := EvaluateGates(SLOSpec{Invariants: "all"}, &Summary{}); pass {
		t.Fatal("a run that never evaluated the invariants passed their gate")
	}
}

// TestGitCommitNamesDirtyTree: the provenance commit is "unknown"
// before a first commit, the full HEAD hash on a clean tree (ignored
// files included) and "<hash>-dirty" with an untracked file or an
// edited tracked one.
func TestGitCommitNamesDirtyTree(t *testing.T) {
	if _, err := exec.LookPath("git"); err != nil {
		t.Skip("no git binary")
	}
	t.Chdir(t.TempDir())
	git := func(args ...string) string {
		t.Helper()
		args = append([]string{"-c", "user.name=lab", "-c", "user.email=lab@example.org", "-c", "commit.gpgsign=false"}, args...)
		out, err := exec.Command("git", args...).CombinedOutput()
		if err != nil {
			t.Fatalf("git %v: %v\n%s", args, err, out)
		}
		return strings.TrimSpace(string(out))
	}
	write := func(name, content string) {
		t.Helper()
		if err := os.WriteFile(name, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	git("init", "-q")
	if got := GitCommit(); got != "unknown" {
		t.Fatalf("before the first commit: %q, want unknown", got)
	}
	write("spec.json", "{}\n")
	write(".gitignore", "*.out\n")
	git("add", "spec.json", ".gitignore")
	git("commit", "-q", "-m", "first")
	head := git("rev-parse", "HEAD")
	write("run.out", "ignored\n")
	if got := GitCommit(); got != head {
		t.Fatalf("clean tree with an ignored file: %q, want %q", got, head)
	}
	write("b.go", "package b\n")
	if got := GitCommit(); got != head+"-dirty" {
		t.Fatalf("untracked file: %q, want %q", got, head+"-dirty")
	}
	if err := os.Remove("b.go"); err != nil {
		t.Fatal(err)
	}
	write("spec.json", "{\"edited\": true}\n")
	if got := GitCommit(); got != head+"-dirty" {
		t.Fatalf("edited tree: %q, want %q", got, head+"-dirty")
	}
}
