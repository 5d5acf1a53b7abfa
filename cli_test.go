package nwsenv

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestCLIPipeline builds the five command-line tools and runs the full
// file-based workflow of the README: generate the ENS-Lyon topology, map
// it with ENV, derive and validate the plan, and run the monitoring
// system with a composed query; then a seeded fault scenario through
// the scenario lab.
func TestCLIPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := t.TempDir()
	build := func(name string) string {
		out := filepath.Join(bin, name)
		cmd := exec.Command("go", "build", "-o", out, "./cmd/"+name)
		cmd.Env = os.Environ()
		if msg, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", name, err, msg)
		}
		return out
	}
	topogen := build("topogen")
	envmap := build("envmap")
	nwsdeploy := build("nwsdeploy")
	nwsmanager := build("nwsmanager")
	scenlab := build("scenlab")

	dir := t.TempDir()
	topoFile := filepath.Join(dir, "enslyon.json")
	mapping := filepath.Join(dir, "mapping.xml")
	plan := filepath.Join(dir, "plan.json")

	run := func(name string, args ...string) string {
		cmd := exec.Command(name, args...)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("%s %v: %v\n%s", filepath.Base(name), args, err, out)
		}
		return string(out)
	}

	run(topogen, "-kind", "enslyon", "-o", topoFile)
	if _, err := os.Stat(topoFile); err != nil {
		t.Fatal(err)
	}

	out := run(envmap, "-topo", topoFile, "-tree", "-o", mapping)
	for _, frag := range []string{"routlhpc", "switched", "effective networks"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("envmap output misses %q:\n%s", frag, out)
		}
	}
	data, err := os.ReadFile(mapping)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "ENV_base_BW") {
		t.Fatal("mapping file lacks ENV properties")
	}

	// A run naming the external traceroute target is refused: exit 1
	// and a message naming it, not a panic.
	refused := exec.Command(envmap, "-topo", topoFile, "-hosts", "world")
	msg, err := refused.CombinedOutput()
	if refused.ProcessState == nil || refused.ProcessState.ExitCode() != 1 || !strings.Contains(string(msg), "world is the external traceroute target") {
		t.Fatalf("envmap -topo -hosts world: %v, want exit 1 naming world\n%s", err, msg)
	}

	out = run(nwsdeploy, "-gridml", mapping, "-master", "the-doors.ens-lyon.fr",
		"-topo", topoFile, "-o", plan)
	if !strings.Contains(out, "complete=true") {
		t.Fatalf("nwsdeploy did not validate complete:\n%s", out)
	}

	tele := filepath.Join(dir, "tele")
	out = run(nwsmanager, "-topo", topoFile, "-plan", plan, "-gridml", mapping,
		"-duration", "2m", "-query", "moby.cri2000.ens-lyon.fr,sci3.popc.private",
		"-telemetry", tele)
	if !strings.Contains(out, "estimate moby.cri2000.ens-lyon.fr -> sci3.popc.private") {
		t.Fatalf("nwsmanager query missing:\n%s", out)
	}
	// The composed estimate must find the 10 Mbps bottleneck.
	if !strings.Contains(out, "10.00 Mbps") {
		t.Fatalf("estimate did not hit the bottleneck:\n%s", out)
	}
	if !strings.Contains(out, "composed via") {
		t.Fatalf("estimate should be composed:\n%s", out)
	}
	// A published plan goes through the pipeline's Apply stage too: its
	// roles carry the run's telemetry, and the stage leaves a trace.
	metrics, err := os.ReadFile(filepath.Join(tele, "metrics.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"key":"clique/`, `"key":"gateway/`} {
		if !strings.Contains(string(metrics), key) {
			t.Fatalf("-plan telemetry lacks %s instruments:\n%s", key, metrics)
		}
	}
	if trace, err := os.ReadFile(filepath.Join(tele, "trace.jsonl")); err != nil || len(trace) == 0 {
		t.Fatalf("-plan trace.jsonl empty (%v)", err)
	}

	// Pairwise mode variant runs too.
	out = run(nwsmanager, "-topo", topoFile, "-plan", plan, "-gridml", mapping,
		"-duration", "1m", "-pairwise")
	if !strings.Contains(out, "monitored") {
		t.Fatalf("pairwise run failed:\n%s", out)
	}

	// The collapsed forms of the same workflow, driven by the staged
	// pipeline: nwsdeploy maps and plans in one command ...
	plan2 := filepath.Join(dir, "plan2.json")
	mapping2 := filepath.Join(dir, "mapping2.xml")
	out = run(nwsdeploy, "-map", "-topo", topoFile, "-mapping-out", mapping2, "-o", plan2)
	if !strings.Contains(out, "complete=true") {
		t.Fatalf("nwsdeploy -map did not validate complete:\n%s", out)
	}
	if _, err := os.Stat(plan2); err != nil {
		t.Fatal(err)
	}
	data2, err := os.ReadFile(mapping2)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data2), "ENV_base_BW") {
		t.Fatal("nwsdeploy -map mapping file lacks ENV properties")
	}

	// ... nwsmanager runs Map→Plan→Apply→monitor in one command ...
	out = run(nwsmanager, "-topo", topoFile, "-auto", "-duration", "2m",
		"-query", "moby.cri2000.ens-lyon.fr,sci3.popc.private")
	for _, frag := range []string{"[map]", "[plan]", "[apply]", "monitored",
		"estimate moby.cri2000.ens-lyon.fr -> sci3.popc.private", "10.00 Mbps"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("nwsmanager -auto output misses %q:\n%s", frag, out)
		}
	}

	// ... and the same staged pipeline drives real loopback TCP sockets.
	out = run(nwsmanager, "-tcp", "-hosts", "alpha,beta,gamma", "-duration", "3s",
		"-query", "alpha,beta")
	for _, frag := range []string{"[apply] starting 3 agents on tcp",
		"latest bandwidth readings", "estimate alpha -> beta"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("nwsmanager -tcp output misses %q:\n%s", frag, out)
		}
	}

	// The self-healing loop over a seeded crash scenario is the
	// scenario lab's: the victim is cut out and folded back in after it
	// heals. Exit status 0 and PASS mean every gate of crash.json held,
	// converged (last round drift-free, plan complete), repairs_min and
	// recovery_p95_max_sec among them.
	out = run(scenlab, "run", "-scenario", filepath.Join("scenarios", "crash.json"),
		"-seed", "42", "-out", filepath.Join(dir, "lab"))
	if !strings.HasPrefix(out, "PASS") {
		t.Fatalf("scenlab run crash.json did not pass:\n%s", out)
	}
	// The same gates on the ENS-Lyon testbed (two mapping runs across
	// the firewall), the topology this case ran on before the lab
	// owned it.
	var spec map[string]any
	if data, err = os.ReadFile(filepath.Join("scenarios", "crash.json")); err == nil {
		err = json.Unmarshal(data, &spec)
	}
	if err != nil {
		t.Fatal(err)
	}
	spec["name"], spec["topology"] = "crash-enslyon", map[string]string{"kind": "enslyon"}
	ensCrash := filepath.Join(dir, "crash-enslyon.json")
	if data, err = json.Marshal(spec); err == nil {
		err = os.WriteFile(ensCrash, data, 0o644)
	}
	if err != nil {
		t.Fatal(err)
	}
	out = run(scenlab, "run", "-scenario", ensCrash, "-seed", "42", "-out", filepath.Join(dir, "lab"))
	if !strings.HasPrefix(out, "PASS") {
		t.Fatalf("scenlab run crash on ENS-Lyon did not pass:\n%s", out)
	}

	// A simulated watch has nothing to repair: -watch needs -tcp.
	cmd := exec.Command(nwsmanager, "-topo", topoFile, "-watch")
	msg, err = cmd.CombinedOutput()
	if cmd.ProcessState == nil || cmd.ProcessState.ExitCode() != 2 || !strings.Contains(string(msg), "-watch requires -tcp") {
		t.Fatalf("nwsmanager -topo -watch: %v, want exit 2 naming -tcp\n%s", err, msg)
	}
	// A non-positive reconcile period is refused, not replaced.
	cmd = exec.Command(nwsmanager, "-tcp", "-hosts", "alpha,beta", "-watch", "-duration", "1s", "-reconcile-interval", "0")
	msg, err = cmd.CombinedOutput()
	if cmd.ProcessState == nil || cmd.ProcessState.ExitCode() != 2 || !strings.Contains(string(msg), "-reconcile-interval") {
		t.Fatalf("nwsmanager -reconcile-interval 0: %v, want exit 2 naming the flag\n%s", err, msg)
	}

	// The watch loop on the TCP platform (wall clock).
	out = run(nwsmanager, "-tcp", "-hosts", "alpha,beta,gamma", "-watch",
		"-duration", "3s", "-reconcile-interval", "1s")
	if !strings.Contains(out, "watch:") || !strings.Contains(out, "3 hosts live") {
		t.Fatalf("nwsmanager -tcp -watch output:\n%s", out)
	}
}

// TestCLIGracefulShutdown: SIGINT must stop the long-running TCP watch
// cleanly — sockets closed, final metrics report flushed, exit 0.
func TestCLIGracefulShutdown(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := filepath.Join(t.TempDir(), "nwsmanager")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/nwsmanager")
	if msg, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, msg)
	}

	proc := exec.Command(bin, "-tcp", "-hosts", "alpha,beta,gamma", "-watch",
		"-duration", "60s", "-reconcile-interval", "1s")
	var buf strings.Builder
	proc.Stdout = &buf
	proc.Stderr = &buf
	if err := proc.Start(); err != nil {
		t.Fatal(err)
	}
	// Give it time to deploy and run a round, then interrupt.
	time.Sleep(3 * time.Second)
	if err := proc.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- proc.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("interrupted watch exited uncleanly: %v\n%s", err, buf.String())
		}
	case <-time.After(15 * time.Second):
		proc.Process.Kill()
		t.Fatalf("interrupted watch did not exit\n%s", buf.String())
	}
	out := buf.String()
	for _, frag := range []string{"interrupted: flushing final report", "watch:", "latest bandwidth readings"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("shutdown output misses %q:\n%s", frag, out)
		}
	}
}

// TestCLITCPPairwise: -pairwise must reach the TCP platform too. The
// loopback segment is one switched clique; under the pairwise scheduler
// it measures every pair without ever passing a token, so the run's
// telemetry carries bandwidth readings but no clique/token_passes.
func TestCLITCPPairwise(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := filepath.Join(t.TempDir(), "nwsmanager")
	if msg, err := exec.Command("go", "build", "-o", bin, "./cmd/nwsmanager").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, msg)
	}
	tele := t.TempDir()
	out, err := exec.Command(bin, "-tcp", "-hosts", "alpha,beta,gamma", "-duration", "2s",
		"-pairwise", "-telemetry", tele).CombinedOutput()
	if err != nil {
		t.Fatalf("nwsmanager -tcp -pairwise: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "alpha -> beta") {
		t.Fatalf("pairwise run measured nothing:\n%s", out)
	}
	metrics, err := os.ReadFile(filepath.Join(tele, "metrics.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(metrics), "clique/token_passes") {
		t.Fatalf("-tcp -pairwise still ran a token ring:\n%s", metrics)
	}
}
