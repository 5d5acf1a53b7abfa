package nwsenv

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestCLIPipeline builds the four command-line tools and runs the full
// file-based workflow of the README: generate the ENS-Lyon topology, map
// it with ENV, derive and validate the plan, and run the monitoring
// system with a composed query.
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

	out = run(nwsdeploy, "-gridml", mapping, "-master", "the-doors.ens-lyon.fr",
		"-topo", topoFile, "-o", plan)
	if !strings.Contains(out, "complete=true") {
		t.Fatalf("nwsdeploy did not validate complete:\n%s", out)
	}

	out = run(nwsmanager, "-topo", topoFile, "-plan", plan, "-gridml", mapping,
		"-duration", "2m", "-query", "moby.cri2000.ens-lyon.fr,sci3.popc.private")
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

	// The self-healing watch loop over a seeded crash scenario: the
	// victim is cut out, folded back in after it heals, and the loop
	// reports convergence (exit status 0 enforces it).
	out = run(nwsmanager, "-topo", topoFile, "-watch", "-scenario", "crash",
		"-seed", "42", "-duration", "14m", "-reconcile-interval", "2m")
	for _, frag := range []string{"watched 14m0s of virtual time", "recovery:",
		"converged=true", "complete=true"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("nwsmanager -watch output misses %q:\n%s", frag, out)
		}
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
