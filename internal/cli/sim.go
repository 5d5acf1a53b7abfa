// Package cli shares the simulated-platform bootstrap the command-line
// tools and the scenario lab repeat: read a topology spec, build the
// network, wrap it as a Platform, and drive the virtual clock through
// a deploy. The spec's mapping runs come from topo.Spec.Runs.
package cli

import (
	"context"
	"fmt"
	"os"
	"time"

	"nwsenv/internal/core"
	"nwsenv/internal/nws/proto"
	"nwsenv/internal/platform"
	"nwsenv/internal/simnet"
	"nwsenv/internal/topo"
	"nwsenv/internal/vclock"
)

// SimEnv bundles everything a command needs to drive the pipeline on a
// simulated platform built from a spec file.
type SimEnv struct {
	Spec *topo.Spec
	Topo *simnet.Topology
	Sim  *vclock.Sim
	Net  *simnet.Network
	Plat *platform.SimPlatform
}

// LoadSim reads and builds a topology spec file into a ready simulated
// platform.
func LoadSim(topoFile string) (*SimEnv, error) {
	data, err := os.ReadFile(topoFile)
	if err != nil {
		return nil, err
	}
	spec, err := topo.DecodeSpec(data)
	if err != nil {
		return nil, err
	}
	tp, err := spec.Build()
	if err != nil {
		return nil, err
	}
	sim := vclock.New()
	net := simnet.NewNetwork(sim, tp)
	return &SimEnv{
		Spec: spec,
		Topo: tp,
		Sim:  sim,
		Net:  net,
		Plat: platform.NewSimPlatform(net, proto.NewSimTransport(net)),
	}, nil
}

// DeploySim runs the whole pipeline in a simulation process and drives
// the virtual clock until it finishes. Time advances a minute at a
// time: once the deployment is applied its agents generate events
// forever, so one long RunUntil would simulate hours of monitoring
// before returning. The clock is left on the step boundary after the
// deploy, the base every later timestamp of a run counts from.
func DeploySim(sim *vclock.Sim, pl *core.Pipeline, runs []core.MapRun) (*core.Outcome, error) {
	var out *core.Outcome
	var pipeErr error
	done := false
	sim.Go("pipeline", func() {
		out, pipeErr = pl.Deploy(context.Background(), runs...)
		done = true
	})
	finished, err := sim.Drive(time.Minute, 240*time.Hour, func() bool { return done })
	if err != nil {
		return nil, err
	}
	if pipeErr != nil {
		return nil, pipeErr
	}
	if !finished {
		return nil, fmt.Errorf("pipeline did not finish within the virtual time budget")
	}
	return out, nil
}
