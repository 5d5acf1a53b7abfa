package platform

import (
	"nwsenv/internal/deploy"
	"nwsenv/internal/env"
	"nwsenv/internal/nws/proto"
	"nwsenv/internal/simnet"
)

// SimPlatform runs the pipeline on the discrete-event simulator: virtual
// time, simulated transfers, and ground-truth validation against the
// true topology. Pipeline stages must be called from a simulation
// process (sim.Go).
type SimPlatform struct {
	net *simnet.Network
	tr  *proto.SimTransport
}

// NewSimPlatform bundles a simulated network and its transport.
func NewSimPlatform(net *simnet.Network, tr *proto.SimTransport) *SimPlatform {
	return &SimPlatform{net: net, tr: tr}
}

// Name implements Platform.
func (p *SimPlatform) Name() string { return "sim" }

// Transport implements Platform.
func (p *SimPlatform) Transport() proto.Transport { return p.tr }

// Substrate implements Platform.
func (p *SimPlatform) Substrate() env.Substrate { return env.SimSubstrate{Net: p.net} }

// ResetAccounting implements Platform.
func (p *SimPlatform) ResetAccounting() { p.net.ResetAccounting() }

// Alive implements Platform: a node is alive unless unknown or crashed
// (simnet.Network.CrashHost).
func (p *SimPlatform) Alive(id string) bool {
	return p.net.Topology().Node(id) != nil && !p.net.HostDown(id)
}

// ValidatePlan implements Platform against the true topology.
func (p *SimPlatform) ValidatePlan(plan *deploy.Plan, resolve map[string]string) (*deploy.Validation, error) {
	return deploy.Validate(plan, p.net.Topology(), resolve)
}

// Network exposes the underlying simulated network (for observation and
// accounting in tests and examples).
func (p *SimPlatform) Network() *simnet.Network { return p.net }
