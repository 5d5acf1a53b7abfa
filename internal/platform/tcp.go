package platform

import (
	"nwsenv/internal/deploy"
	"nwsenv/internal/env"
	"nwsenv/internal/nws/proto"
)

// TCPPlatform runs the pipeline over real loopback TCP sockets on the
// wall clock: the RealRuntime for time and goroutines, and codec-framed
// messages between per-host listeners. Every probe, the mapper's and
// the sensors', is answered by a StaticSubstrate describing the segment
// (loopback has no interesting bandwidth physics), so Map→Plan→Apply
// drives a real-socket deployment end to end without a simulator in
// the process.
type TCPPlatform struct {
	tr  *proto.TCPTransport
	sub *StaticSubstrate
}

// NewTCPPlatform builds a loopback platform for the given host IDs.
func NewTCPPlatform(hosts []string) *TCPPlatform {
	tr := proto.NewTCPTransport()
	p := &TCPPlatform{tr: tr, sub: NewStaticSubstrate(hosts)}
	p.sub.Clock = tr.Runtime().Now
	return p
}

// Name implements Platform.
func (p *TCPPlatform) Name() string { return "tcp" }

// Transport implements Platform.
func (p *TCPPlatform) Transport() proto.Transport { return p.tr }

// Substrate implements Platform. Loopback hosts have no DNS name, so
// the pipeline knows them by node ID.
func (p *TCPPlatform) Substrate() env.Substrate { return p.sub }

// Alive implements Platform: a loopback host is alive while its agent's
// endpoint is open. (Before Apply no endpoint exists, so health checks
// only make sense against a running deployment — exactly when the
// reconcile loop asks.)
func (p *TCPPlatform) Alive(id string) bool { return p.tr.Active(id) }

// ResetAccounting implements Platform (no-op: the kernel owns loopback
// traffic accounting).
func (p *TCPPlatform) ResetAccounting() {}

// ValidatePlan implements Platform: loopback has no topology to check
// collisions against, so only connectivity is validated.
func (p *TCPPlatform) ValidatePlan(plan *deploy.Plan, resolve map[string]string) (*deploy.Validation, error) {
	return deploy.ValidateConnectivity(plan), nil
}
