// Package platform abstracts the substrate a deployment pipeline runs
// on. The paper's contribution — gather topology with ENV, compute a
// plan, apply it — is explicitly meant for real grids, so nothing above
// this package may assume a simulator: a Platform bundles the runtime
// (time + concurrency), the message transport, the one measurement
// surface that answers both ENV's probes and the sensors' (and names
// the hosts), and the accounting hook that used to be passed around as
// loose simulator-typed arguments.
//
// Two implementations are provided: SimPlatform wraps the discrete-event
// simulator standing in for the 2003 ENS-Lyon testbed, and TCPPlatform
// runs the same pipeline over real loopback TCP sockets on the wall
// clock.
package platform

import (
	"nwsenv/internal/deploy"
	"nwsenv/internal/env"
	"nwsenv/internal/nws/proto"
)

// Platform is everything the staged Map/Plan/Apply pipeline needs from
// the world underneath it.
type Platform interface {
	// Name identifies the platform kind ("sim", "tcp", ...).
	Name() string
	// Transport delivers control-plane messages between hosts; its
	// Runtime provides time and concurrency for NWS components.
	Transport() proto.Transport
	// Substrate answers every probe run on the platform: the
	// user-level observables ENV maps with, the §2.2 experiments the
	// sensors run, and each host's name (HostInfo).
	Substrate() env.Substrate
	// Alive reports whether the node currently responds at all: the
	// liveness a reconcile loop reads to notice §4.3 "platform
	// evolution" (machines dying, joining or rebooting) without waiting
	// for probe timeouts. Reachability along a particular path is still
	// probed through the Substrate.
	Alive(id string) bool
	// ResetAccounting separates the mapping era from the monitoring era
	// in the platform's traffic accounting (no-op where not applicable).
	ResetAccounting()
	// ValidatePlan checks a deployment plan's §2.3 constraints: against
	// ground truth where the platform knows it (the simulator's true
	// topology), the topology-independent connectivity check otherwise.
	ValidatePlan(plan *deploy.Plan, resolve map[string]string) (*deploy.Validation, error)
}
