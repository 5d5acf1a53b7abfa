// Package core is the paper's contribution end to end: automatic NWS
// deployment driven by ENV mapping, as a staged pipeline over an
// abstract platform. The three phases the introduction identifies —
// gather the underlying network topology, compute a deployment plan,
// apply it on the platform — are Pipeline.Map, Pipeline.Plan and
// Pipeline.Apply; each stage returns its intermediate artifact and
// honors context cancellation. The platform (simulated testbed or real
// TCP sockets) is injected through platform.Platform, so the same
// pipeline code path drives both.
package core

import (
	"nwsenv/internal/deploy"
	"nwsenv/internal/env"
)

// MapRun describes one ENV run (one firewall side).
type MapRun struct {
	// Master is the run's point of view (node ID).
	Master string
	// Hosts are the node IDs mapped by this run.
	Hosts []string
	// Names maps node IDs to display FQDNs (optional).
	Names map[string]string
	// Thresholds default to the paper's values.
	Thresholds env.Thresholds
	// StrictPaper selects the unmodified §4.2.2.4 classification.
	StrictPaper bool
	// Bidirectional also measures host→master bandwidth, exposing
	// asymmetric routes (§4.3 future work).
	Bidirectional bool
}

// Outcome is everything a full pipeline run produced.
type Outcome struct {
	// Results holds the per-run mapping results in Runs order.
	Results []*env.Result
	// Merged is the unified mapping.
	Merged *env.Merged
	// Plan is the §5.1 deployment plan.
	Plan *deploy.Plan
	// Validation checks the plan's §2.3 constraints against the true
	// topology.
	Validation *deploy.Validation
	// Deployment is the running system.
	Deployment *deploy.Deployment
	// Resolve maps canonical machine names to node IDs.
	Resolve map[string]string
}
