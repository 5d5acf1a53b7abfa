// Package replica is the replication plane for NWS series storage: a
// placement solver giving every memory primary k replicas on distinct
// switches, and an asynchronous write fan-out with a bounded in-flight
// window that stamps every store with the primary's cumulative sample
// total, from which replicas derive their per-series lag watermark. The
// paper's §4.3 "possible platform evolution" discussion calls out
// exactly this availability gap: a memory-server crash loses every
// history it held until sensors repopulate. With a replica set, the
// query plane fails over to a survivor and reconcile backfills a new
// primary from it — no sensor repopulation needed.
package replica

import "nwsenv/internal/telemetry"

// Metrics bundles the replication-plane instruments. All fields are
// nil-safe: a zero Metrics (no registry) counts nothing.
type Metrics struct {
	// Writes counts stores and windows delivered to replicas
	// (replica/writes_total).
	Writes *telemetry.Counter
	// Frames counts the fan-out frames that carried them
	// (replica/fanout_messages): Writes/Frames is the stores per frame.
	// NewMetrics leaves it nil; a server that fans out registers it, so
	// a run without replication reports no such key.
	Frames *telemetry.Counter
	// Failovers counts query-plane failovers to a replica after the
	// primary went down (replica/failovers_total).
	Failovers *telemetry.Counter
	// Backfill counts samples restored onto a new primary by
	// anti-entropy repair (replica/backfill_samples).
	Backfill *telemetry.Counter
	// Drops counts fan-out stores shed because a replica's bounded
	// in-flight window was full (replica/fanout_drops).
	Drops *telemetry.Counter
	// Lag observes the per-series lag watermark replicas compute on
	// every applied store (replica/lag).
	Lag *telemetry.Histogram
}

// NewMetrics registers the replication instruments in reg (nil reg
// yields a fully nil-safe zero bundle).
func NewMetrics(reg *telemetry.Registry) Metrics {
	return Metrics{
		Writes:    reg.Counter("replica", "writes_total", nil),
		Failovers: reg.Counter("replica", "failovers_total", nil),
		Backfill:  reg.Counter("replica", "backfill_samples", nil),
		Drops:     reg.Counter("replica", "fanout_drops", nil),
		Lag:       reg.Histogram("replica", "lag", nil),
	}
}
