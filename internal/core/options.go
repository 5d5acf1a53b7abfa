package core

import (
	"fmt"
	"time"

	"nwsenv/internal/telemetry"
)

// Phase identifies a pipeline stage for progress observers.
type Phase string

const (
	// PhaseMap is the ENV topology-gathering stage.
	PhaseMap Phase = "map"
	// PhasePlan is the §5.1 planning (and validation) stage.
	PhasePlan Phase = "plan"
	// PhaseApply is the §5.2 deployment stage.
	PhaseApply Phase = "apply"
	// PhaseReconcile is the §4.3 platform-evolution stage: a control
	// plane re-entering Map and Plan against a live deployment and
	// applying the delta.
	PhaseReconcile Phase = "reconcile"
)

// Field is one structured event attribute; fields are an ordered list
// so renderings stay deterministic.
type Field struct {
	Key   string
	Value string
}

// F builds a Field from any value.
func F(key string, value interface{}) Field {
	return Field{Key: key, Value: fmt.Sprint(value)}
}

// Event is one pipeline progress event. Name identifies the step
// machine-readably ("env_run", "planned", "agents_starting", ...),
// Fields carry its values, and Detail is the same step as the
// human-readable line CLIs print.
type Event struct {
	Phase  Phase
	Name   string
	Fields []Field
	Detail string
}

// EventFunc observes pipeline events: phase transitions and per-phase
// progress.
type EventFunc func(Event)

// config collects the pipeline's tunables; Options build it.
type config struct {
	gridLabel        string
	master           string
	tokenGap         time.Duration
	hostSensorPeriod time.Duration
	replication      int
	gateways         int
	pairwiseSwitched bool
	autoAliases      bool
	observer         EventFunc
	tele             *telemetry.Registry
}

// Option configures a Pipeline.
type Option func(*config)

// WithGridLabel names the merged GridML document (default "Grid1").
func WithGridLabel(label string) Option {
	return func(c *config) { c.gridLabel = label }
}

// WithMaster sets the canonical machine name hosting the name server and
// forecaster. Defaults to the first run's master.
func WithMaster(name string) Option {
	return func(c *config) { c.master = name }
}

// WithAutoAliases makes Map cross-identify gateways between mapping
// runs (§4.3 firewall handling) by matching machine IPs: dual-homed
// gateways appear in both firewall-side runs under different names but
// the same address.
func WithAutoAliases() Option {
	return func(c *config) { c.autoAliases = true }
}

// WithTokenGap paces the deployed cliques.
func WithTokenGap(gap time.Duration) Option {
	return func(c *config) { c.tokenGap = gap }
}

// WithHostSensors enables CPU/memory sensors sampling at the given
// period.
func WithHostSensors(period time.Duration) Option {
	return func(c *config) { c.hostSensorPeriod = period }
}

// WithReplication gives every memory server k replicas placed on
// distinct switches (0, the default, disables replication): every
// accepted store fans out asynchronously, and the query plane fails
// over to a replica when a primary dies.
func WithReplication(k int) Option {
	return func(c *config) {
		if k > 0 {
			c.replication = k
		}
	}
}

// WithGateways scales the query edge horizontally: n query-gateway
// replicas in total — the primary on the master plus n-1 extras placed
// on distinct switches by the memory-replica placement machinery.
// Clients discovered through gateway.Connect balance across the set
// and fail over on death or typed overload. n <= 1 (the default) keeps
// the single master-hosted gateway.
func WithGateways(n int) Option {
	return func(c *config) {
		if n > 1 {
			c.gateways = n
		}
	}
}

// WithPairwiseSwitched drives switched-network cliques with the
// round-robin pairwise scheduler instead of a token ring (the paper's §6
// relaxation).
func WithPairwiseSwitched() Option {
	return func(c *config) { c.pairwiseSwitched = true }
}

// WithObserver registers the progress hook: every stage report and every
// Pipeline.Observe note flows through it.
func WithObserver(fn EventFunc) Option {
	return func(c *config) { c.observer = fn }
}

// WithTelemetry wires a telemetry registry through the pipeline and
// everything it deploys: stage spans, per-phase event counters, the
// deployed roles' instruments (gateway, clique), and the reconcile
// control plane (which reads it back via Pipeline.Telemetry).
func WithTelemetry(r *telemetry.Registry) Option {
	return func(c *config) { c.tele = r }
}
