// Package scenlab is the declarative scenario lab: the §4.3
// platform-evolution story run as data, not code. A scenario file
// declares a topology, a seed, three phases (warmup → inject →
// recovery) in virtual time, a fault, and per-scenario SLO assertions.
// It is the one package that knows fault schedules: it compiles the
// fault into timed simnet.Network primitives, arms them on the virtual
// clock, and scores which reconcile round repaired each. The harness
// drives the full pipeline + reconcile loop per scenario, emits
// per-run artifacts (samples.jsonl, summary.json, provenance.json),
// and the assertions double as CI release gates: adding a fault
// workload becomes writing a file under scenarios/.
package scenlab

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// Spec is the on-disk JSON description of one lab scenario. All
// durations are virtual-time seconds: the lab runs on the simulated
// platform, where an hour costs milliseconds.
type Spec struct {
	// Name identifies the scenario; artifact directories are named
	// after it, so it must be filename-safe.
	Name string `json:"name"`
	// Description says what the scenario exercises.
	Description string `json:"description,omitempty"`
	// Claim names the §4.3 claim the scenario pins (EXPERIMENTS.md
	// cross-reference).
	Claim string `json:"claim,omitempty"`
	// Seed drives every random choice of the run: topology jitter,
	// victim selection, fault timing. Same file + same seed replays
	// byte-identically.
	Seed int64 `json:"seed"`
	// Topology declares the platform the scenario runs on.
	Topology TopologySpec `json:"topology"`
	// Replication is the memory-replication factor k handed to the
	// pipeline: every memory server's series get k replicas on
	// distinct switches (0 = off). The replication scenarios score
	// k=0/1/2 on one file via the scenlab run -replicas override.
	Replication int `json:"replication,omitempty"`
	// Gateways is the query-gateway replica count N handed to the
	// pipeline: the primary on the master plus N-1 extras on distinct
	// switches (0 or 1 = the single master-hosted gateway).
	Gateways int `json:"gateways,omitempty"`
	// Phases split the run into warmup → inject → recovery.
	Phases Phases `json:"phases"`
	// Fault is the declarative fault schedule, compiled against the
	// deployed plan.
	Fault FaultSpec `json:"fault"`
	// Jitter, when set, is a network condition for the whole run,
	// beside any fault: every control-plane message waits a seeded
	// random delay on top of its path latency.
	Jitter *JitterSpec `json:"jitter,omitempty"`
	// SLO holds the release-gate assertions evaluated over the run.
	SLO SLOSpec `json:"slo"`
}

// TopologySpec selects the platform. Exactly one of the kinds'
// parameter blocks must be present (enslyon needs none).
type TopologySpec struct {
	// Kind is "grid" (topo.SyntheticGrid), "lan" (topo.RandomLAN) or
	// "enslyon" (the paper testbed preset).
	Kind string `json:"kind"`
	// Grid parameterizes kind "grid".
	Grid *GridSpec `json:"grid,omitempty"`
	// LAN parameterizes kind "lan".
	LAN *LANSpec `json:"lan,omitempty"`
}

// GridSpec sets the topo.GridConfig fields a scenario varies (zero
// fields take its defaults: every segment a switch, one VLAN a site);
// the scenario seed drives the grid's latency jitter.
type GridSpec struct {
	Sites           int `json:"sites"`
	SwitchesPerSite int `json:"switches_per_site"`
	HostsPerSwitch  int `json:"hosts_per_switch"`
	// SiteDomains gives every site its own registrable DNS domain, so
	// the plan places one memory server per site instead of one on the
	// master — the shape the replication scenarios need killable
	// memory primaries from.
	SiteDomains bool `json:"site_domains,omitempty"`
}

// LANSpec parameterizes a seeded random LAN.
type LANSpec struct {
	Subnets        int `json:"subnets"`
	HostsPerSubnet int `json:"hosts_per_subnet"`
}

// JitterSpec sets simnet.Network.SetJitter: each message's extra delay
// is uniform in [0, MaxMS) milliseconds, drawn by a generator seeded
// with Seed (apart from the scenario seed, so one schedule of faults
// can be replayed under several jitter draws). Messages between one
// ordered pair of hosts keep their order.
type JitterSpec struct {
	MaxMS int64 `json:"max_ms"`
	Seed  int64 `json:"seed"`
}

// Max is the bound of the extra delay.
func (j *JitterSpec) Max() time.Duration { return time.Duration(j.MaxMS) * time.Millisecond }

// Phases are the virtual-time spans of the three run phases. All must
// be positive: a scenario without a recovery window cannot assert
// convergence, and a scenario without warmup gates on an unprimed
// monitoring system.
type Phases struct {
	WarmupSec   int64 `json:"warmup_sec"`
	InjectSec   int64 `json:"inject_sec"`
	RecoverySec int64 `json:"recovery_sec"`
}

// Warmup, Inject and Recovery are the spans as durations.
func (p Phases) Warmup() time.Duration   { return time.Duration(p.WarmupSec) * time.Second }
func (p Phases) Inject() time.Duration   { return time.Duration(p.InjectSec) * time.Second }
func (p Phases) Recovery() time.Duration { return time.Duration(p.RecoverySec) * time.Second }

// FaultKind names a declarative fault workload. The first five are the
// single-site presets; multi-partition staggers link cuts
// across distinct victims and is expressible only via the file format.
type FaultKind string

const (
	FaultNone           FaultKind = "none"
	FaultCrash          FaultKind = "crash"
	FaultPartition      FaultKind = "partition"
	FaultDegrade        FaultKind = "degrade"
	FaultChurn          FaultKind = "churn"
	FaultMixed          FaultKind = "mixed"
	FaultMultiPartition FaultKind = "multi-partition"
)

// faultKinds lists the known kinds for error messages, in display order.
var faultKinds = []FaultKind{
	FaultNone, FaultCrash, FaultPartition, FaultDegrade,
	FaultChurn, FaultMixed, FaultMultiPartition,
}

// maxRounds bounds a mixed fault's rounds, each of which Compile turns
// into two events: far above any lab run (the committed scenarios
// inject at most three faults), and small enough that a hostile file
// cannot make Compile allocate without bound.
const maxRounds = 1000

// FaultSpec declares the fault schedule in seed-relative terms: victims
// are chosen deterministically from the deployed plan at compile time,
// never named in the file, so one scenario runs on any topology.
type FaultSpec struct {
	// Kind selects the workload.
	Kind FaultKind `json:"kind"`
	// Target restricts the victim pool: "" (default) draws from every
	// non-master plan host, "memory" from the non-master memory
	// primaries — the hosts whose death exercises replica failover.
	Target string `json:"target,omitempty"`
	// StartSec offsets the first injection from the inject phase start
	// (default 0).
	StartSec int64 `json:"start_sec,omitempty"`
	// HealAfterSec is each fault's self-heal delay. Zero leaves a
	// crash/partition/degrade broken; churn, mixed and multi-partition
	// require it positive.
	HealAfterSec int64 `json:"heal_after_sec,omitempty"`
	// SpacingSec separates successive injections (churn, mixed,
	// multi-partition).
	SpacingSec int64 `json:"spacing_sec,omitempty"`
	// Victims is the number of distinct victims cycled (churn,
	// multi-partition).
	Victims int `json:"victims,omitempty"`
	// Rounds is the number of mixed-fault rounds.
	Rounds int `json:"rounds,omitempty"`
	// Factor is the degrade capacity factor in (0, 1].
	Factor float64 `json:"factor,omitempty"`
}

// Start, HealAfter and Spacing are the offsets as durations.
func (f FaultSpec) Start() time.Duration     { return time.Duration(f.StartSec) * time.Second }
func (f FaultSpec) HealAfter() time.Duration { return time.Duration(f.HealAfterSec) * time.Second }
func (f FaultSpec) Spacing() time.Duration   { return time.Duration(f.SpacingSec) * time.Second }

// SLOSpec holds the per-scenario release-gate assertions. Pointer
// fields are only asserted when present in the file, so a scenario
// gates exactly what it claims.
type SLOSpec struct {
	// RecoveryP95MaxSec bounds the p95 outage-to-recovered latency over
	// the run's repairs, in virtual seconds.
	RecoveryP95MaxSec *float64 `json:"recovery_p95_max_sec,omitempty"`
	// MaxForecastGapTicks bounds the longest run of post-warmup sample
	// ticks during which no probed forecast answered.
	MaxForecastGapTicks *int `json:"max_forecast_gap_ticks,omitempty"`
	// MaxAnswerDeficitTicks bounds the longest run of post-warmup
	// sample ticks during which at least one probed forecast went
	// unanswered — the replication gate: a dead primary with no
	// replica leaves its series' probes dark until repair plus sensor
	// repopulation, while replica failover keeps the deficit near zero.
	MaxAnswerDeficitTicks *int `json:"max_answer_deficit_ticks,omitempty"`
	// RepairRedeployFractionMax bounds the worst single-repair share of
	// redeployed components (1 = a full teardown).
	RepairRedeployFractionMax *float64 `json:"repair_redeploy_fraction_max,omitempty"`
	// RepairsMin asserts the control plane actually repaired at least
	// this many injections (guards the latency gates against passing
	// vacuously on an idle run).
	RepairsMin *int `json:"repairs_min,omitempty"`
	// QueriesMustFlow asserts the final steady-state sample answered
	// every probed pair through the query plane.
	QueriesMustFlow bool `json:"queries_must_flow,omitempty"`
	// Converged asserts the last reconcile round saw no drift and the
	// final plan validates complete.
	Converged bool `json:"converged,omitempty"`
	// Invariants, set to "all", evaluates the four §2.3 predicates of
	// metrics.Invariants (completeness, collision freedom, bounded
	// cliques, one token per clique epoch) after every reconcile round
	// and fails the run if any round breaks one. Unset, nothing is
	// evaluated.
	Invariants string `json:"invariants,omitempty"`
	// Metrics gates on the run's telemetry registry, addressed by
	// flattened metric name (e.g. "reconcile/rounds",
	// "gateway/queue_depth:max", "reconcile/round_sec:p95"). A gate on a
	// metric the run never recorded fails — asserting on a typoed name
	// must not pass vacuously.
	Metrics []MetricGate `json:"metrics,omitempty"`
}

// MetricGate bounds one registry metric. At least one of Min/Max must
// be present; both inclusive.
type MetricGate struct {
	// Metric is the flattened registry name: subsystem/name with
	// optional {labels} and :max/:count/:sum/:p50/:p95/:p99 suffixes.
	Metric string   `json:"metric"`
	Min    *float64 `json:"min,omitempty"`
	Max    *float64 `json:"max,omitempty"`
}

// Decode parses and validates one scenario file. Unknown fields and
// data after the scenario are rejected: a typoed assertion key must not
// silently gate nothing.
func Decode(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenlab: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("scenlab: data after the scenario")
	}
	// An empty list decodes to nil, as the encoder omits it: a spec
	// re-encodes to the spec it was decoded from.
	if len(s.SLO.Metrics) == 0 {
		s.SLO.Metrics = nil
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Validate checks the spec's structural invariants.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenlab: scenario has no name")
	}
	if strings.ContainsAny(s.Name, "/\\ \t") {
		return fmt.Errorf("scenlab: scenario name %q must be filename-safe", s.Name)
	}
	switch s.Topology.Kind {
	case "grid":
		if s.Topology.Grid == nil {
			return fmt.Errorf("scenlab: %s: topology kind grid needs a grid block", s.Name)
		}
	case "lan":
		if s.Topology.LAN == nil {
			return fmt.Errorf("scenlab: %s: topology kind lan needs a lan block", s.Name)
		}
		if s.Topology.LAN.Subnets <= 0 || s.Topology.LAN.HostsPerSubnet <= 0 {
			return fmt.Errorf("scenlab: %s: lan subnets and hosts_per_subnet must be positive", s.Name)
		}
	case "enslyon":
	case "":
		return fmt.Errorf("scenlab: %s: topology kind missing", s.Name)
	default:
		return fmt.Errorf("scenlab: %s: unknown topology kind %q (grid, lan, enslyon)", s.Name, s.Topology.Kind)
	}
	if s.Phases.WarmupSec <= 0 || s.Phases.InjectSec <= 0 || s.Phases.RecoverySec <= 0 {
		return fmt.Errorf("scenlab: %s: phases warmup_sec, inject_sec and recovery_sec must all be positive (got %d/%d/%d)",
			s.Name, s.Phases.WarmupSec, s.Phases.InjectSec, s.Phases.RecoverySec)
	}
	if s.Replication < 0 {
		return fmt.Errorf("scenlab: %s: replication must not be negative", s.Name)
	}
	if s.Gateways < 0 {
		return fmt.Errorf("scenlab: %s: gateways must not be negative", s.Name)
	}
	if s.Jitter != nil && s.Jitter.MaxMS <= 0 {
		return fmt.Errorf("scenlab: %s: jitter max_ms must be positive (got %d)", s.Name, s.Jitter.MaxMS)
	}
	if s.SLO.Invariants != "" && s.SLO.Invariants != "all" {
		return fmt.Errorf("scenlab: %s: slo invariants %q: the only value is \"all\"", s.Name, s.SLO.Invariants)
	}
	for i, m := range s.SLO.Metrics {
		if m.Metric == "" {
			return fmt.Errorf("scenlab: %s: slo metrics[%d] has no metric name", s.Name, i)
		}
		if m.Min == nil && m.Max == nil {
			return fmt.Errorf("scenlab: %s: slo metric %q needs min and/or max", s.Name, m.Metric)
		}
		if m.Min != nil && m.Max != nil && *m.Min > *m.Max {
			return fmt.Errorf("scenlab: %s: slo metric %q has min %g > max %g", s.Name, m.Metric, *m.Min, *m.Max)
		}
	}
	return s.Fault.validate(s.Name)
}

func (f FaultSpec) validate(scenario string) error {
	if f.StartSec < 0 || f.HealAfterSec < 0 || f.SpacingSec < 0 {
		return fmt.Errorf("scenlab: %s: fault offsets must not be negative", scenario)
	}
	if f.Target != "" && f.Target != "memory" {
		return fmt.Errorf("scenlab: %s: unknown fault target %q (known: \"memory\")", scenario, f.Target)
	}
	switch f.Kind {
	case FaultNone, FaultCrash, FaultPartition:
	case FaultDegrade:
		if f.Factor <= 0 || f.Factor > 1 {
			return fmt.Errorf("scenlab: %s: degrade factor must be in (0, 1], got %g", scenario, f.Factor)
		}
	case FaultChurn:
		if f.Victims <= 0 {
			return fmt.Errorf("scenlab: %s: churn needs victims > 0", scenario)
		}
		if f.SpacingSec <= 0 || f.HealAfterSec <= 0 {
			return fmt.Errorf("scenlab: %s: churn needs positive spacing_sec and heal_after_sec", scenario)
		}
	case FaultMixed:
		if f.Rounds <= 0 || f.Rounds > maxRounds {
			return fmt.Errorf("scenlab: %s: mixed needs rounds in [1, %d]", scenario, maxRounds)
		}
		if f.SpacingSec <= 0 || f.HealAfterSec <= 0 {
			return fmt.Errorf("scenlab: %s: mixed needs positive spacing_sec and heal_after_sec", scenario)
		}
	case FaultMultiPartition:
		if f.Victims <= 1 {
			return fmt.Errorf("scenlab: %s: multi-partition needs victims > 1", scenario)
		}
		if f.SpacingSec <= 0 || f.HealAfterSec <= 0 {
			return fmt.Errorf("scenlab: %s: multi-partition needs positive spacing_sec and heal_after_sec", scenario)
		}
	case "":
		return fmt.Errorf("scenlab: %s: fault kind missing (use %q for a fault-free run)", scenario, FaultNone)
	default:
		var known []string
		for _, k := range faultKinds {
			known = append(known, string(k))
		}
		return fmt.Errorf("scenlab: %s: unknown fault kind %q (known: %s)",
			scenario, f.Kind, strings.Join(known, ", "))
	}
	return nil
}

// Every scenario reconciles every reconcileEvery and writes a probe
// sample to samples.jsonl every sampleEvery.
const (
	reconcileEvery = 2 * time.Minute
	sampleEvery    = time.Minute
)

// ReconcileEvery returns the reconcile loop's interval.
func (*Spec) ReconcileEvery() time.Duration { return reconcileEvery }

// File is one loaded scenario with its provenance-relevant raw form.
type File struct {
	Spec *Spec
	// Path is where the file was read from.
	Path string
	// SHA256 is the hex digest of the raw bytes (provenance.json).
	SHA256 string
}

// LoadFile reads, parses and validates one scenario file.
func LoadFile(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenlab: %w", err)
	}
	spec, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	sum := sha256.Sum256(data)
	return &File{Spec: spec, Path: path, SHA256: hex.EncodeToString(sum[:])}, nil
}

// LoadDir loads every *.json scenario in dir, sorted by filename, and
// rejects duplicate scenario names (one definition source).
func LoadDir(dir string) ([]*File, error) {
	paths, err := listDir(dir)
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("scenlab: no *.json scenarios in %s", dir)
	}
	seen := map[string]string{}
	var files []*File
	for _, p := range paths {
		f, err := LoadFile(p)
		if err != nil {
			return nil, err
		}
		if prev, dup := seen[f.Spec.Name]; dup {
			return nil, fmt.Errorf("scenlab: scenario name %q defined by both %s and %s", f.Spec.Name, prev, p)
		}
		seen[f.Spec.Name] = p
		files = append(files, f)
	}
	return files, nil
}

// listDir returns the *.json paths of dir, sorted.
func listDir(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("scenlab: %w", err)
	}
	var paths []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		paths = append(paths, filepath.Join(dir, e.Name()))
	}
	sort.Strings(paths)
	return paths, nil
}
