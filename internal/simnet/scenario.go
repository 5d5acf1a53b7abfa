package simnet

import (
	"fmt"
	"math/rand"
	"sort"
	"time"
)

// Fault scenarios: deterministic, seeded schedules of fault injections,
// the testbed counterpart of §4.3's "possible platform evolution". A
// Scenario is a pure value — building one performs no side effects and
// the same inputs (including the seed) always produce the same event
// list — so a recovery claim asserted in a test reruns identically in
// CI.

// FaultKind names one injectable fault type.
type FaultKind string

const (
	// FaultCrash takes a node down; FaultRestore brings it back.
	FaultCrash   FaultKind = "crash"
	FaultRestore FaultKind = "restore"
	// FaultCut severs a link (a partition when no alternate path
	// exists); FaultHeal repairs it.
	FaultCut  FaultKind = "cut"
	FaultHeal FaultKind = "heal"
	// FaultDegrade scales a link to Factor × nominal capacity;
	// FaultRestoreLink returns it to nominal.
	FaultDegrade     FaultKind = "degrade"
	FaultRestoreLink FaultKind = "restore-link"
)

// FaultEvent is one scheduled injection.
type FaultEvent struct {
	// At is the virtual time of the injection.
	At time.Duration
	// Kind selects the fault.
	Kind FaultKind
	// Host is the victim of crash/restore events.
	Host string
	// LinkA, LinkB name the victim link of cut/heal/degrade events.
	LinkA, LinkB string
	// Factor is the degrade capacity factor.
	Factor float64
}

// Apply injects the event into net, immediately.
func (e FaultEvent) Apply(net *Network) {
	switch e.Kind {
	case FaultCrash:
		net.CrashHost(e.Host)
	case FaultRestore:
		net.RestoreHost(e.Host)
	case FaultCut:
		net.CutLink(e.LinkA, e.LinkB)
	case FaultHeal:
		net.HealLink(e.LinkA, e.LinkB)
	case FaultDegrade:
		net.DegradeLink(e.LinkA, e.LinkB, e.Factor)
	case FaultRestoreLink:
		net.RestoreLink(e.LinkA, e.LinkB)
	default:
		panic(fmt.Sprintf("simnet: unknown fault kind %q", e.Kind))
	}
}

func (e FaultEvent) String() string {
	switch e.Kind {
	case FaultCrash, FaultRestore:
		return fmt.Sprintf("%s %s", e.Kind, e.Host)
	case FaultDegrade:
		return fmt.Sprintf("%s %s-%s x%.2f", e.Kind, e.LinkA, e.LinkB, e.Factor)
	default:
		return fmt.Sprintf("%s %s-%s", e.Kind, e.LinkA, e.LinkB)
	}
}

// Scenario is a named, ordered fault schedule.
type Scenario struct {
	Name string
	// Seed records the randomness source of generated scenarios (0 for
	// hand-built ones); informational.
	Seed   int64
	Events []FaultEvent
}

// sortEvents orders the schedule by injection time, stably.
func (s *Scenario) sortEvents() {
	sort.SliceStable(s.Events, func(i, j int) bool { return s.Events[i].At < s.Events[j].At })
}

// CrashScenario kills host at the given time and restores it healAfter
// later (healAfter ≤ 0 leaves it dead).
func CrashScenario(host string, at, healAfter time.Duration) Scenario {
	s := Scenario{Name: "crash", Events: []FaultEvent{{At: at, Kind: FaultCrash, Host: host}}}
	if healAfter > 0 {
		s.Events = append(s.Events, FaultEvent{At: at + healAfter, Kind: FaultRestore, Host: host})
	}
	return s
}

// PartitionScenario cuts the a-b link at the given time and heals it
// healAfter later (healAfter ≤ 0 leaves it cut). Cutting a host's only
// access link partitions that host; cutting a router uplink partitions
// a whole subnet.
func PartitionScenario(a, b string, at, healAfter time.Duration) Scenario {
	s := Scenario{Name: "partition", Events: []FaultEvent{{At: at, Kind: FaultCut, LinkA: a, LinkB: b}}}
	if healAfter > 0 {
		s.Events = append(s.Events, FaultEvent{At: at + healAfter, Kind: FaultHeal, LinkA: a, LinkB: b})
	}
	return s
}

// DegradeScenario runs the a-b link at factor × nominal capacity from
// at until at+healAfter (healAfter ≤ 0 leaves it degraded).
func DegradeScenario(a, b string, factor float64, at, healAfter time.Duration) Scenario {
	s := Scenario{Name: "degrade", Events: []FaultEvent{{At: at, Kind: FaultDegrade, LinkA: a, LinkB: b, Factor: factor}}}
	if healAfter > 0 {
		s.Events = append(s.Events, FaultEvent{At: at + healAfter, Kind: FaultRestoreLink, LinkA: a, LinkB: b})
	}
	return s
}

// ChurnScenario cycles through hosts: each leaves (crashes) at start +
// i×interval and rejoins downFor later, so the platform's membership
// keeps shifting.
func ChurnScenario(hosts []string, start, interval, downFor time.Duration) Scenario {
	s := Scenario{Name: "churn"}
	for i, h := range hosts {
		at := start + time.Duration(i)*interval
		s.Events = append(s.Events,
			FaultEvent{At: at, Kind: FaultCrash, Host: h},
			FaultEvent{At: at + downFor, Kind: FaultRestore, Host: h})
	}
	s.sortEvents()
	return s
}

// MixedScenario generates `rounds` faults by cycling round-robin
// through crash, cut and degrade, with the victim host or link and the
// timing jitter drawn from a rand source seeded with seed — the same
// seed always yields the same schedule. Each fault self-heals healAfter
// later, so later rounds hit a (mostly) recovered platform. hosts are
// candidate crash victims; links are candidate cut/degrade victims
// (pass host access links to emulate per-host partitions, or router
// uplinks to partition subnets).
func MixedScenario(seed int64, hosts []string, links [][2]string, start, spacing, healAfter time.Duration, rounds int) Scenario {
	rng := rand.New(rand.NewSource(seed))
	s := Scenario{Name: "mixed", Seed: seed}
	kinds := []FaultKind{FaultCrash, FaultCut, FaultDegrade}
	for i := 0; i < rounds; i++ {
		kind := kinds[i%len(kinds)]
		if len(links) == 0 {
			kind = FaultCrash
		}
		if len(hosts) == 0 && kind == FaultCrash {
			kind = FaultCut
		}
		var jitter time.Duration
		if q := int64(spacing / 4); q > 0 {
			jitter = time.Duration(rng.Int63n(q))
		}
		at := start + time.Duration(i)*spacing + jitter
		switch kind {
		case FaultCrash:
			h := hosts[rng.Intn(len(hosts))]
			s.Events = append(s.Events,
				FaultEvent{At: at, Kind: FaultCrash, Host: h},
				FaultEvent{At: at + healAfter, Kind: FaultRestore, Host: h})
		case FaultCut:
			l := links[rng.Intn(len(links))]
			s.Events = append(s.Events,
				FaultEvent{At: at, Kind: FaultCut, LinkA: l[0], LinkB: l[1]},
				FaultEvent{At: at + healAfter, Kind: FaultHeal, LinkA: l[0], LinkB: l[1]})
		case FaultDegrade:
			l := links[rng.Intn(len(links))]
			factor := 0.1 + 0.3*rng.Float64()
			s.Events = append(s.Events,
				FaultEvent{At: at, Kind: FaultDegrade, LinkA: l[0], LinkB: l[1], Factor: factor},
				FaultEvent{At: at + healAfter, Kind: FaultRestoreLink, LinkA: l[0], LinkB: l[1]})
		}
	}
	s.sortEvents()
	return s
}

// InjectedFault records one applied event and when it actually fired.
type InjectedFault struct {
	Event FaultEvent
	At    time.Duration
}

// ScenarioRun tracks a scheduled scenario's progress.
type ScenarioRun struct {
	net      *Network
	injected []InjectedFault
}

// Schedule arms every event of the scenario on the network's simulation
// clock and returns a handle recording the injections as they fire.
// Must be called before the relevant virtual times pass.
func (s Scenario) Schedule(net *Network) *ScenarioRun {
	run := &ScenarioRun{net: net}
	for _, e := range s.Events {
		e := e
		net.sim.At(e.At, func() {
			e.Apply(net)
			run.injected = append(run.injected, InjectedFault{Event: e, At: net.sim.Now()})
		})
	}
	return run
}

// Injected returns the events applied so far, in injection order.
func (r *ScenarioRun) Injected() []InjectedFault {
	return append([]InjectedFault(nil), r.injected...)
}
