package scenlab

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"nwsenv/internal/core"
	"nwsenv/internal/deploy"
	"nwsenv/internal/simnet"
	"nwsenv/internal/topo"
)

// Build materializes the declared topology, seeded by the scenario
// seed, and derives the pipeline mapping runs for it.
func (t TopologySpec) Build(seed int64) (*simnet.Topology, []core.MapRun, error) {
	switch t.Kind {
	case "grid":
		g := t.Grid
		tp, _ := topo.SyntheticGrid(topo.GridConfig{
			Sites:           g.Sites,
			SwitchesPerSite: g.SwitchesPerSite,
			HostsPerSwitch:  g.HostsPerSwitch,
			SiteDomains:     g.SiteDomains,
			Seed:            seed,
		})
		return tp, topo.MapAll(tp), nil
	case "lan":
		tp, _ := topo.RandomLAN(seed, t.LAN.Subnets, t.LAN.HostsPerSubnet)
		return tp, topo.MapAll(tp), nil
	case "enslyon":
		spec := topo.EnsLyonSpec()
		tp, err := spec.Build()
		if err != nil {
			return nil, nil, fmt.Errorf("scenlab: enslyon: %w", err)
		}
		return tp, spec.Runs(tp), nil
	}
	return nil, nil, fmt.Errorf("scenlab: unknown topology kind %q", t.Kind)
}

// PlanVictimsFor derives the deterministic fault-victim candidates of
// a deployed plan for a fault spec: the non-master plan hosts (target
// "memory": the non-master memory primaries, so every injection
// provably hits series storage, as the replication scenarios' k=0 vs
// k=1 comparison needs) resolved to node IDs in plan order, plus each
// victim's first access link. The master is never a victim:
// dead-master reconciliation is exercised by the test suite; scenarios
// keep the narrator alive.
func PlanVictimsFor(f FaultSpec, plan *deploy.Plan, resolve map[string]string, tp *simnet.Topology) (victims []string, links [][2]string) {
	hosts := plan.Hosts
	if f.Target == "memory" {
		hosts = plan.MemoryServers
	}
	return victimPool(hosts, plan.Master, resolve, tp)
}

func victimPool(hosts []string, master string, resolve map[string]string, tp *simnet.Topology) (victims []string, links [][2]string) {
	for _, h := range hosts {
		if h == master {
			continue
		}
		if id, ok := resolve[h]; ok {
			victims = append(victims, id)
		}
	}
	for _, id := range victims {
		for _, l := range tp.Links() {
			if l.A == id {
				links = append(links, [2]string{l.A, l.B})
				break
			}
			if l.B == id {
				links = append(links, [2]string{l.B, l.A})
				break
			}
		}
	}
	return victims, links
}

// FaultEvent is one scheduled injection: a simnet.Network fault
// primitive at a virtual time.
type FaultEvent struct {
	// At is the virtual time of the injection.
	At time.Duration
	// Kind names the primitive: crash, restore, cut, heal, degrade or
	// restore-link.
	Kind string
	// Host is the victim of crash/restore events.
	Host string
	// LinkA, LinkB name the victim link of cut/heal/degrade events.
	LinkA, LinkB string
	// Factor is the degrade capacity factor.
	Factor float64
}

// undo names the primitive that heals each fault.
var undo = map[string]string{"crash": "restore", "cut": "heal", "degrade": "restore-link"}

// apply injects the event into net, immediately.
func (e FaultEvent) apply(net *simnet.Network) {
	switch e.Kind {
	case "crash":
		net.CrashHost(e.Host)
	case "restore":
		net.RestoreHost(e.Host)
	case "cut":
		net.CutLink(e.LinkA, e.LinkB)
	case "heal":
		net.HealLink(e.LinkA, e.LinkB)
	case "degrade":
		net.DegradeLink(e.LinkA, e.LinkB, e.Factor)
	case "restore-link":
		net.RestoreLink(e.LinkA, e.LinkB)
	default:
		panic(fmt.Sprintf("scenlab: unknown fault event kind %q", e.Kind))
	}
}

// Compile lowers the declarative fault onto a schedule of Network
// primitives against concrete victims, ordered by time (stably, so
// simultaneous events keep their generation order). origin is the
// virtual time the fault clock starts from (the inject phase start);
// fault i lands at origin + start_sec (+ i×spacing_sec, plus a seeded
// jitter of up to a quarter spacing for mixed) and heals heal_after_sec
// later (never, for a crash, partition or degrade with no heal_after).
// All randomness — victim choice, churn order, mixed jitter and
// degrade factors — flows from one source seeded with seed, so one
// (spec, victims, seed) triple always replays the same schedule.
func (f FaultSpec) Compile(seed int64, origin time.Duration, victims []string, links [][2]string) ([]FaultEvent, error) {
	if f.Kind == FaultNone {
		return nil, nil
	}
	if err := f.validate("compile"); err != nil {
		return nil, err
	}
	if len(victims) == 0 {
		return nil, fmt.Errorf("scenlab: fault %s: no non-master victims", f.Kind)
	}
	needsLinks := f.Kind == FaultPartition || f.Kind == FaultDegrade || f.Kind == FaultMultiPartition
	if needsLinks && len(links) == 0 {
		return nil, fmt.Errorf("scenlab: fault %s: no victim access links", f.Kind)
	}
	rng := rand.New(rand.NewSource(seed))
	start, heal := origin+f.Start(), f.HealAfter()
	var events []FaultEvent
	// inject schedules a fault at `at` and, heal later, its undo.
	inject := func(at time.Duration, kind, host string, link [2]string, factor float64) {
		events = append(events, FaultEvent{At: at, Kind: kind, Host: host, LinkA: link[0], LinkB: link[1], Factor: factor})
		if heal > 0 {
			events = append(events, FaultEvent{At: at + heal, Kind: undo[kind], Host: host, LinkA: link[0], LinkB: link[1]})
		}
	}
	var noLink [2]string
	switch f.Kind {
	case FaultCrash:
		inject(start, "crash", victims[rng.Intn(len(victims))], noLink, 0)
	case FaultPartition:
		inject(start, "cut", "", links[rng.Intn(len(links))], 0)
	case FaultDegrade:
		inject(start, "degrade", "", links[rng.Intn(len(links))], f.Factor)
	case FaultChurn:
		// Each of up to `victims` shuffled hosts leaves in turn and
		// rejoins heal_after later, so membership keeps shifting.
		shuffled := append([]string(nil), victims...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		for i, h := range shuffled[:min(f.Victims, len(shuffled))] {
			inject(start+time.Duration(i)*f.Spacing(), "crash", h, noLink, 0)
		}
	case FaultMixed:
		// Rounds cycle crash, cut, degrade (crash only without links);
		// each draws its jitter, then its victim, then a degrade factor.
		for i := 0; i < f.Rounds; i++ {
			at := start + time.Duration(i)*f.Spacing() + time.Duration(rng.Int63n(int64(f.Spacing()/4)))
			switch {
			case i%3 == 0 || len(links) == 0:
				inject(at, "crash", victims[rng.Intn(len(victims))], noLink, 0)
			case i%3 == 1:
				inject(at, "cut", "", links[rng.Intn(len(links))], 0)
			default:
				l := links[rng.Intn(len(links))]
				inject(at, "degrade", "", l, 0.1+0.3*rng.Float64())
			}
		}
	case FaultMultiPartition:
		// Cuts stagger across victims spread evenly over the candidate
		// list. The candidates arrive in plan order — on a SyntheticGrid
		// that is host-id order, so an even stride lands the cuts in
		// distinct sites. spacing < heal_after keeps several sites
		// partitioned at once.
		n := min(f.Victims, len(links))
		for i := 0; i < n; i++ {
			inject(start+time.Duration(i)*f.Spacing(), "cut", "", links[i*len(links)/n], 0)
		}
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
	return events, nil
}
