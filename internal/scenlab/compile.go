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
			HubFraction:     g.HubFraction,
			VLANsPerSite:    g.VLANsPerSite,
			SiteDomains:     g.SiteDomains,
			Seed:            seed,
		})
		return tp, singleRun(tp), nil
	case "lan":
		tp, _ := topo.RandomLAN(seed, t.LAN.Subnets, t.LAN.HostsPerSubnet)
		return tp, singleRun(tp), nil
	case "enslyon":
		spec := topo.EnsLyonSpec()
		tp, err := spec.Build()
		if err != nil {
			return nil, nil, fmt.Errorf("scenlab: enslyon: %w", err)
		}
		var runs []core.MapRun
		for _, r := range spec.Runs(tp) {
			runs = append(runs, core.MapRun{Master: r.Master, Hosts: r.Hosts, Names: r.Names})
		}
		return tp, runs, nil
	}
	return nil, nil, fmt.Errorf("scenlab: unknown topology kind %q", t.Kind)
}

// singleRun maps every host (minus the external traceroute target) in
// one run anchored at the first host in creation order.
func singleRun(tp *simnet.Topology) []core.MapRun {
	var hosts []string
	for _, h := range tp.HostIDs() {
		if h != tp.ExternalTarget {
			hosts = append(hosts, h)
		}
	}
	if len(hosts) == 0 {
		return nil
	}
	return []core.MapRun{{Master: hosts[0], Hosts: hosts}}
}

// PlanVictims derives the deterministic fault-victim candidates of a
// deployed plan: every non-master plan host resolved to its node ID
// (plan order), plus each victim's first access link. The master is
// never a victim — dead-master reconciliation is exercised by the test
// suite; scenarios keep the narrator alive.
func PlanVictims(plan *deploy.Plan, resolve map[string]string, tp *simnet.Topology) (victims []string, links [][2]string) {
	return victimPool(plan.Hosts, plan.Master, resolve, tp)
}

// PlanVictimsFor derives the victim pool a fault spec asks for:
// target "memory" restricts the candidates to the plan's non-master
// memory primaries, so every injection provably hits series storage
// (the replication scenarios' k=0 vs k=1 comparison needs faults that
// cannot dodge the memory plane); the default pool is every
// non-master plan host.
func PlanVictimsFor(f FaultSpec, plan *deploy.Plan, resolve map[string]string, tp *simnet.Topology) (victims []string, links [][2]string) {
	if f.Target == "memory" {
		return victimPool(plan.MemoryServers, plan.Master, resolve, tp)
	}
	return PlanVictims(plan, resolve, tp)
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

// Compile lowers the declarative fault onto the simnet.Scenario
// vocabulary against concrete victims. origin is the virtual time the
// fault clock starts from (the inject phase start); every event lands at
// origin + start_sec (+ i×spacing_sec). All randomness — victim
// choice, mixed-fault jitter — flows from the seed, so one
// (spec, topology, seed) triple always replays the same schedule.
func (f FaultSpec) Compile(seed int64, origin time.Duration, victims []string, links [][2]string) (simnet.Scenario, error) {
	if f.Kind == FaultNone {
		return simnet.Scenario{Name: string(FaultNone)}, nil
	}
	if err := f.validate("compile"); err != nil {
		return simnet.Scenario{}, err
	}
	if len(victims) == 0 {
		return simnet.Scenario{}, fmt.Errorf("scenlab: fault %s: no non-master victims", f.Kind)
	}
	needsLinks := f.Kind == FaultPartition || f.Kind == FaultDegrade || f.Kind == FaultMultiPartition
	if needsLinks && len(links) == 0 {
		return simnet.Scenario{}, fmt.Errorf("scenlab: fault %s: no victim access links", f.Kind)
	}
	rng := rand.New(rand.NewSource(seed))
	start := origin + f.Start()
	heal := f.HealAfter()
	switch f.Kind {
	case FaultCrash:
		return simnet.CrashScenario(victims[rng.Intn(len(victims))], start, heal), nil
	case FaultPartition:
		l := links[rng.Intn(len(links))]
		return simnet.PartitionScenario(l[0], l[1], start, heal), nil
	case FaultDegrade:
		l := links[rng.Intn(len(links))]
		return simnet.DegradeScenario(l[0], l[1], f.Factor, start, heal), nil
	case FaultChurn:
		n := f.Victims
		if n > len(victims) {
			n = len(victims)
		}
		shuffled := append([]string(nil), victims...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		return simnet.ChurnScenario(shuffled[:n], start, f.Spacing(), heal), nil
	case FaultMixed:
		return simnet.MixedScenario(seed, victims, links, start, f.Spacing(), heal, f.Rounds), nil
	case FaultMultiPartition:
		return multiPartition(f, start, links), nil
	}
	return simnet.Scenario{}, fmt.Errorf("scenlab: unknown fault kind %q", f.Kind)
}

// multiPartition staggers link cuts across victims spread evenly over
// the candidate list. The candidates arrive in plan order — on a
// SyntheticGrid that is host-id order, so an even stride lands the
// cuts in distinct sites: the staggered multi-site partition the file
// format adds over the migrated presets. Overlap is controlled by
// spacing vs heal_after: spacing < heal_after keeps several sites
// partitioned at once.
func multiPartition(f FaultSpec, start time.Duration, links [][2]string) simnet.Scenario {
	n := f.Victims
	if n > len(links) {
		n = len(links)
	}
	s := simnet.Scenario{Name: string(FaultMultiPartition)}
	for i := 0; i < n; i++ {
		l := links[i*len(links)/n]
		at := start + time.Duration(i)*f.Spacing()
		s.Events = append(s.Events,
			simnet.FaultEvent{At: at, Kind: simnet.FaultCut, LinkA: l[0], LinkB: l[1]},
			simnet.FaultEvent{At: at + f.HealAfter(), Kind: simnet.FaultHeal, LinkA: l[0], LinkB: l[1]})
	}
	sort.SliceStable(s.Events, func(i, j int) bool { return s.Events[i].At < s.Events[j].At })
	return s
}
