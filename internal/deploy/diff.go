package deploy

import (
	"fmt"
	"sort"
	"strings"
)

// Diff summarizes what changes between two deployment plans — the
// operational answer to §4.3's "possible platform evolution": re-map the
// platform, re-plan, and apply only the delta instead of redeploying
// everything.
type Diff struct {
	// CliquesAdded / CliquesRemoved are clique names.
	CliquesAdded, CliquesRemoved []string
	// CliquesChanged maps clique name to a member-level summary.
	CliquesChanged map[string]MemberDelta
	// HostsAdded / HostsRemoved list monitored machines entering or
	// leaving the platform.
	HostsAdded, HostsRemoved []string
	// ServerMoves lists placement changes ("nameserver: a -> b").
	ServerMoves []string
}

// MemberDelta lists membership changes of one clique.
type MemberDelta struct {
	Added, Removed []string
}

// Empty reports whether the two plans are operationally identical.
func (d *Diff) Empty() bool {
	return len(d.CliquesAdded) == 0 && len(d.CliquesRemoved) == 0 &&
		len(d.CliquesChanged) == 0 && len(d.HostsAdded) == 0 &&
		len(d.HostsRemoved) == 0 && len(d.ServerMoves) == 0
}

// String renders the diff for operators.
func (d *Diff) String() string {
	if d.Empty() {
		return "no deployment changes\n"
	}
	var b strings.Builder
	for _, h := range d.HostsAdded {
		fmt.Fprintf(&b, "+ host %s\n", h)
	}
	for _, h := range d.HostsRemoved {
		fmt.Fprintf(&b, "- host %s\n", h)
	}
	for _, c := range d.CliquesAdded {
		fmt.Fprintf(&b, "+ clique %s\n", c)
	}
	for _, c := range d.CliquesRemoved {
		fmt.Fprintf(&b, "- clique %s\n", c)
	}
	var names []string
	for n := range d.CliquesChanged {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		md := d.CliquesChanged[n]
		fmt.Fprintf(&b, "~ clique %s: +%v -%v\n", n, md.Added, md.Removed)
	}
	for _, m := range d.ServerMoves {
		fmt.Fprintf(&b, "~ %s\n", m)
	}
	return b.String()
}

// DiffPlans computes the delta from old to new.
func DiffPlans(old, new *Plan) *Diff {
	d := &Diff{CliquesChanged: map[string]MemberDelta{}}

	oldHosts := toSet(old.Hosts)
	newHosts := toSet(new.Hosts)
	d.HostsAdded = setMinus(newHosts, oldHosts)
	d.HostsRemoved = setMinus(oldHosts, newHosts)

	oldCliques := map[string]CliqueSpec{}
	for _, c := range old.Cliques {
		oldCliques[c.Name] = c
	}
	newCliques := map[string]CliqueSpec{}
	for _, c := range new.Cliques {
		newCliques[c.Name] = c
	}
	for name, nc := range newCliques {
		oc, ok := oldCliques[name]
		if !ok {
			d.CliquesAdded = append(d.CliquesAdded, name)
			continue
		}
		added := setMinus(toSet(nc.Members), toSet(oc.Members))
		removed := setMinus(toSet(oc.Members), toSet(nc.Members))
		if len(added)+len(removed) > 0 {
			d.CliquesChanged[name] = MemberDelta{Added: added, Removed: removed}
		}
	}
	for name := range oldCliques {
		if _, ok := newCliques[name]; !ok {
			d.CliquesRemoved = append(d.CliquesRemoved, name)
		}
	}
	sort.Strings(d.CliquesAdded)
	sort.Strings(d.CliquesRemoved)

	if old.NameServer != new.NameServer {
		d.ServerMoves = append(d.ServerMoves, fmt.Sprintf("nameserver: %s -> %s", old.NameServer, new.NameServer))
	}
	if old.Forecaster != new.Forecaster {
		d.ServerMoves = append(d.ServerMoves, fmt.Sprintf("forecaster: %s -> %s", old.Forecaster, new.Forecaster))
	}
	// Gateway moves compare the full replica set, so a dead replica's
	// re-placement shows up as a move that rebuilds exactly the affected
	// hosts.
	if ogs, ngs := strings.Join(old.Gateways, ","), strings.Join(new.Gateways, ","); ogs != ngs {
		d.ServerMoves = append(d.ServerMoves, fmt.Sprintf("gateways: [%s] -> [%s]", ogs, ngs))
	}
	om, nm := strings.Join(old.MemoryServers, ","), strings.Join(new.MemoryServers, ",")
	if om != nm {
		d.ServerMoves = append(d.ServerMoves, fmt.Sprintf("memory: [%s] -> [%s]", om, nm))
	}
	// Replica-set moves: a changed set means under-replication (or a
	// placement change) that ApplyDelta must repair by rebuilding exactly
	// the affected hosts.
	if old.ReplicationFactor != new.ReplicationFactor {
		d.ServerMoves = append(d.ServerMoves,
			fmt.Sprintf("replication factor: %d -> %d", old.ReplicationFactor, new.ReplicationFactor))
	}
	memNames := map[string]struct{}{}
	for m := range old.Replicas {
		memNames[m] = struct{}{}
	}
	for m := range new.Replicas {
		memNames[m] = struct{}{}
	}
	var moved []string
	for m := range memNames {
		os, ns := strings.Join(old.Replicas[m], ","), strings.Join(new.Replicas[m], ",")
		if os != ns {
			moved = append(moved, fmt.Sprintf("replicas[%s]: [%s] -> [%s]", m, os, ns))
		}
	}
	sort.Strings(moved)
	d.ServerMoves = append(d.ServerMoves, moved...)
	return d
}

func toSet(in []string) map[string]struct{} {
	out := map[string]struct{}{}
	for _, s := range in {
		out[s] = struct{}{}
	}
	return out
}

func setMinus(a, b map[string]struct{}) []string {
	var out []string
	for s := range a {
		if _, ok := b[s]; !ok {
			out = append(out, s)
		}
	}
	sort.Strings(out)
	return out
}
