// Package deploy turns an ENV mapping into an NWS deployment plan and
// applies it: the paper's §5 contribution.
//
// Planning rules (§5.1):
//
//   - A shared network's connectivity is the same for every host pair,
//     so a two-host representative clique measures it for everyone.
//   - A switched network needs every pair measured, but a host must be
//     in at most one experiment at a time: one clique containing all
//     members (plus the network's gateway, so paths into the network
//     are covered).
//   - Sibling networks are joined by small bridging cliques between
//     representatives (the paper's canaria–popc0 clique), keeping the
//     system complete: any unmeasured pair is estimable by composing
//     measured segments (latencies add, bandwidths min).
//
// Placement: the name server and forecaster run on the master; each
// site gets one memory server (on a gateway when the site has one, so
// every site host can reach it through firewalls).
package deploy

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"nwsenv/internal/env"
	"nwsenv/internal/nws/replica"
)

// CliqueSpec is one planned measurement clique.
type CliqueSpec struct {
	Name    string   `json:"name"`
	Members []string `json:"members"` // canonical machine names
	// Network is the ENV network this clique measures ("" for bridges).
	Network string `json:"network,omitempty"`
	// Shared marks a representative clique: its measurements stand for
	// every pair of Represents.
	Shared bool `json:"shared,omitempty"`
	// Represents lists all hosts of the shared network the clique's
	// measurements are valid for.
	Represents []string `json:"represents,omitempty"`
	// Period is the target token round-trip period.
	Period time.Duration `json:"period,omitempty"`
}

// Plan is a complete NWS deployment.
type Plan struct {
	Label      string `json:"label"`
	Master     string `json:"master"`
	NameServer string `json:"nameServer"`
	Forecaster string `json:"forecaster"`
	// Gateways lists every query-gateway replica host, the deployment's
	// client-facing front door: the primary first, then the extra
	// replicas sorted. Replicas are placed across distinct switches by
	// the same machinery that places memory replicas, so clients keep a
	// front door through a site loss. Empty in plans predating the query
	// plane: no gateway.
	Gateways []string `json:"gateways,omitempty"`
	// MemoryServers lists hosts running memory servers.
	MemoryServers []string `json:"memoryServers"`
	// MemoryOf maps every monitored host to its memory server.
	MemoryOf map[string]string `json:"memoryOf"`
	// ReplicationFactor is k: every memory server's series get k
	// replicas on distinct switches (0 = no replication).
	ReplicationFactor int `json:"replicationFactor,omitempty"`
	// Replicas maps each memory server to its solved replica hosts.
	Replicas map[string][]string `json:"replicas,omitempty"`
	Cliques  []CliqueSpec        `json:"cliques"`
	// Hosts lists every monitored machine (canonical names).
	Hosts []string `json:"hosts"`
}

// PlanConfig tunes the planner.
type PlanConfig struct {
	// Master is the canonical name of the deployment lead (name server +
	// forecaster placement). Defaults to the first host.
	Master string
	// TokenGap is every clique's Period, bridges included: its
	// measurement pacing (0 leaves the clique default, 1 s).
	TokenGap time.Duration
	// ReplicationFactor gives every memory server k replicas placed on
	// distinct switches (0 disables replication).
	ReplicationFactor int
	// GatewayReplicas is the total query-gateway count N: the primary on
	// the master plus N-1 replicas placed on distinct switches (<=1
	// keeps the single master-hosted gateway).
	GatewayReplicas int
}

// NewPlan derives a deployment plan from a merged ENV result.
func NewPlan(m *env.Merged, cfg PlanConfig) (*Plan, error) {
	if len(m.Networks) == 0 {
		return nil, fmt.Errorf("deploy: empty mapping")
	}
	canon := func(name string) string {
		if mm := m.Doc.FindMachine(name); mm != nil {
			return mm.CanonicalName()
		}
		return name
	}
	master := canon(cfg.Master)
	// Canonicalize: after a firewall merge the same physical gateway
	// appears in both sites under different names — keep one.
	allHosts := uniqueSorted(mapNames(m.Doc.MachineNames(), canon))
	if master == "" {
		master = allHosts[0]
	}

	p := &Plan{
		Label:      "nws-" + master,
		Master:     master,
		NameServer: master,
		Forecaster: master,
		MemoryOf:   map[string]string{},
		Hosts:      allHosts,
	}

	// Memory servers: one per site. The master hosts its own site's
	// server; other sites prefer a gateway (reachable through firewalls
	// from both sides), falling back to the first machine.
	for _, site := range m.Doc.Sites {
		if len(site.Machines) == 0 {
			continue
		}
		var mem string
		for _, mach := range site.Machines {
			if canon(mach.CanonicalName()) == master {
				mem = master
				break
			}
		}
		if mem == "" {
			for _, mach := range site.Machines {
				if mach.Label != nil && len(mach.Label.Aliases) > 1 {
					mem = canon(mach.CanonicalName())
					break
				}
			}
		}
		if mem == "" {
			mem = canon(site.Machines[0].CanonicalName())
		}
		p.MemoryServers = append(p.MemoryServers, mem)
		for _, mach := range site.Machines {
			p.MemoryOf[canon(mach.CanonicalName())] = mem
		}
	}
	p.MemoryServers = uniqueSorted(p.MemoryServers)

	// Per-network cliques.
	for _, nw := range m.Networks {
		members := uniqueSorted(mapNames(nw.Hosts, canon))
		if len(members) == 0 {
			continue
		}
		spec := CliqueSpec{
			Name:    "clique-" + nw.Label,
			Network: nw.Label,
			Period:  cfg.TokenGap,
		}
		switch nw.Class {
		case env.Switched:
			spec.Members = members
			// Cover the path into the network: add the gateway when it
			// is a mapped machine.
			if gw := canon(nw.GatewayHop); gw != "" {
				if m.Doc.FindMachine(gw) != nil && !slices.Contains(members, gw) {
					spec.Members = append(spec.Members, gw)
					sort.Strings(spec.Members)
				}
			}
		default: // Shared and Unknown: representative pair (§5.1).
			spec.Shared = true
			spec.Represents = members
			// A gateway physically sits on the same segment: the
			// representative pair stands for its attachment too (this is
			// what lets myri0↔myri1 be answered from the myri1↔myri2
			// measurement in the paper's plan).
			if gw := canon(nw.GatewayHop); gw != "" && m.Doc.FindMachine(gw) != nil && !slices.Contains(spec.Represents, gw) {
				spec.Represents = append(spec.Represents, gw)
				sort.Strings(spec.Represents)
			}
			reps := withoutHost(members, master)
			if len(reps) < 2 {
				reps = members
			}
			if len(reps) > 2 {
				reps = reps[:2]
			}
			spec.Members = reps
		}
		if len(spec.Members) >= 2 {
			p.Cliques = append(p.Cliques, spec)
		}
	}

	// Replica placement: k replicas per memory server, solved against
	// the network partition so a replica never shares a switch with its
	// primary when the topology allows it (a switch loss must not take
	// both). The ENV networks are exactly the switch groups.
	groups := make([][]string, 0, len(m.Networks))
	for _, nw := range m.Networks {
		groups = append(groups, uniqueSorted(mapNames(nw.Hosts, canon)))
	}
	if cfg.ReplicationFactor > 0 {
		p.ReplicationFactor = cfg.ReplicationFactor
		p.Replicas = replica.Place(p.MemoryServers, groups, cfg.ReplicationFactor)
	}

	// Gateway replicas: the primary stays on the master; the N-1 extras
	// are solved by the same foreign-switch placement that spreads
	// memory replicas, so the query front door survives a site loss.
	p.Gateways = []string{master}
	if n := cfg.GatewayReplicas; n > 1 {
		extra := replica.Place([]string{master}, groups, n-1)[master]
		p.Gateways = append(p.Gateways, uniqueSorted(extra)...)
	}

	// Bridging cliques between connectivity components (§5.1: "The
	// connection between canaria and popc0 is used to test the connexion
	// between these hubs").
	p.addBridges(m, canon, cfg.TokenGap)

	sort.Slice(p.Cliques, func(i, j int) bool { return p.Cliques[i].Name < p.Cliques[j].Name })
	return p, nil
}

// addBridges links network components so the measurement graph is
// connected. Bridges are paced like the network cliques.
func (p *Plan) addBridges(m *env.Merged, canon func(string) string, period time.Duration) {
	// Union-find over networks; two networks join when they share a
	// machine or one's gateway is the other's member.
	n := len(m.Networks)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	memberOf := map[string]int{}
	for i, nw := range m.Networks {
		for _, h := range nw.Hosts {
			h = canon(h)
			if j, ok := memberOf[h]; ok {
				parent[find(i)] = find(j)
			} else {
				memberOf[h] = i
			}
		}
	}
	for i, nw := range m.Networks {
		if gw := canon(nw.GatewayHop); gw != "" {
			if j, ok := memberOf[gw]; ok {
				parent[find(i)] = find(j)
			}
		}
	}
	// Representative host per component: the first clique member of the
	// lowest-indexed network in it.
	repOf := map[int]string{}
	order := []int{}
	for i := range m.Networks {
		r := find(i)
		if _, seen := repOf[r]; !seen {
			rep := p.cliqueRepFor(m.Networks[i].Label)
			if rep == "" {
				rep = canon(m.Networks[i].Hosts[0])
			}
			repOf[r] = rep
			order = append(order, r)
		}
	}
	// Chain the components.
	for k := 0; k+1 < len(order); k++ {
		a, b := repOf[order[k]], repOf[order[k+1]]
		if a == b {
			continue
		}
		members := []string{a, b}
		sort.Strings(members)
		p.Cliques = append(p.Cliques, CliqueSpec{
			Name:    fmt.Sprintf("bridge-%d", k),
			Members: members,
			Period:  period,
		})
	}
}

func (p *Plan) cliqueRepFor(network string) string {
	for _, c := range p.Cliques {
		if c.Network == network && len(c.Members) > 0 {
			return c.Members[0]
		}
	}
	return ""
}

// MeasuredPairs returns every ordered host pair some clique directly
// measures.
func (p *Plan) MeasuredPairs() [][2]string {
	var out [][2]string
	for _, c := range p.Cliques {
		for _, a := range c.Members {
			for _, b := range c.Members {
				if a != b {
					out = append(out, [2]string{a, b})
				}
			}
		}
	}
	return out
}

func uniqueSorted(in []string) []string {
	seen := map[string]struct{}{}
	var out []string
	for _, s := range in {
		if _, dup := seen[s]; !dup && s != "" {
			seen[s] = struct{}{}
			out = append(out, s)
		}
	}
	sort.Strings(out)
	return out
}

func mapNames(in []string, f func(string) string) []string {
	out := make([]string, len(in))
	for i, s := range in {
		out[i] = f(s)
	}
	return out
}

func withoutHost(list []string, h string) []string {
	var out []string
	for _, v := range list {
		if v != h {
			out = append(out, v)
		}
	}
	return out
}
