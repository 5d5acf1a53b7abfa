package topo

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"slices"
	"sort"
	"strings"
	"time"

	"nwsenv/internal/env"
	"nwsenv/internal/gridml"
	"nwsenv/internal/simnet"
)

// Spec is the on-disk JSON description of a topology, consumed by the
// command-line tools (cmd/topogen writes it, cmd/envmap and
// cmd/nwsmanager read it).
type Spec struct {
	Nodes    []NodeSpec  `json:"nodes"`
	Links    []LinkSpec  `json:"links"`
	Routes   []RouteSpec `json:"routes,omitempty"`
	External string      `json:"external,omitempty"`

	// Masters suggests mapping masters (one per firewall side) and
	// NamesOf carries per-run display names, so a Spec can round-trip an
	// EnsLyon-style scenario.
	Masters []string                     `json:"masters,omitempty"`
	NamesOf map[string]map[string]string `json:"namesOf,omitempty"`
}

// NodeSpec describes one network element.
type NodeSpec struct {
	ID      string            `json:"id"`
	Kind    string            `json:"kind"` // host, router, switch, hub
	IP      string            `json:"ip,omitempty"`
	DNS     string            `json:"dns,omitempty"`
	Domain  string            `json:"domain,omitempty"`
	VLAN    int               `json:"vlan,omitempty"`
	Zones   []string          `json:"zones,omitempty"`
	HubMbps float64           `json:"hubMbps,omitempty"`
	NoTrace bool              `json:"noTraceroute,omitempty"`
	Forward bool              `json:"forwards,omitempty"`
	Props   map[string]string `json:"props,omitempty"`
}

// LinkSpec describes one link; zero values take simnet defaults.
type LinkSpec struct {
	A         string  `json:"a"`
	B         string  `json:"b"`
	MbpsAB    float64 `json:"mbpsAB,omitempty"`
	MbpsBA    float64 `json:"mbpsBA,omitempty"`
	LatencyUS int64   `json:"latencyUS,omitempty"`
	VLANs     []int   `json:"vlans,omitempty"`
}

// RouteSpec forces a path for one direction.
type RouteSpec struct {
	Src  string   `json:"src"`
	Dst  string   `json:"dst"`
	Path []string `json:"path"`
}

// Build materializes the spec into a simulator topology. A node
// declared twice, a link naming an unknown node and a route that does
// not run over links from its src to its dst are errors.
func (s *Spec) Build() (*simnet.Topology, error) {
	t := simnet.NewTopology()
	for _, n := range s.Nodes {
		if t.Node(n.ID) != nil {
			return nil, fmt.Errorf("topo: node %q declared twice", n.ID)
		}
		var opts []simnet.NodeOption
		if n.VLAN != 0 {
			opts = append(opts, simnet.WithVLAN(n.VLAN))
		}
		if len(n.Zones) > 0 {
			opts = append(opts, simnet.WithZones(n.Zones...))
		}
		if n.NoTrace {
			opts = append(opts, simnet.WithNoTracerouteResponse())
		}
		if n.Forward {
			opts = append(opts, simnet.WithForwarding())
		}
		for k, v := range n.Props {
			opts = append(opts, simnet.WithProp(k, v))
		}
		switch strings.ToLower(n.Kind) {
		case "host":
			t.AddHost(n.ID, n.IP, n.DNS, n.Domain, opts...)
		case "router":
			t.AddRouter(n.ID, n.IP, n.DNS, opts...)
		case "switch":
			t.AddSwitch(n.ID, opts...)
		case "hub":
			cap := n.HubMbps
			if cap <= 0 {
				cap = 100
			}
			t.AddHub(n.ID, cap*simnet.Mbps, opts...)
		default:
			return nil, fmt.Errorf("topo: node %q has unknown kind %q", n.ID, n.Kind)
		}
	}
	linked := map[[2]string]bool{}
	for _, l := range s.Links {
		for _, id := range []string{l.A, l.B} {
			if t.Node(id) == nil {
				return nil, fmt.Errorf("topo: link %s-%s names unknown node %q", l.A, l.B, id)
			}
		}
		linked[[2]string{l.A, l.B}], linked[[2]string{l.B, l.A}] = true, true
		var opts []simnet.LinkOption
		switch {
		case l.MbpsAB > 0 && l.MbpsBA > 0:
			opts = append(opts, simnet.LinkBWAsym(l.MbpsAB*simnet.Mbps, l.MbpsBA*simnet.Mbps))
		case l.MbpsAB > 0:
			opts = append(opts, simnet.LinkBW(l.MbpsAB*simnet.Mbps))
		}
		if l.LatencyUS > 0 {
			opts = append(opts, simnet.LinkLatency(time.Duration(l.LatencyUS)*time.Microsecond))
		}
		if len(l.VLANs) > 0 {
			opts = append(opts, simnet.LinkVLANs(l.VLANs...))
		}
		t.Connect(l.A, l.B, opts...)
	}
	for _, r := range s.Routes {
		p := r.Path
		if len(p) < 2 || p[0] != r.Src || p[len(p)-1] != r.Dst {
			return nil, fmt.Errorf("topo: route %s->%s: path %v does not run from %s to %s", r.Src, r.Dst, p, r.Src, r.Dst)
		}
		for i := 1; i < len(p); i++ {
			if !linked[[2]string{p[i-1], p[i]}] {
				return nil, fmt.Errorf("topo: route %s->%s: no link %s-%s", r.Src, r.Dst, p[i-1], p[i])
			}
		}
		t.SetRoute(r.Src, r.Dst, p)
	}
	t.ExternalTarget = s.External
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// Runs derives the mapping runs the spec's metadata describes: one run
// per declared master over its named hosts (master first, rest sorted;
// every mappable host when it names none), or, when the spec names no
// masters, MapAll's one run.
func (s *Spec) Runs(t *simnet.Topology) []env.Config {
	var runs []env.Config
	for _, m := range s.Masters {
		names := s.NamesOf[m]
		var hosts []string
		for id := range names {
			hosts = append(hosts, id)
		}
		if len(hosts) == 0 {
			hosts = Mappable(t)
		}
		runs = append(runs, env.Config{Master: m, Hosts: masterFirst(hosts, m), Names: names})
	}
	if len(runs) > 0 {
		return runs
	}
	return MapAll(t)
}

// Mappable lists the hosts a mapping run can map, in creation order:
// every host but the external traceroute target.
func Mappable(t *simnet.Topology) []string {
	return slices.DeleteFunc(t.HostIDs(), func(h string) bool { return h == t.ExternalTarget })
}

// MapAll is the one run over every mappable host, the first as master;
// nil when the topology has none.
func MapAll(t *simnet.Topology) []env.Config {
	hosts := Mappable(t)
	if len(hosts) == 0 {
		return nil
	}
	return []env.Config{{Master: hosts[0], Hosts: hosts}}
}

// Resolve maps each name a published plan may give a host to its node
// ID: the host's per-run display names, its DNS name and its ID, each
// read as the canonical name of the GridML machine answering to it when
// doc (which may be nil) has one. A name two hosts claim stays with the
// first: runs by master, their hosts by ID, then hosts in spec order.
func (s *Spec) Resolve(doc *gridml.Document) map[string]string {
	resolve := map[string]string{}
	record := func(id, name string) {
		if doc != nil {
			if m := doc.FindMachine(name); m != nil {
				name = m.CanonicalName()
			}
		}
		if _, dup := resolve[name]; !dup {
			resolve[name] = id
		}
	}
	for _, m := range slices.Sorted(maps.Keys(s.NamesOf)) {
		names := s.NamesOf[m]
		for _, id := range slices.Sorted(maps.Keys(names)) {
			record(id, names[id])
		}
	}
	for _, n := range s.Nodes {
		if n.Kind == "host" {
			if n.DNS != "" {
				record(n.ID, n.DNS)
			}
			record(n.ID, n.ID)
		}
	}
	return resolve
}

// masterFirst orders hosts with the master first and the rest sorted.
func masterFirst(hosts []string, master string) []string {
	out := []string{master}
	var rest []string
	for _, h := range hosts {
		if h != master {
			rest = append(rest, h)
		}
	}
	sort.Strings(rest)
	return append(out, rest...)
}

// Export converts a topology back to a spec.
func Export(t *simnet.Topology) *Spec {
	s := &Spec{External: t.ExternalTarget}
	for _, n := range t.Nodes() {
		ns := NodeSpec{
			ID: n.ID, IP: n.IP, DNS: n.DNS, Domain: n.Domain,
			VLAN: n.VLAN, Forward: n.Forwards, Props: n.Props,
		}
		if !(len(n.Zones) == 1 && n.Zones[0] == "default") {
			ns.Zones = n.Zones
		}
		switch n.Kind {
		case simnet.Host:
			ns.Kind = "host"
		case simnet.Router:
			ns.Kind = "router"
			ns.NoTrace = !n.TracerouteResponds
		case simnet.Switch:
			ns.Kind = "switch"
		case simnet.Hub:
			ns.Kind = "hub"
			ns.HubMbps = n.HubCapacity / simnet.Mbps
		}
		s.Nodes = append(s.Nodes, ns)
	}
	for _, l := range t.Links() {
		s.Links = append(s.Links, LinkSpec{
			A: l.A, B: l.B,
			MbpsAB:    l.BWAtoB / simnet.Mbps,
			MbpsBA:    l.BWBtoA / simnet.Mbps,
			LatencyUS: l.LatAtoB.Microseconds(),
			VLANs:     l.VLANs,
		})
	}
	for key, path := range t.RouteOverrides() {
		parts := strings.SplitN(key, "->", 2)
		s.Routes = append(s.Routes, RouteSpec{Src: parts[0], Dst: parts[1], Path: path})
	}
	return s
}

// EncodeSpec renders the spec as indented JSON.
func EncodeSpec(s *Spec) ([]byte, error) { return json.MarshalIndent(s, "", "  ") }

// DecodeSpec parses a JSON spec, refusing unknown keys.
func DecodeSpec(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("topo: spec: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("topo: spec: data after the topology")
	}
	return &s, nil
}

// EnsLyonSpec exports the paper testbed with its run metadata.
func EnsLyonSpec() *Spec {
	e := NewEnsLyon()
	s := Export(e.Topo)
	s.Masters = []string{e.OutsideMaster, e.InsideMaster}
	s.NamesOf = map[string]map[string]string{
		e.OutsideMaster: e.OutsideNames,
		e.InsideMaster:  e.InsideNames,
	}
	return s
}
