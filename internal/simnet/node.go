// Package simnet is a deterministic flow-level network simulator used as
// the testbed substrate for the NWS/ENV reproduction.
//
// It models hosts, routers, switches and hubs connected by links with
// per-direction bandwidth and latency (so asymmetric routes and asymmetric
// capacities, both discussed in the paper, are representable), VLAN-filtered
// routing, firewall zones, and TTL-style traceroute whose hop list only
// exposes layer-3 routers — exactly the user-level observables the ENV
// mapper consumes.
//
// Concurrent TCP transfers are modeled as fluid flows sharing resources
// under max-min fairness. A hub contributes a single half-duplex collision
// domain shared by every flow crossing it; a switch contributes nothing
// beyond its per-direction link capacities. These two rules produce the
// contention signatures that ENV's thresholds (ratio 3, 1.25, 0.7/0.9)
// were designed to detect.
package simnet

import (
	"fmt"
	"time"
)

// Mbps is the bandwidth unit capacities are written in, in bits per second.
const Mbps float64 = 1e6

// NodeKind distinguishes the network element types of the model.
type NodeKind int

const (
	// Host is an end system: the only valid flow endpoint.
	Host NodeKind = iota
	// Router is a layer-3 element: visible to traceroute.
	Router
	// Switch is a layer-2 element with independent full-duplex ports.
	Switch
	// Hub is a layer-2 element whose ports share one half-duplex
	// collision domain.
	Hub
)

func (k NodeKind) String() string {
	switch k {
	case Host:
		return "host"
	case Router:
		return "router"
	case Switch:
		return "switch"
	case Hub:
		return "hub"
	}
	return fmt.Sprintf("NodeKind(%d)", int(k))
}

// Node is a network element. Nodes are created through the Topology
// builder methods.
type Node struct {
	ID     string
	Kind   NodeKind
	IP     string
	DNS    string // fully-qualified name; empty if the element has no DNS entry
	Domain string // DNS domain used by ENV's lookup phase to group sites

	// VLAN is the untagged VLAN of a host (0 = default VLAN).
	VLAN int
	// Zones lists the firewall zones the node belongs to. Two hosts can
	// exchange traffic only if their zone sets intersect. A gateway is
	// simply a host present in several zones.
	Zones []string

	// HubCapacity is the shared collision-domain capacity (bits/s) for
	// Hub nodes; ignored for other kinds.
	HubCapacity float64

	// TracerouteResponds reports whether a Router answers TTL-exceeded
	// probes. Non-responding routers show up as "*" hops (§4.3 "Dropped
	// traceroute").
	TracerouteResponds bool

	// Forwards marks a Host that routes transit traffic (a dual-homed
	// firewall gateway like popc0 in the paper). Forwarding hosts appear
	// as layer-3 traceroute hops.
	Forwards bool

	// Props carries host attributes surfaced by ENV's extra-information
	// phase (CPU model, clock, OS, ...).
	Props map[string]string
}

// HasZone reports whether the node belongs to zone z.
func (n *Node) HasZone(z string) bool {
	for _, have := range n.Zones {
		if have == z {
			return true
		}
	}
	return false
}

// SharesZone reports whether two nodes have a common firewall zone.
func (n *Node) SharesZone(m *Node) bool {
	for _, z := range n.Zones {
		if m.HasZone(z) {
			return true
		}
	}
	return false
}

// Identifier returns what a traceroute hop report shows for this node:
// its DNS name when configured, otherwise its IP address.
func (n *Node) Identifier() string {
	if n.DNS != "" {
		return n.DNS
	}
	return n.IP
}

// NodeOption configures a node at creation time.
type NodeOption func(*Node)

// WithVLAN assigns the host's untagged VLAN.
func WithVLAN(v int) NodeOption { return func(n *Node) { n.VLAN = v } }

// WithZones sets the firewall zones of the node (default: the single zone
// "default").
func WithZones(zones ...string) NodeOption {
	return func(n *Node) { n.Zones = zones }
}

// WithNoTracerouteResponse makes a router silently drop TTL-exceeded
// probes.
func WithNoTracerouteResponse() NodeOption {
	return func(n *Node) { n.TracerouteResponds = false }
}

// WithForwarding marks a host as a traffic-forwarding gateway.
func WithForwarding() NodeOption { return func(n *Node) { n.Forwards = true } }

// WithProp attaches a host property (ENV extra-information phase).
func WithProp(key, value string) NodeOption {
	return func(n *Node) {
		if n.Props == nil {
			n.Props = map[string]string{}
		}
		n.Props[key] = value
	}
}

// Link connects two nodes with per-direction bandwidth and latency.
type Link struct {
	A, B string
	// Capacities in bits/s for each direction.
	BWAtoB, BWBtoA float64
	// One-way latencies per direction.
	LatAtoB, LatBtoA time.Duration
	// VLANs restricts which VLANs may traverse the link (nil = all).
	VLANs []int
}

func (l *Link) allowsVLAN(v int) bool {
	if len(l.VLANs) == 0 {
		return true
	}
	for _, have := range l.VLANs {
		if have == v {
			return true
		}
	}
	return false
}

// LinkOption configures a link at creation time.
type LinkOption func(*Link)

// LinkBW sets a symmetric capacity in bits/s.
func LinkBW(bps float64) LinkOption {
	return func(l *Link) { l.BWAtoB, l.BWBtoA = bps, bps }
}

// LinkBWAsym sets per-direction capacities in bits/s.
func LinkBWAsym(aToB, bToA float64) LinkOption {
	return func(l *Link) { l.BWAtoB, l.BWBtoA = aToB, bToA }
}

// LinkLatency sets a symmetric one-way latency.
func LinkLatency(d time.Duration) LinkOption {
	return func(l *Link) { l.LatAtoB, l.LatBtoA = d, d }
}

// LinkVLANs restricts the link to the given VLANs.
func LinkVLANs(vlans ...int) LinkOption {
	return func(l *Link) { l.VLANs = vlans }
}
