// Package env implements the Effective Network View mapper (§4 of the
// paper, after Shao et al., PDPTA 1999): application-level discovery of
// the effective network topology as seen from a chosen master host,
// without privileged protocols.
//
// The mapping proceeds exactly as §4.2 describes:
//
//  1. Lookup — a GridML skeleton is built from the host list, grouping
//     machines into sites by DNS domain.
//  2. Extra information gathering — host properties (CPU, OS, ...) are
//     collected.
//  3. Structural topology — every host traceroutes to a well-known
//     external target; hosts sharing the same escape route are clustered
//     as leaves of the same branch (Figure 2).
//  4. Master-dependent refinement, per structural cluster:
//     a. host-to-host bandwidth: clusters are split when two members'
//     bandwidth to the master differs by more than a factor 3;
//     b. pairwise bandwidth: concurrent transfers master→A and master→B
//     are compared to the solo measurements — a ratio below 1.25
//     means A and B are independent and the cluster is split;
//     c. internal bandwidth: intra-cluster pairs are measured to obtain
//     the local bandwidth (ENV_base_local_BW);
//     d. jammed bandwidth: the bandwidth to the master is re-measured
//     while two other cluster hosts exchange data; the averaged
//     jammed/alone ratio over 5 repetitions classifies the cluster
//     as shared (< 0.7), switched (> 0.9), or unknown.
//
// For clusters with only two probe hosts the jammed experiment of the
// paper is impossible (it needs a measured host plus a transferring
// pair). This implementation falls back to a dual-direction experiment:
// A→B and B→A run concurrently; on a half-duplex shared segment each
// achieves about half its solo rate, on a switched segment both keep
// full rate. This is a user-level observable in the exact spirit of the
// original tests, and the one substitution for an experiment of the
// paper; this comment is its record.
package env

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"nwsenv/internal/gridml"
)

// Thresholds are the empirical constants of §4.2.2.
type Thresholds struct {
	// BWRatio splits clusters whose members' master-bandwidths differ by
	// more than this factor (default 3).
	BWRatio float64
	// PairwiseRatio: below it, two hosts are declared independent
	// (default 1.25).
	PairwiseRatio float64
	// JammedShared: an average jammed/alone ratio below this means a
	// shared network (default 0.7).
	JammedShared float64
	// JammedSwitched: above this means a switched network (default 0.9).
	JammedSwitched float64
}

// The §4.2.2 experiment sizes: every bandwidth probe moves probeBytes,
// an interfering transfer jamFactor times that (so the measured probe
// is fully overlapped), and a jammed ratio averages jammedReps runs.
const (
	probeBytes = 1 << 20
	jamFactor  = 8
	jammedReps = 5
)

// PropGateway is the GridML property carrying a network's gateway hop,
// so plans can be derived from saved mapping files.
const PropGateway = "ENV_gateway"

// PropReverseBW is the GridML property carrying the cluster→master
// bandwidth of a bidirectional run.
const PropReverseBW = "ENV_base_reverse_BW"

// Asymmetric reports whether the network's forward and reverse
// master-bandwidths differ by more than factor (use the run's BWRatio);
// false when ReverseBW was not measured.
func (n *Network) Asymmetric(factor float64) bool {
	if n.BaseBW <= 0 || n.ReverseBW <= 0 || factor <= 1 {
		return false
	}
	r := n.ReverseBW / n.BaseBW
	return r > factor || r < 1/factor
}

// DefaultThresholds returns the paper's values.
func DefaultThresholds() Thresholds {
	return Thresholds{BWRatio: 3, PairwiseRatio: 1.25, JammedShared: 0.7, JammedSwitched: 0.9}
}

// Classification of an ENV network.
type Classification int

const (
	// Unknown: the jammed ratios were not significant (§4.2.2.4) or the
	// cluster was too small to test.
	Unknown Classification = iota
	// Shared: hub- or bus-like; all members see one collision domain.
	Shared
	// Switched: members' links are independent.
	Switched
)

func (c Classification) String() string {
	switch c {
	case Shared:
		return "shared"
	case Switched:
		return "switched"
	}
	return "unknown"
}

// GridMLType converts the classification to its GridML network type.
func (c Classification) GridMLType() string {
	switch c {
	case Shared:
		return gridml.TypeShared
	case Switched:
		return gridml.TypeSwitched
	}
	return gridml.TypeUnknown
}

// Network is one classified ENV network (a refined structural cluster).
type Network struct {
	// Label names the network, derived from the closest hop.
	Label string
	Class Classification
	// BaseBW is the master→cluster bandwidth in Mbps (ENV_base_BW).
	BaseBW float64
	// LocalBW is the intra-cluster bandwidth in Mbps
	// (ENV_base_local_BW); 0 when the cluster has a single host.
	LocalBW float64
	// ReverseBW is the cluster→master bandwidth in Mbps, measured only
	// with Config.Bidirectional (0 otherwise). A ReverseBW that differs
	// from BaseBW by more than the BWRatio threshold marks an asymmetric
	// route (§4.3).
	ReverseBW float64
	// Hosts are display names (FQDNs) of the members.
	Hosts []string
	// HostIDs are the simulator node IDs of the members (empty after a
	// document-level merge of foreign results).
	HostIDs []string
	// GatewayHop is the traceroute identifier of the hop directly above
	// the cluster ("" at the root). When it names a mapped machine, that
	// machine is the cluster's gateway.
	GatewayHop string
	// ContainsMaster marks the master's own cluster.
	ContainsMaster bool
}

// StructNode is a node of the structural topology tree (Figure 2).
type StructNode struct {
	// Hop is the traceroute identifier ("" for the virtual root).
	Hop string
	// Hosts lists node IDs of hosts attached exactly here.
	Hosts []string
	// Children are deeper hops.
	Children []*StructNode
}

// Walk visits the tree depth-first.
func (n *StructNode) Walk(visit func(*StructNode)) {
	visit(n)
	for _, c := range n.Children {
		c.Walk(visit)
	}
}

// Stats accounts for the cost of a mapping run (§4.3 "Bandwidth waste",
// and the E4 experiment comparing ENV against naive full mapping).
type Stats struct {
	Started  time.Duration
	Finished time.Duration
	// Probes counts bandwidth experiments (the expensive ones).
	Probes int
	// ProbeBytes is the traffic injected by bandwidth probes.
	ProbeBytes int64
	// Traceroutes counts structural probes.
	Traceroutes int
}

// Duration of the mapping campaign in virtual time.
func (s Stats) Duration() time.Duration { return s.Finished - s.Started }

// Config parameterizes one ENV run.
type Config struct {
	// Master is the point of view (node ID).
	Master string
	// Hosts are the node IDs to map; the master may be included.
	Hosts []string
	// Names maps node IDs to the display FQDN used in GridML. Defaults
	// to the node's DNS name, then its ID.
	Names map[string]string
	// Thresholds default to the paper's.
	Thresholds Thresholds
	// StrictPaper disables the intra-cluster jamming fallback and runs
	// the classification exactly as §4.2.2.4 describes, including its
	// blind spot for clusters reached through a bottleneck (ablated in
	// experiment E11).
	StrictPaper bool
	// Bidirectional also measures host→master bandwidth in the
	// host-to-host phase, populating Network.ReverseBW. This is the
	// future work §4.3 names ("ENV bandwidth tests are conducted in only
	// one way, the system cannot detect such problems [asymmetric
	// routes]. Solving this ... is still to do"): it roughly doubles the
	// phase's probe count but exposes asymmetries like the ENS-Lyon
	// 10/100 Mbps route, which E10 shows are otherwise invisible.
	Bidirectional bool
}

// Result of a mapping run.
type Result struct {
	Config   Config
	Struct   *StructNode
	Networks []*Network
	Doc      *gridml.Document
	Stats    Stats
}

// displayName resolves a node ID to its GridML name.
func (c Config) displayName(sub Substrate, id string) string {
	if n, ok := c.Names[id]; ok && n != "" {
		return n
	}
	if info, ok := sub.HostInfo(id); ok && info.DNS != "" {
		return info.DNS
	}
	return id
}

// domainOf extracts the site domain of a display name — the registrable
// suffix (last two labels), so moby.cri2000.ens-lyon.fr lands in the
// ens-lyon.fr site exactly as the paper's lookup listing shows. It falls
// back to the IP address class for nameless machines (§4.3 "Machines
// without hostname": "we modified ENV to simply use IP address class if
// IP resolution fails").
func domainOf(name, ip string) string {
	if isIPLike(name) || !strings.Contains(name, ".") {
		return ipClass(ip)
	}
	labels := strings.Split(name, ".")
	if len(labels) <= 2 {
		return name
	}
	return strings.Join(labels[len(labels)-2:], ".")
}

func isIPLike(s string) bool {
	for _, r := range s {
		if (r < '0' || r > '9') && r != '.' {
			return false
		}
	}
	return len(s) > 0
}

// ipClass returns the classful network prefix of an IPv4 address
// (RFC 1166): class A: first octet, class B: two octets, class C: three.
func ipClass(ip string) string {
	parts := strings.Split(ip, ".")
	if len(parts) != 4 {
		return ip
	}
	var first int
	fmt.Sscanf(parts[0], "%d", &first)
	switch {
	case first < 128:
		return parts[0] + ".0.0.0"
	case first < 192:
		return parts[0] + "." + parts[1] + ".0.0"
	default:
		return parts[0] + "." + parts[1] + "." + parts[2] + ".0"
	}
}

// sortedCopy returns a sorted copy of names (deterministic outputs).
func sortedCopy(in []string) []string {
	out := append([]string(nil), in...)
	sort.Strings(out)
	return out
}
