package env

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"nwsenv/internal/gridml"
)

// Mapper executes ENV runs on a mapping substrate.
type Mapper struct {
	sub Substrate
	cfg Config
	ctx context.Context

	stats Stats
}

// NewMapperOn prepares a run over a substrate; over a SimSubstrate, Run
// must be called from a simulation process.
func NewMapperOn(sub Substrate, cfg Config) *Mapper {
	if cfg.Thresholds == (Thresholds{}) {
		cfg.Thresholds = DefaultThresholds()
	}
	return &Mapper{sub: sub, cfg: cfg}
}

// Run performs the full ENV pipeline and returns the mapping result.
// ctx is checked between probes, so an aborted mapping campaign stops
// within one experiment.
//
// A run that names the substrate's external target as its master or
// among its hosts is refused: every host traceroutes to that target, so
// it cannot be mapped.
func (m *Mapper) Run(ctx context.Context) (*Result, error) {
	if ext := m.sub.ExternalTarget(); ext != "" && (m.cfg.Master == ext || slices.Contains(m.cfg.Hosts, ext)) {
		return nil, fmt.Errorf("env: %s is the external traceroute target and cannot be mapped", ext)
	}
	m.ctx = ctx
	m.stats.Started = m.sub.Now()

	doc := m.lookupPhase()

	structTree, err := m.structuralPhase()
	if err != nil {
		return nil, err
	}

	networks, err := m.refinePhase(structTree)
	if err != nil {
		return nil, err
	}

	m.emitNetworks(doc, structTree, networks)
	m.stats.Finished = m.sub.Now()

	return &Result{Config: m.cfg, Struct: structTree, Networks: networks, Doc: doc, Stats: m.stats}, nil
}

// canceled reports the context error, if any; probes call it first.
func (m *Mapper) canceled() error {
	if m.ctx == nil {
		return nil
	}
	if err := m.ctx.Err(); err != nil {
		return fmt.Errorf("env: mapping aborted: %w", err)
	}
	return nil
}

// ---- Phase 1+2: lookup and extra information gathering ----

func (m *Mapper) lookupPhase() *gridml.Document {
	doc := &gridml.Document{Label: &gridml.Label{Name: "Grid-" + m.cfg.Master}}
	for _, id := range m.cfg.Hosts {
		info, ok := m.sub.HostInfo(id)
		if !ok {
			continue
		}
		name := m.cfg.displayName(m.sub, id)
		site := doc.SiteFor(domainOf(name, info.IP))
		mach := &gridml.Machine{Label: &gridml.Label{IP: info.IP, Name: name}}
		if short := shortName(name); short != name {
			mach.Label.Aliases = append(mach.Label.Aliases, gridml.Alias{Name: short})
		}
		// Extra information gathering (§4.2.1.2).
		for _, k := range sortedKeys(info.Props) {
			mach.Properties = append(mach.Properties, gridml.Property{Name: k, Value: info.Props[k]})
		}
		site.Machines = append(site.Machines, mach)
	}
	return doc
}

func shortName(fqdn string) string {
	if i := strings.IndexByte(fqdn, '.'); i > 0 && !isIPLike(fqdn) {
		return fqdn[:i]
	}
	return fqdn
}

func sortedKeys(m map[string]string) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return sortedCopy(out)
}

// ---- Phase 3: structural topology ----

func (m *Mapper) structuralPhase() (*StructNode, error) {
	root := &StructNode{}
	for _, id := range m.cfg.Hosts {
		if err := m.canceled(); err != nil {
			return nil, err
		}
		hops, err := m.sub.Traceroute(id, m.sub.ExternalTarget())
		if err != nil {
			return nil, fmt.Errorf("env: traceroute %s: %w", id, err)
		}
		m.stats.Traceroutes++
		// Only the part within the mapped platform matters: hops are used
		// root-first, so reverse the hop list (the escape path shared by
		// two hosts is a common prefix from the root router downward).
		chain := make([]string, 0, len(hops))
		for i := len(hops) - 1; i >= 0; i-- {
			chain = append(chain, hops[i])
		}
		insert(root, chain, id)
	}
	return root, nil
}

// insert walks/extends the tree along chain and attaches the host at its
// end.
func insert(n *StructNode, chain []string, host string) {
	if len(chain) == 0 {
		n.Hosts = append(n.Hosts, host)
		return
	}
	for _, c := range n.Children {
		if c.Hop == chain[0] {
			insert(c, chain[1:], host)
			return
		}
	}
	c := &StructNode{Hop: chain[0]}
	n.Children = append(n.Children, c)
	insert(c, chain[1:], host)
}

// ---- Phase 4: master-dependent refinement ----

func (m *Mapper) refinePhase(root *StructNode) ([]*Network, error) {
	var networks []*Network
	var firstErr error
	netIdx := 0
	used := map[string]bool{}
	root.Walk(func(sn *StructNode) {
		if len(sn.Hosts) == 0 || firstErr != nil {
			return
		}
		nets, err := m.refineCluster(sn)
		if err != nil {
			firstErr = err
			return
		}
		for _, nw := range nets {
			if nw.Label == "" {
				nw.Label = fmt.Sprintf("env-net-%d", netIdx)
			}
			// Labels must be unique: clique names (and so message
			// routing) derive from them, and gateways of different sites
			// can share a short name.
			if used[nw.Label] {
				base := nw.Label
				for k := 2; ; k++ {
					cand := fmt.Sprintf("%s-%d", base, k)
					if !used[cand] {
						nw.Label = cand
						break
					}
				}
			}
			used[nw.Label] = true
			netIdx++
			networks = append(networks, nw)
		}
	})
	return networks, firstErr
}

// refineCluster applies the four §4.2.2 experiments to one structural
// cluster and returns the resulting ENV network(s).
func (m *Mapper) refineCluster(sn *StructNode) ([]*Network, error) {
	th := m.cfg.Thresholds

	// Probe targets exclude the master itself.
	var probe []string
	containsMaster := false
	for _, id := range sn.Hosts {
		if id == m.cfg.Master {
			containsMaster = true
			continue
		}
		probe = append(probe, id)
	}
	if len(probe) == 0 {
		// Master-only cluster: nothing measurable.
		return []*Network{{
			Label:          labelFor(sn, 0),
			Class:          Unknown,
			Hosts:          []string{m.cfg.displayName(m.sub, m.cfg.Master)},
			HostIDs:        []string{m.cfg.Master},
			GatewayHop:     sn.Hop,
			ContainsMaster: true,
		}}, nil
	}

	// 4.2.2.1 Host to host bandwidth (optionally both directions).
	bw := map[string]float64{}
	revBW := map[string]float64{}
	for _, id := range probe {
		v, err := m.probeBW(m.cfg.Master, id)
		if err != nil {
			return nil, err
		}
		bw[id] = v
		if m.cfg.Bidirectional {
			r, err := m.probeBW(id, m.cfg.Master)
			if err != nil {
				return nil, err
			}
			revBW[id] = r
		}
	}
	groups := splitByBandwidth(probe, bw, th.BWRatio)

	// 4.2.2.2 Pairwise host bandwidth.
	var clusters [][]string
	for _, g := range groups {
		subs, err := m.splitByPairwise(g, bw)
		if err != nil {
			return nil, err
		}
		clusters = append(clusters, subs...)
	}

	var nets []*Network
	for i, cl := range clusters {
		nw := &Network{
			Label:      labelFor(sn, i),
			GatewayHop: sn.Hop,
		}
		var sum, revSum float64
		for _, id := range cl {
			nw.Hosts = append(nw.Hosts, m.cfg.displayName(m.sub, id))
			nw.HostIDs = append(nw.HostIDs, id)
			sum += bw[id]
			revSum += revBW[id]
		}
		nw.BaseBW = sum / float64(len(cl)) / 1e6
		if m.cfg.Bidirectional {
			nw.ReverseBW = revSum / float64(len(cl)) / 1e6
		}

		// 4.2.2.3 Internal host bandwidth.
		var localAlone float64
		if len(cl) >= 2 {
			v, err := m.probeBW(cl[0], cl[1])
			if err == nil {
				localAlone = v
				nw.LocalBW = v / 1e6
			}
		}

		// 4.2.2.4 Jammed bandwidth.
		class, err := m.classify(cl, bw, localAlone)
		if err != nil {
			return nil, err
		}
		nw.Class = class

		// The master belongs to its own structural cluster; report it as
		// a member of the first sub-network carved out of that cluster.
		if containsMaster && i == 0 {
			nw.Hosts = append(nw.Hosts, m.cfg.displayName(m.sub, m.cfg.Master))
			nw.HostIDs = append(nw.HostIDs, m.cfg.Master)
			nw.ContainsMaster = true
		}
		nets = append(nets, nw)
	}
	return nets, nil
}

func labelFor(sn *StructNode, i int) string {
	base := shortName(sn.Hop)
	if base == "" {
		base = "root"
	}
	if i == 0 {
		return base
	}
	return fmt.Sprintf("%s-%d", base, i)
}

// splitByBandwidth groups hosts whose master-bandwidths are within the
// ratio threshold of the group's fastest member (§4.2.2.1).
func splitByBandwidth(hosts []string, bw map[string]float64, ratio float64) [][]string {
	sorted := append([]string(nil), hosts...)
	// Deterministic sort: descending bandwidth, then name.
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0; j-- {
			a, b := sorted[j-1], sorted[j]
			if bw[b] > bw[a] || (bw[b] == bw[a] && b < a) {
				sorted[j-1], sorted[j] = b, a
			} else {
				break
			}
		}
	}
	var groups [][]string
	for _, h := range sorted {
		placed := false
		for gi, g := range groups {
			if bw[g[0]]/bw[h] <= ratio {
				groups[gi] = append(g, h)
				placed = true
				break
			}
		}
		if !placed {
			groups = append(groups, []string{h})
		}
	}
	return groups
}

// splitByPairwise runs the concurrent master→A / master→B experiment for
// every pair and splits the group into dependence components (§4.2.2.2).
func (m *Mapper) splitByPairwise(group []string, bw map[string]float64) ([][]string, error) {
	n := len(group)
	if n <= 1 {
		return [][]string{group}, nil
	}
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
	union := func(a, b int) { parent[find(a)] = find(b) }

	// Enumerate pairs by increasing ring distance: neighbors first, so
	// a homogeneous segment unions with k-1 tests and the union-find
	// skips the rest.
	for d := 1; d < n; d++ {
		for i := 0; i+d < n; i++ {
			j := i + d
			if find(i) == find(j) {
				continue // already known dependent: save probes
			}
			paired, err := m.probeBWWhile(m.cfg.Master, group[i], m.cfg.Master, group[j])
			if err != nil {
				return nil, err
			}
			ratio := bw[group[i]] / paired
			if ratio >= m.cfg.Thresholds.PairwiseRatio {
				union(i, j)
			}
		}
	}
	comp := map[int][]string{}
	var order []int
	for i, h := range group {
		r := find(i)
		if _, seen := comp[r]; !seen {
			order = append(order, r)
		}
		comp[r] = append(comp[r], h)
	}
	var out [][]string
	for _, r := range order {
		out = append(out, comp[r])
	}
	return out, nil
}

// classify runs the jammed-bandwidth experiment (§4.2.2.4). The paper's
// experiment — master→c measured while a↔b transfer — cannot discriminate
// when the master reaches the cluster through a bottleneck narrower than
// a fair hub share: the probe is pinned at the bottleneck rate whether or
// not the segment is shared (ratio ≈ 1 either way). Unless StrictPaper is
// set, such clusters are classified by intra-cluster jamming instead:
// one internal pair is measured while another internal transfer runs —
// the same user-level observable, free of the bottleneck mask. Two-host
// clusters always use the dual-direction form (A→B jammed by B→A), which
// separates half-duplex hubs from full-duplex switches.
func (m *Mapper) classify(cluster []string, bw map[string]float64, localAlone float64) (Classification, error) {
	if len(cluster) < 2 {
		return Unknown, nil
	}
	if len(cluster) == 2 {
		return m.jamRatio(cluster[0], cluster[1], localAlone, func(rep int) (string, string) {
			return cluster[1], cluster[0]
		})
	}
	rep0 := cluster[0]
	bottlenecked := localAlone > 0 && bw[rep0] < 0.6*localAlone
	if m.cfg.StrictPaper || !bottlenecked {
		// The paper's experiment: bandwidth to the master while two other
		// cluster hosts exchange data, averaged over jammedReps runs.
		var sum float64
		for rep := 0; rep < jammedReps; rep++ {
			c := cluster[rep%len(cluster)]
			a := cluster[(rep+1)%len(cluster)]
			b := cluster[(rep+2)%len(cluster)]
			jammed, err := m.probeBWWhile(m.cfg.Master, c, a, b)
			if err != nil {
				return Unknown, err
			}
			sum += jammed / bw[c]
		}
		return m.classFromRatio(sum / float64(jammedReps)), nil
	}
	// Bottlenecked view: intra-cluster jamming. With ≥4 hosts use two
	// disjoint pairs; with 3, jam the reverse direction through the
	// measured host's segment.
	return m.jamRatio(cluster[0], cluster[1], localAlone, func(rep int) (string, string) {
		if len(cluster) >= 4 {
			return cluster[2], cluster[3]
		}
		return cluster[2], cluster[0]
	})
}

// jamRatio measures a→b solo (or reuses alone when > 0), then jammed by
// the rotating pair, and classifies the averaged ratio.
func (m *Mapper) jamRatio(a, b string, alone float64, pair func(rep int) (string, string)) (Classification, error) {
	if alone <= 0 {
		v, err := m.probeBW(a, b)
		if err != nil {
			return Unknown, err
		}
		alone = v
	}
	var sum float64
	for rep := 0; rep < jammedReps; rep++ {
		ja, jb := pair(rep)
		jammed, err := m.probeBWWhile(a, b, ja, jb)
		if err != nil {
			return Unknown, err
		}
		sum += jammed / alone
	}
	return m.classFromRatio(sum / float64(jammedReps)), nil
}

func (m *Mapper) classFromRatio(avg float64) Classification {
	th := m.cfg.Thresholds
	switch {
	case avg < th.JammedShared:
		return Shared
	case avg > th.JammedSwitched:
		return Switched
	default:
		return Unknown
	}
}

// ---- probes ----

func (m *Mapper) probeBW(src, dst string) (float64, error) {
	if err := m.canceled(); err != nil {
		return 0, err
	}
	v, err := m.sub.Bandwidth(src, dst, probeBytes, "env:"+m.cfg.Master)
	if err != nil {
		return 0, fmt.Errorf("env: probe %s->%s: %w", src, dst, err)
	}
	m.stats.Probes++
	m.stats.ProbeBytes += probeBytes
	return v, nil
}

// probeBWWhile measures src1→dst1 while a larger src2→dst2 transfer is
// in flight, returning the measured (jammed) bandwidth.
func (m *Mapper) probeBWWhile(src1, dst1, src2, dst2 string) (float64, error) {
	if err := m.canceled(); err != nil {
		return 0, err
	}
	v, err := m.sub.ProbeBWWhile(src1, dst1, probeBytes, src2, dst2, probeBytes*jamFactor, "env:"+m.cfg.Master)
	m.stats.Probes += 2
	m.stats.ProbeBytes += probeBytes * (1 + jamFactor)
	if err != nil {
		return 0, err
	}
	return v, nil
}

// ---- GridML emission ----

// emitNetworks appends the structural tree (with nested ENV networks at
// the clusters) to the document.
func (m *Mapper) emitNetworks(doc *gridml.Document, root *StructNode, networks []*Network) {
	byHop := map[string][]*Network{}
	for _, nw := range networks {
		byHop[nw.GatewayHop] = append(byHop[nw.GatewayHop], nw)
	}
	var convert func(sn *StructNode) *gridml.Network
	convert = func(sn *StructNode) *gridml.Network {
		gn := &gridml.Network{Type: gridml.TypeStructural}
		if sn.Hop != "" {
			gn.Label = &gridml.Label{Name: sn.Hop}
		}
		for _, nw := range byHop[sn.Hop] {
			gn.Networks = append(gn.Networks, networkToGridML(nw))
		}
		for _, c := range sn.Children {
			gn.Networks = append(gn.Networks, convert(c))
		}
		return gn
	}
	top := convert(root)
	if top.Label == nil {
		// The virtual root is unlabeled; splice its children directly.
		doc.Networks = append(doc.Networks, top.Networks...)
		return
	}
	doc.Networks = append(doc.Networks, top)
}

func networkToGridML(nw *Network) *gridml.Network {
	gn := &gridml.Network{
		Type:  nw.Class.GridMLType(),
		Label: &gridml.Label{Name: nw.Label},
	}
	if nw.GatewayHop != "" {
		gn.Properties = append(gn.Properties,
			gridml.Property{Name: PropGateway, Value: nw.GatewayHop})
	}
	gn.Properties = append(gn.Properties,
		gridml.Property{Name: gridml.PropBaseBW, Value: fmt.Sprintf("%.2f", nw.BaseBW), Units: "Mbps"})
	if nw.ReverseBW > 0 {
		gn.Properties = append(gn.Properties,
			gridml.Property{Name: PropReverseBW, Value: fmt.Sprintf("%.2f", nw.ReverseBW), Units: "Mbps"})
	}
	if nw.LocalBW > 0 {
		gn.Properties = append(gn.Properties,
			gridml.Property{Name: gridml.PropBaseLocalBW, Value: fmt.Sprintf("%.2f", nw.LocalBW), Units: "Mbps"})
	}
	for _, h := range nw.Hosts {
		gn.Machines = append(gn.Machines, &gridml.Machine{Name: h})
	}
	return gn
}
