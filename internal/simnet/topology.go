package simnet

import (
	"container/heap"
	"fmt"
	"math"
	"sort"
	"time"
)

// defaultLink values applied when a Connect option does not override them.
const (
	defaultBW      = 100 * 1e6 // 100 Mbps
	defaultLatency = 250 * time.Microsecond
)

// Topology is a static network description. Build it with the Add* and
// Connect methods, then hand it to NewNetwork. A Topology's structure is
// immutable once a Network runs on it; the only mutable state is the
// fault overlay (down nodes, disabled links), which models §4.3
// "possible platform evolution" and is driven through the Network fault
// API so in-flight flows are settled consistently.
type Topology struct {
	nodes map[string]*Node
	order []string // creation order, for deterministic iteration
	links []*Link
	// adj[node] lists link indices touching the node.
	adj map[string][]int
	// linkByDir resolves the (first) link between an ordered node pair in
	// O(1); both orientations are present.
	linkByDir map[[2]string]*Link
	// explicitVLANs is the set of VLAN ids listed on at least one link
	// ACL. Routers only ever need to re-tag onto one of these (or the
	// destination's VLAN): links without an ACL accept any tag.
	explicitVLANs map[int]struct{}
	// routeOverride maps "src->dst" to an explicit node path.
	routeOverride map[string][]string
	// ExternalTarget names the node ENV traceroutes target to discover the
	// way out of the platform (§4.2.1.3).
	ExternalTarget string

	// Fault overlay: crashed nodes neither source, sink nor forward
	// traffic; disabled links carry nothing. Both are invisible to the
	// static structure accessors and only affect routing.
	downNodes     map[string]bool
	disabledLinks map[*Link]bool

	// routeCache holds computed routes (src/dst pair → path and its
	// cost, a nil path for a proven absence of route). The key is a
	// struct, not "src->dst", so the per-message lookup on the delivery
	// hot path never builds a key string. nodeRouteIdx and linkRouteIdx
	// index the positive entries by the elements they traverse, so a
	// fault evicts only the paths it actually breaks instead of wiping
	// the cache.
	routeCache   map[routeKey]route
	nodeRouteIdx map[string]map[routeKey]struct{}
	linkRouteIdx map[*Link]map[routeKey]struct{}

	cacheHits, cacheMisses int64
}

// NewTopology returns an empty topology.
func NewTopology() *Topology {
	return &Topology{
		nodes:         map[string]*Node{},
		adj:           map[string][]int{},
		linkByDir:     map[[2]string]*Link{},
		explicitVLANs: map[int]struct{}{},
		routeOverride: map[string][]string{},
		downNodes:     map[string]bool{},
		disabledLinks: map[*Link]bool{},
		routeCache:    map[routeKey]route{},
		nodeRouteIdx:  map[string]map[routeKey]struct{}{},
		linkRouteIdx:  map[*Link]map[routeKey]struct{}{},
	}
}

func (t *Topology) addNode(n *Node) *Node {
	if _, dup := t.nodes[n.ID]; dup {
		panic(fmt.Sprintf("simnet: duplicate node %q", n.ID))
	}
	if len(n.Zones) == 0 {
		n.Zones = []string{"default"}
	}
	t.nodes[n.ID] = n
	t.order = append(t.order, n.ID)
	return n
}

// AddHost adds an end system. The DNS name may be empty.
func (t *Topology) AddHost(id, ip, dns, domain string, opts ...NodeOption) *Node {
	n := &Node{ID: id, Kind: Host, IP: ip, DNS: dns, Domain: domain, TracerouteResponds: true}
	for _, o := range opts {
		o(n)
	}
	return t.addNode(n)
}

// AddRouter adds a layer-3 router, visible to traceroute.
func (t *Topology) AddRouter(id, ip, dns string, opts ...NodeOption) *Node {
	n := &Node{ID: id, Kind: Router, IP: ip, DNS: dns, TracerouteResponds: true}
	for _, o := range opts {
		o(n)
	}
	return t.addNode(n)
}

// AddSwitch adds a layer-2 switch (invisible to traceroute, no shared
// collision domain).
func (t *Topology) AddSwitch(id string, opts ...NodeOption) *Node {
	n := &Node{ID: id, Kind: Switch}
	for _, o := range opts {
		o(n)
	}
	return t.addNode(n)
}

// AddHub adds a layer-2 hub whose ports share a single half-duplex
// collision domain of the given capacity (bits/s).
func (t *Topology) AddHub(id string, capacity float64, opts ...NodeOption) *Node {
	n := &Node{ID: id, Kind: Hub, HubCapacity: capacity}
	for _, o := range opts {
		o(n)
	}
	return t.addNode(n)
}

// Node returns the node with the given ID, or nil.
func (t *Topology) Node(id string) *Node { return t.nodes[id] }

// Nodes returns all nodes in creation order.
func (t *Topology) Nodes() []*Node {
	out := make([]*Node, 0, len(t.order))
	for _, id := range t.order {
		out = append(out, t.nodes[id])
	}
	return out
}

// Hosts returns all Host nodes in creation order.
func (t *Topology) Hosts() []*Node {
	var out []*Node
	for _, id := range t.order {
		if n := t.nodes[id]; n.Kind == Host {
			out = append(out, n)
		}
	}
	return out
}

// HostIDs returns the IDs of all hosts in creation order.
func (t *Topology) HostIDs() []string {
	var out []string
	for _, n := range t.Hosts() {
		out = append(out, n.ID)
	}
	return out
}

// Connect links nodes a and b. Defaults: 100 Mbps symmetric, 250 µs
// one-way latency, all VLANs.
func (t *Topology) Connect(a, b string, opts ...LinkOption) *Link {
	if t.nodes[a] == nil || t.nodes[b] == nil {
		panic(fmt.Sprintf("simnet: Connect(%q, %q): unknown node", a, b))
	}
	l := &Link{
		A: a, B: b,
		BWAtoB: defaultBW, BWBtoA: defaultBW,
		LatAtoB: defaultLatency, LatBtoA: defaultLatency,
	}
	for _, o := range opts {
		o(l)
	}
	idx := len(t.links)
	t.links = append(t.links, l)
	t.adj[a] = append(t.adj[a], idx)
	t.adj[b] = append(t.adj[b], idx)
	// First link between a pair wins the directed lookup, matching the
	// former adjacency-scan behavior on parallel links.
	if _, ok := t.linkByDir[[2]string{a, b}]; !ok {
		t.linkByDir[[2]string{a, b}] = l
		t.linkByDir[[2]string{b, a}] = l
	}
	for _, v := range l.VLANs {
		t.explicitVLANs[v] = struct{}{}
	}
	t.invalidateAllRoutesLocked()
	return l
}

// Links returns all links.
func (t *Topology) Links() []*Link { return t.links }

// SetRoute forces the path from src to dst (inclusive of both endpoints).
// Use it to model asymmetric routes: set one direction only and the
// reverse keeps its shortest path.
func (t *Topology) SetRoute(src, dst string, path []string) {
	if len(path) < 2 || path[0] != src || path[len(path)-1] != dst {
		panic("simnet: SetRoute path must start at src and end at dst")
	}
	for i := 0; i+1 < len(path); i++ {
		if t.findLink(path[i], path[i+1]) == nil {
			panic(fmt.Sprintf("simnet: SetRoute: no link %s-%s", path[i], path[i+1]))
		}
	}
	t.routeOverride[src+"->"+dst] = append([]string(nil), path...)
	t.invalidateAllRoutesLocked()
}

func (t *Topology) findLink(a, b string) *Link {
	return t.linkByDir[[2]string{a, b}]
}

// invalidateAllRoutesLocked wipes the route cache and its element index.
// Used on structural changes (Connect, SetRoute) and on fault repairs,
// where new, better paths may appear anywhere.
func (t *Topology) invalidateAllRoutesLocked() {
	if len(t.routeCache) == 0 {
		return
	}
	t.routeCache = map[routeKey]route{}
	t.nodeRouteIdx = map[string]map[routeKey]struct{}{}
	t.linkRouteIdx = map[*Link]map[routeKey]struct{}{}
}

// invalidateNodeRoutes evicts only the cached paths that traverse node
// id. Negative entries (no route) stay: removing an element cannot
// create a route, and surviving paths that avoid the element keep their
// optimality.
func (t *Topology) invalidateNodeRoutes(id string) {
	for key := range t.nodeRouteIdx[id] {
		t.dropRouteKey(key)
	}
	delete(t.nodeRouteIdx, id)
}

// invalidateLinkRoutes evicts only the cached paths crossing l.
func (t *Topology) invalidateLinkRoutes(l *Link) {
	for key := range t.linkRouteIdx[l] {
		t.dropRouteKey(key)
	}
	delete(t.linkRouteIdx, l)
}

// dropRouteKey evicts one cached path and de-indexes it from every
// element it traversed, so a re-cached route is never spuriously
// evicted by a later fault on the old path and the index stays exact.
func (t *Topology) dropRouteKey(key routeKey) {
	r, ok := t.routeCache[key]
	delete(t.routeCache, key)
	p := r.path
	if !ok || p == nil {
		return
	}
	for _, id := range p {
		delete(t.nodeRouteIdx[id], key)
	}
	for i := 0; i+1 < len(p); i++ {
		if l := t.findLink(p[i], p[i+1]); l != nil {
			delete(t.linkRouteIdx[l], key)
		}
	}
}

// cacheRoute prices a computed path, stores it and indexes it by every
// element it traverses. It returns the priced route.
func (t *Topology) cacheRoute(key routeKey, p []string) route {
	r := t.costRoute(p)
	t.routeCache[key] = r
	if p == nil {
		return r
	}
	for _, id := range p {
		set := t.nodeRouteIdx[id]
		if set == nil {
			set = map[routeKey]struct{}{}
			t.nodeRouteIdx[id] = set
		}
		set[key] = struct{}{}
	}
	for i := 0; i+1 < len(p); i++ {
		l := t.findLink(p[i], p[i+1])
		set := t.linkRouteIdx[l]
		if set == nil {
			set = map[routeKey]struct{}{}
			t.linkRouteIdx[l] = set
		}
		set[key] = struct{}{}
	}
	return r
}

// RouteCacheStats reports cumulative route-cache hits and misses (a miss
// runs Dijkstra). Useful to quantify fault-scoped invalidation.
func (t *Topology) RouteCacheStats() (hits, misses int64) {
	return t.cacheHits, t.cacheMisses
}

// SetNodeDown crashes (or restores) a node: a down node neither
// sources, sinks nor forwards traffic, so routing avoids it entirely.
// Prefer the Network fault API (CrashHost), which also settles the
// in-flight flows consistently. Crashing evicts only the cached routes
// through the node; restoring wipes the cache (shorter paths and
// previously impossible routes may reappear anywhere).
func (t *Topology) SetNodeDown(id string, down bool) {
	if t.nodes[id] == nil {
		panic(fmt.Sprintf("simnet: SetNodeDown(%q): unknown node", id))
	}
	t.downNodes[id] = down
	if down {
		t.invalidateNodeRoutes(id)
	} else {
		t.invalidateAllRoutesLocked()
	}
}

// NodeDown reports the fault state of a node.
func (t *Topology) NodeDown(id string) bool { return t.downNodes[id] }

// SetLinkDisabled severs (or heals) the link between a and b. Routing
// recomputes around it; prefer the Network fault API (CutLink), which
// also aborts the flows crossing it. Cutting evicts only the cached
// routes over the link; healing wipes the cache.
func (t *Topology) SetLinkDisabled(a, b string, disabled bool) {
	l := t.findLink(a, b)
	if l == nil {
		panic(fmt.Sprintf("simnet: SetLinkDisabled: no link %s-%s", a, b))
	}
	t.disabledLinks[l] = disabled
	if disabled {
		t.invalidateLinkRoutes(l)
	} else {
		t.invalidateAllRoutesLocked()
	}
}

// pathHealthy reports whether every node and link of path is fault-free.
func (t *Topology) pathHealthy(path []string) bool {
	for _, id := range path {
		if t.downNodes[id] {
			return false
		}
	}
	for i := 0; i+1 < len(path); i++ {
		if l := t.findLink(path[i], path[i+1]); l == nil || t.disabledLinks[l] {
			return false
		}
	}
	return true
}

// RouteOverrides returns a copy of the forced-route table, keyed
// "src->dst".
func (t *Topology) RouteOverrides() map[string][]string {
	out := map[string][]string{}
	for k, v := range t.routeOverride {
		out[k] = append([]string(nil), v...)
	}
	return out
}

// Path returns the node sequence from src to dst (inclusive), honoring
// route overrides, VLAN filtering (the source host's VLAN must be allowed
// on every layer-2 link of the path) and per-direction latencies as edge
// weights. It returns an error if no route exists.
func (t *Topology) Path(src, dst string) ([]string, error) {
	r, err := t.route(src, dst)
	return r.path, err
}

// route resolves the src→dst route with its cost: one cache lookup on
// the hot path. Override routes are priced on the fly.
func (t *Topology) route(src, dst string) (route, error) {
	if src == dst {
		return t.costRoute([]string{src}), nil
	}
	// The override lookup builds a key string; skip it entirely in the
	// common no-override case so steady-state delivery stays allocation
	// free.
	if len(t.routeOverride) > 0 {
		if p, ok := t.routeOverride[src+"->"+dst]; ok && t.pathHealthy(p) {
			// A faulted override falls back to dynamic routing, as real
			// routing tables reconverge around a dead segment.
			return t.costRoute(p), nil
		}
	}
	key := routeKey{src, dst}
	r, ok := t.routeCache[key]
	if ok {
		t.cacheHits++
	} else {
		t.cacheMisses++
		r = t.cacheRoute(key, t.dijkstra(src, dst))
	}
	if r.path == nil {
		return route{}, fmt.Errorf("simnet: no route from %s to %s", src, dst)
	}
	return r, nil
}

// retagVLANs returns the VLAN ids a router could usefully re-tag onto
// for a route toward the given endpoints: every VLAN pinned on some link
// ACL plus the endpoint VLANs. Links without an ACL accept any tag, so
// no other VLAN can ever unlock an edge — this keeps the Dijkstra state
// space proportional to the VLANs actually in play instead of the whole
// VLAN universe of the platform.
func (t *Topology) retagVLANs(srcVLAN, dstVLAN int) []int {
	set := map[int]struct{}{srcVLAN: {}, dstVLAN: {}}
	for v := range t.explicitVLANs {
		set[v] = struct{}{}
	}
	out := make([]int, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// routeKey identifies one directed src→dst cache entry without the
// string concatenation a "src->dst" key would cost per lookup.
type routeKey struct {
	src, dst string
}

// route is a path priced once, when it is resolved: what a message
// crossing it pays is read from here instead of re-walking its hops.
type route struct {
	path []string // nil: no route
	// lat is the one-way latency, the sum of the directed hop latencies.
	lat time.Duration
	// bw is the alone bandwidth (bits/s): the minimum directed link
	// capacity and hub domain capacity along the path.
	bw float64
}

// costRoute prices path p in one walk over its hops.
func (t *Topology) costRoute(p []string) route {
	r := route{path: p, bw: math.Inf(1)}
	for i := 0; i+1 < len(p); i++ {
		l := t.findLink(p[i], p[i+1])
		if l.A == p[i] {
			r.lat += l.LatAtoB
			r.bw = min(r.bw, l.BWAtoB)
		} else {
			r.lat += l.LatBtoA
			r.bw = min(r.bw, l.BWBtoA)
		}
	}
	for _, id := range p {
		if n := t.nodes[id]; n.Kind == Hub {
			r.bw = min(r.bw, n.HubCapacity)
		}
	}
	return r
}

// vlanKey is the Dijkstra search state: a packet's position and current
// VLAN tag.
type vlanKey struct {
	node string
	vlan int
}

type vlanState struct {
	cost time.Duration
	hops int
	prev vlanKey
	has  bool
	done bool
}

// pqEntry is one (possibly stale) priority-queue element.
type pqEntry struct {
	k    vlanKey
	cost time.Duration
	hops int
	seq  int
}

type routePQ []pqEntry

func (q routePQ) Len() int { return len(q) }
func (q routePQ) Less(i, j int) bool {
	if q[i].cost != q[j].cost {
		return q[i].cost < q[j].cost
	}
	if q[i].hops != q[j].hops {
		return q[i].hops < q[j].hops
	}
	return q[i].seq < q[j].seq
}
func (q routePQ) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *routePQ) Push(x interface{}) { *q = append(*q, x.(pqEntry)) }
func (q *routePQ) Pop() interface{} {
	old := *q
	n := len(old)
	e := old[n-1]
	*q = old[:n-1]
	return e
}

// dijkstra computes the minimum-latency path with hop count as
// tie-breaker, using a binary heap over (node, VLAN) states. A packet
// carries one VLAN tag per layer-2 segment, every link must allow the
// current tag, and only routers may re-tag traffic onto another VLAN
// (inter-VLAN routing).
func (t *Topology) dijkstra(src, dst string) []string {
	srcNode, dstNode := t.nodes[src], t.nodes[dst]
	if srcNode == nil || dstNode == nil {
		return nil
	}
	retag := t.retagVLANs(srcNode.VLAN, dstNode.VLAN)

	states := map[vlanKey]*vlanState{{src, srcNode.VLAN}: {}}
	goal := vlanKey{dst, dstNode.VLAN}
	var pq routePQ
	seq := 0
	push := func(k vlanKey, cost time.Duration, hops int) {
		seq++
		heap.Push(&pq, pqEntry{k: k, cost: cost, hops: hops, seq: seq})
	}
	push(vlanKey{src, srcNode.VLAN}, 0, 0)
	found := false
	for pq.Len() > 0 {
		e := heap.Pop(&pq).(pqEntry)
		cur := e.k
		curSt := states[cur]
		if curSt == nil || curSt.done ||
			e.cost > curSt.cost || (e.cost == curSt.cost && e.hops > curSt.hops) {
			continue // stale entry superseded by a better relaxation
		}
		if cur == goal {
			found = true
			break
		}
		curSt.done = true

		relax := func(k vlanKey, cost time.Duration, hops int) {
			st := states[k]
			if st != nil && st.done {
				return
			}
			if st == nil || cost < st.cost || (cost == st.cost && hops < st.hops) {
				states[k] = &vlanState{cost: cost, hops: hops, prev: cur, has: true}
				push(k, cost, hops)
			}
		}

		// A crashed node neither forwards nor re-tags; routing flows
		// around it (and never into it, below).
		if t.downNodes[cur.node] {
			continue
		}
		// Routers re-tag traffic onto any useful VLAN at no cost.
		if t.nodes[cur.node].Kind == Router {
			for _, v := range retag {
				if v != cur.vlan {
					relax(vlanKey{cur.node, v}, curSt.cost, curSt.hops)
				}
			}
		}
		// Hosts never forward transit traffic, except gateways.
		if n := t.nodes[cur.node]; n.Kind == Host && cur.node != src && !n.Forwards {
			continue
		}
		for _, idx := range t.adj[cur.node] {
			l := t.links[idx]
			if t.disabledLinks[l] {
				continue
			}
			next := l.B
			lat := l.LatAtoB
			if next == cur.node {
				next = l.A
				lat = l.LatBtoA
			}
			if t.downNodes[next] {
				continue
			}
			if !l.allowsVLAN(cur.vlan) {
				continue
			}
			relax(vlanKey{next, cur.vlan}, curSt.cost+lat, curSt.hops+1)
		}
	}
	if !found {
		return nil
	}
	// Reconstruct, skipping zero-length re-tag steps at routers.
	var path []string
	for at := goal; ; {
		if len(path) == 0 || path[len(path)-1] != at.node {
			path = append(path, at.node)
		}
		st := states[at]
		if !st.has {
			break
		}
		at = st.prev
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path
}

// PathLatency sums one-way latencies along the routed path from src to dst.
func (t *Topology) PathLatency(src, dst string) (time.Duration, error) {
	r, err := t.route(src, dst)
	return r.lat, err
}

// AloneBandwidth returns the bandwidth (bits/s) a single flow from src to
// dst achieves with no competing traffic: the minimum directed link
// capacity and hub domain capacity along the path. This is the simulator's
// ground truth against which probe results are compared.
func (t *Topology) AloneBandwidth(src, dst string) (float64, error) {
	r, err := t.route(src, dst)
	return r.bw, err
}

// Reachable reports whether src may exchange traffic with dst given
// firewall zones and routing.
func (t *Topology) Reachable(src, dst string) bool {
	a, b := t.nodes[src], t.nodes[dst]
	if a == nil || b == nil || !a.SharesZone(b) {
		return false
	}
	_, err := t.Path(src, dst)
	return err == nil
}

// TracerouteHop is one line of traceroute output.
type TracerouteHop struct {
	// Identifier is the router's DNS name if it has one, its IP
	// otherwise, or "*" when the router drops TTL-exceeded probes.
	Identifier string
	IP         string
	Responded  bool
}

// Traceroute reports the layer-3 hops (routers only — switches and hubs
// are invisible, as on a real network) on the path from src to dst,
// excluding the endpoints.
func (t *Topology) Traceroute(src, dst string) ([]TracerouteHop, error) {
	p, err := t.Path(src, dst)
	if err != nil {
		return nil, err
	}
	var hops []TracerouteHop
	for _, id := range p[1 : len(p)-1] {
		n := t.nodes[id]
		if n.Kind != Router && !(n.Kind == Host && n.Forwards) {
			continue
		}
		h := TracerouteHop{IP: n.IP, Responded: n.TracerouteResponds}
		if n.TracerouteResponds {
			h.Identifier = n.Identifier()
		} else {
			h.Identifier = "*"
		}
		hops = append(hops, h)
	}
	return hops, nil
}

// SharedResources reports whether concurrent flows src1→dst1 and src2→dst2
// would compete for any resource (directed link or hub domain).
func (t *Topology) SharedResources(src1, dst1, src2, dst2 string) (bool, error) {
	r1, err := t.PathResources(src1, dst1)
	if err != nil {
		return false, err
	}
	r2, err := t.PathResources(src2, dst2)
	if err != nil {
		return false, err
	}
	on1 := make(map[string]struct{}, len(r1))
	for _, k := range r1 {
		on1[k] = struct{}{}
	}
	for _, k := range r2 {
		if _, ok := on1[k]; ok {
			return true, nil
		}
	}
	return false, nil
}

// PathResources lists the resources a flow src→dst occupies, one key
// per directed link and per hub domain on its route. Two flows compete
// exactly when their lists intersect; the deployment validator uses it
// to prove collision-freedom.
func (t *Topology) PathResources(src, dst string) ([]string, error) {
	p, err := t.Path(src, dst)
	if err != nil {
		return nil, err
	}
	keys := make([]string, 0, len(p))
	for i := 0; i+1 < len(p); i++ {
		keys = append(keys, "edge:"+p[i]+"->"+p[i+1])
	}
	for _, id := range p {
		if t.nodes[id].Kind == Hub {
			keys = append(keys, "hub:"+id)
		}
	}
	return keys, nil
}

// checkEndpoints reports why a src→dst exchange cannot start: an unknown
// or non-host endpoint, a crashed endpoint, or no common firewall zone.
func (t *Topology) checkEndpoints(src, dst string) error {
	a, b := t.Node(src), t.Node(dst)
	if a == nil || b == nil {
		return fmt.Errorf("simnet: unknown endpoint %s or %s", src, dst)
	}
	if a.Kind != Host || b.Kind != Host {
		return fmt.Errorf("simnet: transfer endpoints must be hosts (%s is %s, %s is %s)", src, a.Kind, dst, b.Kind)
	}
	if t.NodeDown(src) {
		return fmt.Errorf("simnet: host %s is down", src)
	}
	if t.NodeDown(dst) {
		return fmt.Errorf("simnet: host %s is down", dst)
	}
	if !a.SharesZone(b) {
		return fmt.Errorf("simnet: firewall: %s and %s share no zone", src, dst)
	}
	return nil
}

// Validate checks structural consistency: connected endpoints, positive
// capacities, override paths using existing links.
func (t *Topology) Validate() error {
	if len(t.nodes) == 0 {
		return fmt.Errorf("simnet: empty topology")
	}
	for _, l := range t.links {
		if l.BWAtoB <= 0 || l.BWBtoA <= 0 {
			return fmt.Errorf("simnet: link %s-%s has non-positive capacity", l.A, l.B)
		}
		if l.LatAtoB < 0 || l.LatBtoA < 0 {
			return fmt.Errorf("simnet: link %s-%s has negative latency", l.A, l.B)
		}
	}
	for _, id := range t.order {
		n := t.nodes[id]
		if n.Kind == Hub && n.HubCapacity <= 0 {
			return fmt.Errorf("simnet: hub %s has non-positive capacity", id)
		}
		if len(t.adj[id]) == 0 {
			return fmt.Errorf("simnet: node %s is isolated", id)
		}
	}
	return nil
}
