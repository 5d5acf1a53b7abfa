package simnet

import "time"

// routeSearch is the topology's one shortest-path search: minimum
// latency with hop count as tie-breaker, over (node, VLAN) states. A
// packet carries one VLAN tag per layer-2 segment, every link must allow
// the current tag, and only routers may re-tag traffic onto another VLAN
// (inter-VLAN routing).
//
// The search is resumable. It keeps its last run, keyed by the source,
// the retag class and the topology version, and answers a route-cache
// miss under the same key from the run's tree when the goal is already
// settled, or by popping on until it is. The heap order (cost, hops,
// seq) is total, so a resumed run settles exactly the states a fresh run
// stopping at that goal would, and every path is the one a fresh search
// returns. Any other miss restarts the run in the same buffers. Like the
// route cache, the search is used from the simulation only.
type routeSearch struct {
	// The key of the kept run: the source's node index, its retag class
	// (the source's VLAN when the destination's VLAN adds nothing to
	// retagVLANs, the destination's VLAN otherwise), and the topology
	// version and node count it ran on.
	src, class int
	version    uint64
	nodes      int
	// vlans are the run's retag VLANs: state s is node s/len(vlans) on
	// VLAN vlans[s%len(vlans)].
	vlans []int

	// Per state: the best cost and hops found, the state it was reached
	// from (-1 for the source), and the epochs at which it was reached
	// and settled; a stamp other than epoch belongs to an earlier run.
	cost       []time.Duration
	hops       []int32
	prev       []int32
	seen, done []uint32
	epoch      uint32

	heap []searchEntry
	seq  int
}

// searchEntry is one (possibly stale) heap element.
type searchEntry struct {
	cost  time.Duration
	hops  int32
	state int32
	seq   int
}

func (a searchEntry) before(b searchEntry) bool {
	if a.cost != b.cost {
		return a.cost < b.cost
	}
	if a.hops != b.hops {
		return a.hops < b.hops
	}
	return a.seq < b.seq
}

// path returns the route from src to dst, or nil when there is none.
func (s *routeSearch) path(t *Topology, src, dst *Node) []string {
	class := src.VLAN
	if _, explicit := t.explicitVLANs[dst.VLAN]; dst.VLAN != src.VLAN && !explicit {
		class = dst.VLAN
	}
	if s.version != t.version || s.nodes != len(t.order) || s.src != src.idx || s.class != class {
		s.start(t, src, class, dst.VLAN)
	}
	goal := s.state(dst.idx, dst.VLAN)
	for s.done[goal] != s.epoch {
		if !s.settleNext(t) {
			return nil
		}
	}
	return s.pathTo(t, goal)
}

// start begins a new run from src in the buffers of the last one.
func (s *routeSearch) start(t *Topology, src *Node, class, dstVLAN int) {
	s.src, s.class, s.version, s.nodes = src.idx, class, t.version, len(t.order)
	s.vlans = t.retagVLANs(src.VLAN, dstVLAN)
	n := s.nodes * len(s.vlans)
	if cap(s.cost) < n {
		s.cost = make([]time.Duration, n)
		s.hops = make([]int32, n)
		s.prev = make([]int32, n)
		s.seen = make([]uint32, n)
		s.done = make([]uint32, n)
	}
	s.cost, s.hops, s.prev = s.cost[:n], s.hops[:n], s.prev[:n]
	s.seen, s.done = s.seen[:n], s.done[:n]
	if s.epoch++; s.epoch == 0 { // wrapped: forget every stamp
		clear(s.seen[:cap(s.seen)])
		clear(s.done[:cap(s.done)])
		s.epoch = 1
	}
	s.heap, s.seq = s.heap[:0], 0
	s.relax(s.state(src.idx, src.VLAN), 0, 0, -1)
}

// state returns the index of node idx on VLAN v, one of s.vlans.
func (s *routeSearch) state(idx, v int) int {
	slot := 0
	for s.vlans[slot] != v {
		slot++
	}
	return idx*len(s.vlans) + slot
}

// relax records that state st is reachable at cost and hops from state
// from, if that beats what the run has for it.
func (s *routeSearch) relax(st int, cost time.Duration, hops int32, from int32) {
	if s.seen[st] == s.epoch &&
		(s.done[st] == s.epoch || cost > s.cost[st] || (cost == s.cost[st] && hops >= s.hops[st])) {
		return
	}
	s.seen[st], s.cost[st], s.hops[st], s.prev[st] = s.epoch, cost, hops, from
	s.seq++
	s.push(searchEntry{cost: cost, hops: hops, state: int32(st), seq: s.seq})
}

// settleNext pops the next live state, settles it and relaxes its
// neighbors. It reports false when the run is exhausted.
func (s *routeSearch) settleNext(t *Topology) bool {
	for len(s.heap) > 0 {
		e := s.pop()
		st := int(e.state)
		if s.done[st] == s.epoch || e.cost > s.cost[st] || (e.cost == s.cost[st] && e.hops > s.hops[st]) {
			continue // stale entry superseded by a better relaxation
		}
		s.done[st] = s.epoch
		s.expand(t, st)
		return true
	}
	return false
}

// expand relaxes the states one step from settled state st.
func (s *routeSearch) expand(t *Topology, st int) {
	ns := len(s.vlans)
	idx, vlan := st/ns, s.vlans[st%ns]
	id := t.order[idx]
	// A crashed node neither forwards nor re-tags; routing flows around
	// it (and never into it, below).
	if t.downNodes[id] {
		return
	}
	n := t.nodes[id]
	cost, hops := s.cost[st], s.hops[st]
	// Routers re-tag traffic onto any useful VLAN at no cost.
	if n.Kind == Router {
		for slot, v := range s.vlans {
			if v != vlan {
				s.relax(idx*ns+slot, cost, hops, int32(st))
			}
		}
	}
	// Hosts never forward transit traffic, except gateways.
	if n.Kind == Host && idx != s.src && !n.Forwards {
		return
	}
	for _, li := range t.adj[id] {
		l := t.links[li]
		if t.disabledLinks[l] {
			continue
		}
		next, lat := l.B, l.LatAtoB
		if next == id {
			next, lat = l.A, l.LatBtoA
		}
		if t.downNodes[next] || !l.allowsVLAN(vlan) {
			continue
		}
		s.relax(t.nodes[next].idx*ns+st%ns, cost+lat, hops+1, int32(st))
	}
}

// pathTo rebuilds the node path to settled state goal, skipping the
// zero-length re-tag steps at routers.
func (s *routeSearch) pathTo(t *Topology, goal int) []string {
	ns := len(s.vlans)
	n, last := 0, -1
	for at := goal; at >= 0; at = int(s.prev[at]) {
		if at/ns != last {
			n, last = n+1, at/ns
		}
	}
	path := make([]string, n)
	last = -1
	for at := goal; at >= 0; at = int(s.prev[at]) {
		if at/ns != last {
			n, last = n-1, at/ns
			path[n] = t.order[last]
		}
	}
	return path
}

// push and pop keep s.heap a binary min-heap in searchEntry.before order.
func (s *routeSearch) push(e searchEntry) {
	h := append(s.heap, e)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !h[i].before(h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	s.heap = h
}

func (s *routeSearch) pop() searchEntry {
	h := s.heap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	for i := 0; ; {
		c := 2*i + 1
		if c >= last {
			break
		}
		if r := c + 1; r < last && h[r].before(h[c]) {
			c = r
		}
		if !h[c].before(h[i]) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	s.heap = h
	return top
}
