package simnet

import (
	"container/heap"
	"time"
)

// Reference route search, test-only.
//
// This is the early-stop Dijkstra the topology ran on every route-cache
// miss before its search became resumable (search.go), kept verbatim as
// the oracle the product search is differential-tested against
// (route_differential_test.go): it allocates its state per call and
// stops at its goal, so a resumption or retag-class bug in the product
// search cannot hide in both.

// ReferencePath is the reference search's route from src to dst (nil:
// none), ignoring route overrides as a cache miss does. It is exported
// for the differential tests in package simnet_test.
func ReferencePath(t *Topology, src, dst string) []string { return t.dijkstra(src, dst) }

// RandomLAN exports the property tests' random LAN shape to package
// simnet_test.
func RandomLAN(seed int64, subnets, hostsPer int) (*Topology, []string) {
	return randomLAN(seed, subnets, hostsPer)
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
