package simnet

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"sync"
	"time"

	"nwsenv/internal/vclock"
)

// TransferStats describes a completed bulk transfer.
type TransferStats struct {
	Src, Dst string
	Tag      string
	Bytes    int64
	// Start/End bound the data phase (after the one-way path latency).
	Start, End time.Duration
	// Duration = End - Start.
	Duration time.Duration
	// AvgBps is the achieved throughput in bits per second.
	AvgBps float64
	// AloneBps is the ground-truth throughput the flow would have achieved
	// with no competing traffic.
	AloneBps float64
}

// TrafficRow is one row of the network's traffic table: what the flows
// from Src to Dst under Tag carried since the last ResetAccounting.
// Started and StartedBytes count the flows as they start, aborted ones
// included; Done and DoneBytes count the ones that completed. The table
// holds one row per key, so it grows with the pairs measured, not with
// the transfers.
type TrafficRow struct {
	Src, Dst, Tag           string
	Started, Done           int
	StartedBytes, DoneBytes int64
}

// CollisionEvent records two tagged probe flows competing for a resource —
// exactly the situation the NWS clique protocol exists to prevent (§2.3).
// Repeated collisions of the same (TagA, TagB, Resource) triple are
// aggregated: Count is the number of occurrences, At the first and Last
// the most recent, so collision accounting stays bounded under long runs.
type CollisionEvent struct {
	At       time.Duration
	TagA     string
	TagB     string
	Resource string
	Count    int
	Last     time.Duration
}

type collisionKey struct {
	tagA, tagB, resource string
}

type resource struct {
	key string
	cap float64 // bytes per second
	// flows indexes the active flows crossing this resource; it is the
	// flow⇄resource index the fair-share engine walks to find the
	// connected component a change can affect.
	flows map[int64]*flow
}

// xferOutcome is what a finished (or aborted) flow reports back to the
// blocked Transfer call.
type xferOutcome struct {
	stats TransferStats
	err   error
}

type flow struct {
	id    int64
	row   *TrafficRow // the flow's source, destination and tag
	bytes float64
	// remaining is the outstanding byte count as of settledAt: a flow is
	// settled lazily, only when its own rate changes.
	remaining float64
	settledAt time.Duration
	rate      float64 // bytes per second
	res       []*resource
	done      *vclock.Chan[xferOutcome]
	started   time.Duration
	aloneBps  float64
	// heapIdx/compAt place the flow in the completion min-heap (-1 when
	// not enqueued).
	heapIdx int
	compAt  time.Duration
}

// Network executes transfers over a Topology in virtual time, sharing
// capacity among concurrent flows by max-min fairness. It maintains a
// flow⇄resource index and recomputes, on each flow arrival, departure or
// fault, only the connected component of flows that transitively share a
// resource with the change; completions are scheduled from a min-heap
// (fairshare.go).
type Network struct {
	sim  *vclock.Sim
	topo *Topology

	mu         sync.Mutex
	nextFlowID int64
	// active indexes all in-flight flows by id.
	active map[int64]*flow
	// compHeap orders active flows by projected completion time.
	compHeap  flowHeap
	resources map[string]*resource
	// linkFactor scales the capacity of degraded links (fault injection);
	// absent links run at nominal capacity.
	linkFactor map[*Link]float64
	completion *vclock.Event

	traffic      []*TrafficRow // the table's rows, first seen first (Pair.rowLocked)
	collisions   []*CollisionEvent
	collisionIdx map[collisionKey]*CollisionEvent
	// settles counts individual flow-settle operations: the unit of
	// work of the fair-share engine, so it is its cost meter.
	settles int64

	// pairs holds the resolved node pairs (pair.go), keyed by the
	// nodes' positions in creation order: a lookup hashes two integers,
	// not two names.
	pairs map[uint64]*Pair
	// jitter bounds the extra delay of each message, drawn from
	// jitterRNG (SetJitter); 0 means none.
	jitter    time.Duration
	jitterRNG *rand.Rand
}

// NewNetwork binds a topology to a simulation.
func NewNetwork(sim *vclock.Sim, topo *Topology) *Network {
	if err := topo.Validate(); err != nil {
		panic(err)
	}
	return &Network{
		sim:          sim,
		topo:         topo,
		active:       map[int64]*flow{},
		resources:    map[string]*resource{},
		linkFactor:   map[*Link]float64{},
		collisionIdx: map[collisionKey]*CollisionEvent{},
		pairs:        map[uint64]*Pair{},
	}
}

// Sim returns the simulation driving this network.
func (n *Network) Sim() *vclock.Sim { return n.sim }

// Topology returns the underlying topology.
func (n *Network) Topology() *Topology { return n.topo }

func (n *Network) resourceFor(key string, capBits float64) *resource {
	if r, ok := n.resources[key]; ok {
		return r
	}
	r := &resource{key: key, cap: capBits / 8, flows: map[int64]*flow{}}
	n.resources[key] = r
	return r
}

// pathResources builds the ordered resource list a flow consumes: one per
// directed link hop plus one per traversed hub collision domain.
func (n *Network) pathResources(path []string) []*resource {
	var out []*resource
	for i := 0; i+1 < len(path); i++ {
		l := n.topo.findLink(path[i], path[i+1])
		var c float64
		if l.A == path[i] {
			c = l.BWAtoB
		} else {
			c = l.BWBtoA
		}
		if f, ok := n.linkFactor[l]; ok {
			c *= f
		}
		out = append(out, n.resourceFor("edge:"+path[i]+"->"+path[i+1], c))
	}
	for _, id := range path {
		if node := n.topo.Node(id); node.Kind == Hub {
			out = append(out, n.resourceFor("hub:"+id, node.HubCapacity))
		}
	}
	return out
}

// Transfer moves bytes from src to dst, blocking the calling process in
// virtual time for the path latency plus the contention-dependent data
// phase. A non-empty tag marks the flow as a measurement probe for
// collision accounting. Must be called from a simulation process.
func (n *Network) Transfer(src, dst string, bytes int64, tag string) (TransferStats, error) {
	p, err := n.Pair(src, dst)
	if err != nil {
		return TransferStats{}, err
	}
	if err := p.check(); err != nil {
		return TransferStats{}, err
	}
	if src == dst {
		return TransferStats{}, fmt.Errorf("simnet: transfer to self (%s)", src)
	}
	r, err := p.route()
	if err != nil {
		return TransferStats{}, err
	}
	if bytes <= 0 {
		bytes = 1
	}
	n.mu.Lock()
	res := p.resourcesLocked()
	n.mu.Unlock()

	n.sim.Sleep(r.lat)

	f := &flow{
		bytes: float64(bytes), remaining: float64(bytes),
		res:      res,
		done:     vclock.NewChan[xferOutcome](n.sim, "xfer:"+src+"->"+dst),
		started:  n.sim.Now(),
		aloneBps: r.bw,
		heapIdx:  -1,
	}

	n.mu.Lock()
	n.nextFlowID++
	f.id = n.nextFlowID
	f.settledAt = f.started
	f.row = p.rowLocked(tag)
	f.row.Started++
	f.row.StartedBytes += bytes
	if tag != "" {
		n.noteCollisionsLocked(f)
	}
	n.addFlowLocked(f)
	n.recomputeComponentLocked([]*flow{f})
	n.scheduleNextLocked()
	n.mu.Unlock()

	out, _ := f.done.Recv()
	if out.err != nil {
		return TransferStats{}, out.err
	}
	return out.stats, nil
}

// addFlowLocked inserts f into the active set and the flow⇄resource
// index.
func (n *Network) addFlowLocked(f *flow) {
	n.active[f.id] = f
	for _, r := range f.res {
		r.flows[f.id] = f
	}
}

// removeFlowLocked drops f from the active set, the flow⇄resource index
// and the completion heap.
func (n *Network) removeFlowLocked(f *flow) {
	delete(n.active, f.id)
	for _, r := range f.res {
		delete(r.flows, f.id)
	}
	n.compHeap.remove(f)
}

// Latency returns the one-way path latency from src to dst.
func (n *Network) Latency(src, dst string) (time.Duration, error) {
	p, err := n.Pair(src, dst)
	if err != nil {
		return 0, err
	}
	r, err := p.route()
	return r.lat, err
}

// Ping blocks the calling process for a full round trip of a small
// message of the given size (request out, acknowledgment back) and
// returns the measured RTT. This is the NWS latency experiment (§2.2:
// "a 4 byte TCP socket transfer is timed from one host to another one
// and back").
func (n *Network) Ping(src, dst string, bytes int64) (time.Duration, error) {
	fwd, back, err := n.roundTrip(src, dst)
	if err != nil {
		return 0, err
	}
	start := n.sim.Now()
	n.sim.Sleep(fwd.lat + serialization(fwd.bw, bytes) + back.lat)
	return n.sim.Now() - start, nil
}

// ConnectTime blocks for a TCP three-way handshake (1.5 RTT) and returns
// its duration (§2.2: "TCP socket connect-disconnect time is measured
// directly").
func (n *Network) ConnectTime(src, dst string) (time.Duration, error) {
	fwd, back, err := n.roundTrip(src, dst)
	if err != nil {
		return 0, err
	}
	start := n.sim.Now()
	n.sim.Sleep(fwd.lat + back.lat + fwd.lat) // SYN, SYN-ACK, ACK observed by the client
	return n.sim.Now() - start, nil
}

// roundTrip resolves the two routes of an exchange from src to dst and
// back.
func (n *Network) roundTrip(src, dst string) (fwd, back route, err error) {
	p, err := n.Pair(src, dst)
	if err != nil {
		return route{}, route{}, err
	}
	if err := p.check(); err != nil {
		return route{}, route{}, err
	}
	if fwd, err = p.route(); err != nil {
		return route{}, route{}, err
	}
	if back, err = p.reverse().route(); err != nil {
		return route{}, route{}, err
	}
	return fwd, back, nil
}

// serialization approximates the transmission delay of a small message
// of bytes at bw bits/s.
func serialization(bw float64, bytes int64) time.Duration {
	if bw <= 0 {
		return 0
	}
	return time.Duration(float64(bytes*8) / bw * float64(time.Second))
}

// noteCollisionsLocked records probe-vs-probe contention created by
// adding f: for each already-active tagged flow sharing at least one
// resource with f, one collision on the first shared resource in f's
// path order. Candidates come from the flow⇄resource index, in flow-id
// order.
func (n *Network) noteCollisionsLocked(f *flow) {
	seen := map[int64]bool{}
	var candidates []*flow
	for _, r := range f.res {
		for id, g := range r.flows {
			if g.row.Tag != "" && !seen[id] {
				seen[id] = true
				candidates = append(candidates, g)
			}
		}
	}
	sort.Slice(candidates, func(i, j int) bool { return candidates[i].id < candidates[j].id })
	for _, g := range candidates {
		for _, rf := range f.res {
			shared := false
			for _, rg := range g.res {
				if rf == rg {
					n.recordCollisionLocked(g.row.Tag, f.row.Tag, rf.key)
					shared = true
					break
				}
			}
			if shared {
				break
			}
		}
	}
}

// recordCollisionLocked aggregates one collision occurrence.
func (n *Network) recordCollisionLocked(tagA, tagB, resource string) {
	now := n.sim.Now()
	k := collisionKey{tagA, tagB, resource}
	if c, ok := n.collisionIdx[k]; ok {
		c.Count++
		c.Last = now
		return
	}
	c := &CollisionEvent{At: now, TagA: tagA, TagB: tagB, Resource: resource, Count: 1, Last: now}
	n.collisionIdx[k] = c
	n.collisions = append(n.collisions, c)
}

// finishFlowsLocked counts the finished flows in the traffic table.
func (n *Network) finishFlowsLocked(finished []*flow) {
	for _, f := range finished {
		f.row.Done++
		f.row.DoneBytes += int64(f.bytes)
	}
}

// Traffic returns the traffic table's rows in the order their keys
// were first seen, leaving out those ResetAccounting cleared and no
// flow has touched since.
func (n *Network) Traffic() []TrafficRow {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]TrafficRow, 0, len(n.traffic))
	for _, r := range n.traffic {
		if r.Started > 0 || r.Done > 0 {
			out = append(out, *r)
		}
	}
	return out
}

// Collisions returns all probe-vs-probe contention aggregates in
// first-occurrence order. Each entry carries the occurrence Count and
// the first (At) and most recent (Last) timestamps.
func (n *Network) Collisions() []CollisionEvent {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]CollisionEvent, 0, len(n.collisions))
	for _, c := range n.collisions {
		out = append(out, *c)
	}
	return out
}

// ProbeTraffic reports the bytes and count of tagged flows started.
func (n *Network) ProbeTraffic() (bytes int64, count int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, r := range n.traffic {
		if r.Tag != "" {
			bytes += r.StartedBytes
			count += r.Started
		}
	}
	return bytes, count
}

// ResetAccounting clears the traffic table and the collisions (used
// between experiment phases). A row keeps its place, zeroed, so a flow
// in flight across the reset counts its completion after it.
func (n *Network) ResetAccounting() {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, r := range n.traffic {
		r.Started, r.Done, r.StartedBytes, r.DoneBytes = 0, 0, 0, 0
	}
	n.collisions = nil
	n.collisionIdx = map[collisionKey]*CollisionEvent{}
}
