package simnet

import (
	"fmt"
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
	id       int64
	src, dst string
	tag      string
	bytes    float64
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

	records      []TransferStats
	collisions   []*CollisionEvent
	collisionIdx map[collisionKey]*CollisionEvent
	probeBytes   map[string]int64 // bytes transferred per tag
	probeCount   map[string]int
	// settles counts individual flow-settle operations: the unit of
	// work of the fair-share engine, so it is its cost meter.
	settles int64
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
		probeBytes:   map[string]int64{},
		probeCount:   map[string]int{},
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
	if err := n.topo.checkEndpoints(src, dst); err != nil {
		return TransferStats{}, err
	}
	if src == dst {
		return TransferStats{}, fmt.Errorf("simnet: transfer to self (%s)", src)
	}
	r, err := n.topo.route(src, dst)
	if err != nil {
		return TransferStats{}, err
	}
	if bytes <= 0 {
		bytes = 1
	}

	n.sim.Sleep(r.lat)

	f := &flow{
		src: src, dst: dst, tag: tag,
		bytes: float64(bytes), remaining: float64(bytes),
		done:     vclock.NewChan[xferOutcome](n.sim, "xfer:"+src+"->"+dst),
		started:  n.sim.Now(),
		aloneBps: r.bw,
		heapIdx:  -1,
	}

	n.mu.Lock()
	n.nextFlowID++
	f.id = n.nextFlowID
	f.settledAt = f.started
	f.res = n.pathResources(r.path)
	if tag != "" {
		n.noteCollisionsLocked(f)
		n.probeBytes[tag] += bytes
		n.probeCount[tag]++
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
	return n.topo.PathLatency(src, dst)
}

// Ping blocks the calling process for a full round trip of a small
// message of the given size (request out, acknowledgment back) and
// returns the measured RTT. This is the NWS latency experiment (§2.2:
// "a 4 byte TCP socket transfer is timed from one host to another one
// and back").
func (n *Network) Ping(src, dst string, bytes int64) (time.Duration, error) {
	if err := n.topo.checkEndpoints(src, dst); err != nil {
		return 0, err
	}
	fwd, err := n.topo.route(src, dst)
	if err != nil {
		return 0, err
	}
	back, err := n.topo.PathLatency(dst, src)
	if err != nil {
		return 0, err
	}
	start := n.sim.Now()
	n.sim.Sleep(fwd.lat + serialization(fwd.bw, bytes) + back)
	return n.sim.Now() - start, nil
}

// ConnectTime blocks for a TCP three-way handshake (1.5 RTT) and returns
// its duration (§2.2: "TCP socket connect-disconnect time is measured
// directly").
func (n *Network) ConnectTime(src, dst string) (time.Duration, error) {
	if err := n.topo.checkEndpoints(src, dst); err != nil {
		return 0, err
	}
	fwd, err := n.topo.PathLatency(src, dst)
	if err != nil {
		return 0, err
	}
	back, err := n.topo.PathLatency(dst, src)
	if err != nil {
		return 0, err
	}
	start := n.sim.Now()
	n.sim.Sleep(fwd + back + fwd) // SYN, SYN-ACK, ACK observed by the client
	return n.sim.Now() - start, nil
}

// serialization approximates the transmission delay of a small message
// of bytes at bw bits/s.
func serialization(bw float64, bytes int64) time.Duration {
	if bw <= 0 {
		return 0
	}
	return time.Duration(float64(bytes*8) / bw * float64(time.Second))
}

// Deliver schedules fn to run after the one-way message delay from src to
// dst (latency plus serialization of bytes). It is the primitive used by
// the NWS control-plane transport; control messages are assumed too small
// to contend for bandwidth. The route and its cost are one cache lookup.
func (n *Network) Deliver(src, dst string, bytes int64, fn func()) error {
	if err := n.topo.checkEndpoints(src, dst); err != nil {
		return err
	}
	r, err := n.topo.route(src, dst)
	if err != nil {
		return err
	}
	n.sim.Post(r.lat+serialization(r.bw, bytes), fn)
	return nil
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
			if g.tag != "" && !seen[id] {
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
					n.recordCollisionLocked(g.tag, f.tag, rf.key)
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

// finishFlowsLocked records the finished flows' statistics and returns
// them, one per flow, for the outcome sends the caller performs outside
// the lock. finished must be sorted by flow id.
func (n *Network) finishFlowsLocked(finished []*flow) []TransferStats {
	now := n.sim.Now()
	stats := make([]TransferStats, 0, len(finished))
	for _, f := range finished {
		dur := now - f.started
		var bps float64
		if dur > 0 {
			bps = f.bytes * 8 / dur.Seconds()
		} else {
			bps = f.aloneBps
		}
		st := TransferStats{
			Src: f.src, Dst: f.dst, Tag: f.tag, Bytes: int64(f.bytes),
			Start: f.started, End: now, Duration: dur,
			AvgBps: bps, AloneBps: f.aloneBps,
		}
		n.records = append(n.records, st)
		stats = append(stats, st)
	}
	return stats
}

// Records returns all completed transfer statistics, in completion order.
func (n *Network) Records() []TransferStats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]TransferStats(nil), n.records...)
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

// CollisionCount returns the total number of collision occurrences
// (the sum of all aggregate counts).
func (n *Network) CollisionCount() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	total := 0
	for _, c := range n.collisions {
		total += c.Count
	}
	return total
}

// ProbeTraffic reports total probe bytes and probe count per tag prefix.
func (n *Network) ProbeTraffic() (bytes int64, count int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, b := range n.probeBytes {
		bytes += b
	}
	for _, c := range n.probeCount {
		count += c
	}
	return bytes, count
}

// ResetAccounting clears records, collisions and probe counters (used
// between experiment phases).
func (n *Network) ResetAccounting() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.records = nil
	n.collisions = nil
	n.collisionIdx = map[collisionKey]*CollisionEvent{}
	n.probeBytes = map[string]int64{}
	n.probeCount = map[string]int{}
}
