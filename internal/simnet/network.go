package simnet

import (
	"cmp"
	"fmt"
	"math/rand/v2"
	"slices"
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
	// flows lists the active flows crossing this resource, in no
	// particular order; it is the flow⇄resource index the fair-share
	// engine walks to find the connected component a change can
	// affect.
	flows []flowSlot
	// mark is the last epoch (Network.epoch) that visited the resource;
	// capLeft and load are its unallocated capacity and unfrozen flow
	// count during a progressive filling (fairshare.go).
	mark    uint64
	capLeft float64
	load    int
}

// flowSlot is one entry of a resource's flow list: the flow and the
// index k of the resource in the flow's path, where the flow keeps
// this entry's position (flow.slot[k]).
type flowSlot struct {
	f *flow
	k int
}

// xferOutcome is what a finished (or aborted) flow reports back to the
// blocked Transfer call: when its data phase started and ended, or why
// it was aborted.
type xferOutcome struct {
	start, end time.Duration
	err        error
}

// A flow is one transfer in its data phase. Flows are recycled: a flow
// goes back on the network's free list, outcome channel included, as
// its outcome is sent (finishLocked), when it is on no resource and off
// the completion heap. The outcome travels by value, so the Transfer
// call still blocked on the channel reads nothing of the flow, and a
// transfer that reuses the flow meanwhile has a receive of its own.
type flow struct {
	n     *Network
	id    int64
	row   *TrafficRow // the flow's source, destination and tag
	bytes float64
	// remaining is the outstanding byte count as of settledAt: a flow is
	// settled lazily, only when its own rate changes.
	remaining float64
	settledAt time.Duration
	rate      float64 // bytes per second
	// res is the path's resource list (shared with its Pair); slot[k]
	// is the flow's position in res[k].flows.
	res     []*resource
	slot    []int
	done    *vclock.Chan[xferOutcome]
	started time.Duration
	// heapIdx/compAt place the flow in the completion min-heap (-1 when
	// not enqueued); activeIdx is its position in Network.active.
	heapIdx   int
	compAt    time.Duration
	activeIdx int
	// mark is the last epoch (Network.epoch) that visited the flow.
	mark uint64
	// pair and tag are the transfer's, for begin: the event that starts
	// the data phase once the path latency has passed (start).
	pair  *Pair
	tag   string
	begin func()
}

// Network executes transfers over a Topology in virtual time, sharing
// capacity among concurrent flows by max-min fairness. It maintains a
// flow⇄resource index and recomputes, on each flow arrival, departure or
// fault, only the connected component of flows that transitively share a
// resource with the change; completions are scheduled from a min-heap
// (fairshare.go). In steady state a transfer allocates nothing: flows,
// their outcome channels and the completion event are reused, and the
// graph walks mark what they visit with an epoch instead of building
// sets.
type Network struct {
	sim  *vclock.Sim
	topo *Topology

	mu         sync.Mutex
	nextFlowID int64
	// active lists all in-flight flows, in no particular order.
	active []*flow
	// compHeap orders active flows by projected completion time.
	compHeap  flowHeap
	resources map[string]*resource
	// linkFactor scales the capacity of degraded links (fault injection);
	// absent links run at nominal capacity.
	linkFactor map[*Link]float64
	// completion is the one completion event, re-armed by Reset; armed
	// reports that it is pending.
	completion *vclock.Event
	armed      bool
	// freeFlows holds the finished flows for reuse.
	freeFlows []*flow
	// epoch numbers the graph walks: a flow or resource whose mark
	// equals it has been visited by the current one.
	epoch uint64
	// Scratch of the engine's walks, reused from one change to the
	// next: a component's flows and resources, the unfrozen flows of a
	// filling, the flows a departure or fault touches, the flows
	// finishing or aborting, and the collision candidates.
	comp, unfrozen, touched, ended, candidates []*flow
	compRes                                    []*resource

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
	r := &resource{key: key, cap: capBits / 8}
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
	f := n.newFlowLocked()
	f.pair, f.tag, f.res = p, tag, p.resourcesLocked()
	n.mu.Unlock()
	f.bytes = float64(bytes)

	// The data phase starts once the path latency has passed: an event,
	// not a wake of this process, which waits for the outcome alone.
	n.sim.Post(r.lat, f.begin)
	out, _ := f.done.Recv()
	if out.err != nil {
		return TransferStats{}, out.err
	}
	dur, bps := out.end-out.start, r.bw
	if dur > 0 {
		bps = float64(bytes) * 8 / dur.Seconds()
	}
	return TransferStats{
		Src: src, Dst: dst, Tag: tag, Bytes: bytes,
		Start: out.start, End: out.end, Duration: dur, AvgBps: bps, AloneBps: r.bw,
	}, nil
}

// newFlowLocked takes a flow off the free list, or builds one with its
// outcome channel and data-phase callback.
func (n *Network) newFlowLocked() *flow {
	if k := len(n.freeFlows); k > 0 {
		f := n.freeFlows[k-1]
		n.freeFlows[k-1] = nil
		n.freeFlows = n.freeFlows[:k-1]
		return f
	}
	f := &flow{n: n, done: vclock.NewChan[xferOutcome](n.sim, "simnet.transfer"), heapIdx: -1}
	f.begin = f.start
	return f
}

// start begins f's data phase: the flow is numbered, counted in
// its traffic row, checked for probe collisions and added to the
// engine, and the shares of its component are recomputed.
func (f *flow) start() {
	n := f.n
	n.mu.Lock()
	n.nextFlowID++
	f.id = n.nextFlowID
	f.remaining = f.bytes
	f.started = n.sim.Now()
	f.settledAt, f.rate = f.started, 0
	f.row = f.pair.rowLocked(f.tag)
	f.row.Started++
	f.row.StartedBytes += int64(f.bytes)
	if f.tag != "" {
		n.noteCollisionsLocked(f)
	}
	n.addFlowLocked(f)
	n.touched = append(n.touched[:0], f)
	n.recomputeComponentLocked(n.touched)
	n.scheduleNextLocked()
	n.mu.Unlock()
}

// finishLocked sends a departed flow its outcome and puts it on the
// free list.
func (n *Network) finishLocked(f *flow, out xferOutcome) {
	f.done.Send(out)
	f.row, f.res, f.pair, f.tag = nil, nil, nil, ""
	n.freeFlows = append(n.freeFlows, f)
}

// addFlowLocked inserts f into the active set and the flow⇄resource
// index.
func (n *Network) addFlowLocked(f *flow) {
	f.activeIdx = len(n.active)
	n.active = append(n.active, f)
	f.slot = f.slot[:0]
	for k, r := range f.res {
		f.slot = append(f.slot, len(r.flows))
		r.flows = append(r.flows, flowSlot{f, k})
	}
}

// removeFlowLocked drops f from the active set, the flow⇄resource index
// and the completion heap. Each list's last entry moves into f's place.
func (n *Network) removeFlowLocked(f *flow) {
	last := len(n.active) - 1
	moved := n.active[last]
	n.active[f.activeIdx], moved.activeIdx = moved, f.activeIdx
	n.active[last] = nil
	n.active = n.active[:last]
	for k, r := range f.res {
		i, last := f.slot[k], len(r.flows)-1
		m := r.flows[last]
		r.flows[i] = m
		m.f.slot[m.k] = i
		r.flows[last] = flowSlot{}
		r.flows = r.flows[:last]
	}
	n.compHeap.remove(f)
}

// byID orders flows by id, the engine's deterministic order.
func byID(a, b *flow) int { return cmp.Compare(a.id, b.id) }

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
	n.epoch++
	candidates := n.candidates[:0]
	for _, r := range f.res {
		for _, s := range r.flows {
			if g := s.f; g.row.Tag != "" && g.mark != n.epoch {
				g.mark = n.epoch
				candidates = append(candidates, g)
			}
		}
	}
	slices.SortFunc(candidates, byID)
	n.candidates = candidates
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
