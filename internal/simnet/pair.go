package simnet

import (
	"math/rand/v2"
	"time"
)

// A Pair is one ordered pair of nodes of a Network, resolved once: the
// endpoint checks of an exchange between them, their route and its
// price, and the resources a transfer over it occupies. The resolution
// is stamped with the topology's version and reused while the stamp
// matches, so a steady-state message or probe hashes no host-name pair,
// builds no resource key and reads the endpoints' fault state without
// a lock. Like every pricing entry point, a Pair is used from the
// simulation: its processes and events.
type Pair struct {
	n        *Network
	src, dst *Node

	// version is the topology version the fields below were resolved
	// at (0: never).
	version          uint64
	srcDown, dstDown bool
	// err is why an exchange cannot start (Topology.checkEndpoints).
	err error
	// routed reports that r and routeErr hold the route at version.
	routed   bool
	r        route
	routeErr error
	// res lists the resources a transfer over r occupies; nil until a
	// transfer needs them.
	res []*resource
	// rows are the pair's traffic-table rows, one per tag.
	rows []*TrafficRow
	// lastArrival is when the pair's latest jittered message lands: the
	// next one lands no earlier, so the pair stays FIFO.
	lastArrival time.Duration
}

// Pair returns the network's handle on exchanges from src to dst, or
// the error an exchange naming an unknown endpoint fails with. The
// handle is the same for the network's lifetime.
func (n *Network) Pair(src, dst string) (*Pair, error) {
	a, b := n.topo.nodes[src], n.topo.nodes[dst]
	if a == nil || b == nil {
		return nil, n.topo.checkEndpoints(src, dst)
	}
	return n.pair(a, b), nil
}

// pair returns the handle on a→b.
func (n *Network) pair(a, b *Node) *Pair {
	key := uint64(a.idx)<<32 | uint64(b.idx)
	p := n.pairs[key]
	if p == nil {
		p = &Pair{n: n, src: a, dst: b}
		n.pairs[key] = p
	}
	return p
}

// reverse returns the handle on the opposite direction.
func (p *Pair) reverse() *Pair { return p.n.pair(p.dst, p.src) }

// resolve brings the pair up to the topology's version: a structural
// change, a fault or a repair since the last resolution re-reads the
// endpoints' state and drops the route.
func (p *Pair) resolve() {
	t := p.n.topo
	if p.version == t.version {
		return
	}
	p.version = t.version
	p.srcDown, p.dstDown = t.NodeDown(p.src.ID), t.NodeDown(p.dst.ID)
	p.err = t.checkEndpoints(p.src.ID, p.dst.ID)
	p.routed = false
}

// check reports why an exchange over the pair cannot start: a non-host
// or crashed endpoint, or no common firewall zone.
func (p *Pair) check() error {
	p.resolve()
	return p.err
}

// route returns the pair's route. The first lookup of a version is the
// topology's own, which counts its route-cache hit or miss; a reuse
// counts the hit that lookup would be now, as no invalidation has run
// since.
func (p *Pair) route() (route, error) {
	p.resolve()
	t := p.n.topo
	if !p.routed {
		p.r, p.routeErr = t.route(p.src.ID, p.dst.ID)
		p.routed, p.res = true, nil
	} else if p.r.cached {
		t.cacheHits.Add(1)
	}
	return p.r, p.routeErr
}

// resourcesLocked returns the resources of the pair's current route,
// building the list on its first transfer. A resource lives as long as
// the network, and a degraded link rescales it in place, so the list
// stays exact while the route does.
func (p *Pair) resourcesLocked() []*resource {
	if p.res == nil {
		p.res = p.n.pathResources(p.r.path)
	}
	return p.res
}

// rowLocked returns the pair's traffic row for tag, adding it to the
// network's table on its first flow.
func (p *Pair) rowLocked(tag string) *TrafficRow {
	for _, r := range p.rows {
		if r.Tag == tag {
			return r
		}
	}
	r := &TrafficRow{Src: p.src.ID, Dst: p.dst.ID, Tag: tag}
	p.rows = append(p.rows, r)
	p.n.traffic = append(p.n.traffic, r)
	return r
}

// Down reports whether the pair's source and destination are crashed
// (Network.CrashHost).
func (p *Pair) Down() (src, dst bool) {
	p.resolve()
	return p.srcDown, p.dstDown
}

// Deliver schedules fn to run after the one-way delay of a message of
// bytes from the pair's source to its destination: the path latency
// plus serialization. It is the primitive of the NWS control-plane
// transport; control messages are assumed too small to contend for
// bandwidth. It fails as an exchange that cannot start does.
func (p *Pair) Deliver(bytes int64, fn func()) error {
	if err := p.check(); err != nil {
		return err
	}
	r, err := p.route()
	if err != nil {
		return err
	}
	d := r.lat + serialization(r.bw, bytes)
	if p.n.jitter > 0 {
		d = p.jittered(d)
	}
	p.n.sim.Post(d, fn)
	return nil
}

// SetJitter is a network condition: every later message (Pair.Deliver)
// waits a further delay drawn uniformly from [0, max) by a generator
// seeded with seed, on top of its path latency, while the messages of
// one ordered pair still land in the order they were sent. It holds
// beside any fault until it is set again; max <= 0 turns it off.
func (n *Network) SetJitter(max time.Duration, seed int64) {
	n.jitter = max
	n.jitterRNG = rand.New(rand.NewPCG(uint64(seed), 0))
}

// jittered adds a jitter draw to the one-way delay d, holding the
// arrival behind the pair's last one.
func (p *Pair) jittered(d time.Duration) time.Duration {
	n := p.n
	now := n.sim.Now()
	at := max(now+d+time.Duration(n.jitterRNG.Int64N(int64(n.jitter))), p.lastArrival)
	p.lastArrival = at
	return at - now
}
