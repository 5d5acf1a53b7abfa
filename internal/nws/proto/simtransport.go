package proto

import (
	"fmt"
	"sync"

	"nwsenv/internal/simnet"
	"nwsenv/internal/telemetry"
)

// SimTransport delivers messages over a simnet.Network: each message is
// charged the one-way path latency plus serialization of its exact
// frame length (Message.WireSize); firewall zones apply. A host the
// network has crashed (simnet.Network.CrashHost) neither sends nor
// receives.
type SimTransport struct {
	net *simnet.Network
	rt  *SimRuntime

	mu  sync.Mutex
	eps map[string]*simEndpoint
	// gen counts the Opens and Closes: a peer resolved at another
	// generation looks its destination endpoint up again.
	gen     uint64
	blocked map[string]bool // "a|b" unordered pair -> messages dropped
	stats   wireStats
	// free recycles delivery records; bounded by the peak number of
	// messages in flight.
	free []*delivery
}

// NewSimTransport builds a transport over net.
func NewSimTransport(net *simnet.Network) *SimTransport {
	return &SimTransport{
		net:     net,
		rt:      NewSimRuntime(net.Sim()),
		eps:     map[string]*simEndpoint{},
		blocked: map[string]bool{},
	}
}

// SetTelemetry implements Transport. Simulated messages are never
// byte-encoded, so each is counted at its WireSize — the cost the
// network charges and the bytes TCP would write.
func (t *SimTransport) SetTelemetry(reg *telemetry.Registry) {
	t.mu.Lock()
	t.stats = newWireStats(reg)
	t.mu.Unlock()
}

// Runtime implements Transport.
func (t *SimTransport) Runtime() Runtime { return t.rt }

// Network returns the underlying simulated network.
func (t *SimTransport) Network() *simnet.Network { return t.net }

// Open implements Transport.
func (t *SimTransport) Open(host string) (Endpoint, error) {
	if n := t.net.Topology().Node(host); n == nil || n.Kind != simnet.Host {
		return nil, fmt.Errorf("proto: no such host %q", host)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, busy := t.eps[host]; busy {
		return nil, fmt.Errorf("proto: endpoint %q already open", host)
	}
	self, _ := t.net.Pair(host, host) // host is a known node: no error
	ep := &simEndpoint{t: t, host: host, self: self, peers: map[string]*simPeer{}}
	t.eps[host] = ep
	t.gen++
	return ep, nil
}

// SetBlocked partitions (or heals) the control-plane path between two
// hosts: messages in either direction silently vanish. Used to inject
// network partitions without killing hosts.
func (t *SimTransport) SetBlocked(a, b string, blocked bool) {
	if a > b {
		a, b = b, a
	}
	t.mu.Lock()
	if blocked {
		t.blocked[a+"|"+b] = true
	} else {
		delete(t.blocked, a+"|"+b)
	}
	t.mu.Unlock()
}

func (t *SimTransport) isBlocked(a, b string) bool {
	if a > b {
		a, b = b, a
	}
	return t.blocked[a+"|"+b]
}

type simEndpoint struct {
	t    *SimTransport
	host string
	// self is the network's host→host pair: it tells whether the host
	// is down.
	self *simnet.Pair
	// handler receives every message delivered here; nil (before
	// Handle, after Close) drops them.
	handler func(*Message)
	// peers holds the destinations this endpoint has sent to, each
	// resolved once; guarded by the transport's lock.
	peers map[string]*simPeer
}

// simPeer is one destination of an endpoint: the network pair the
// messages travel over (whose version stamp tells a crash or restore)
// and the destination's open endpoint, nil when none is open, as of
// transport generation gen.
type simPeer struct {
	to  string
	p   *simnet.Pair
	dst *simEndpoint
	gen uint64
}

// peerLocked returns the endpoint's peer to, resolving it on first use.
// Caller holds the transport's lock.
func (e *simEndpoint) peerLocked(to string) (*simPeer, error) {
	t := e.t
	pe := e.peers[to]
	if pe == nil {
		p, err := t.net.Pair(e.host, to)
		if err != nil {
			return nil, err
		}
		pe = &simPeer{to: to, p: p}
		e.peers[to] = pe
	}
	pe.revalidateLocked(t)
	return pe, nil
}

// revalidateLocked brings the peer's destination endpoint up to the
// transport's generation. Caller holds the transport's lock.
func (pe *simPeer) revalidateLocked(t *SimTransport) {
	if pe.gen != t.gen {
		pe.dst, pe.gen = t.eps[pe.to], t.gen
	}
}

func (e *simEndpoint) Host() string { return e.host }

func (e *simEndpoint) Handle(h func(*Message)) {
	e.t.mu.Lock()
	e.handler = h
	e.t.mu.Unlock()
}

// Send hands m, as it is, to the destination's handler when it lands;
// a message that goes nowhere goes back to the free list.
func (e *simEndpoint) Send(to string, m *Message) error {
	t := e.t
	if down, _ := e.self.Down(); down {
		t.rt.msgs.put(m)
		return fmt.Errorf("proto: host %s is down", e.host)
	}
	t.mu.Lock()
	// A partition drops traffic silently: the sender only learns through
	// timeouts. No pair is blocked unless a test made it so: skip the
	// lookup while the map is empty.
	if len(t.blocked) > 0 && t.isBlocked(e.host, to) {
		t.mu.Unlock()
		t.rt.msgs.put(m)
		return nil
	}
	if to == e.host {
		// Local delivery: no network charge and nothing counted, as on
		// TCP, where a self-send goes straight to the handler.
		h := e.handler
		t.mu.Unlock()
		if h != nil {
			h(m)
		} else {
			t.rt.msgs.put(m)
		}
		return nil
	}
	pe, err := e.peerLocked(to)
	if err != nil {
		t.mu.Unlock()
		t.rt.msgs.put(m)
		return err
	}
	// Messages to dead hosts vanish (like packets to a crashed machine):
	// the sender notices only through timeouts, as with real NWS.
	if _, down := pe.p.Down(); down {
		t.mu.Unlock()
		t.rt.msgs.put(m)
		return nil
	}
	stats := t.stats
	d := t.newDeliveryLocked()
	t.mu.Unlock()
	size := m.WireSize()
	stats.encoded(size)
	d.pe, d.m, d.size, d.stats = pe, m, size, stats
	if err := pe.p.Deliver(size, d.arrive); err != nil {
		t.mu.Lock()
		t.recycleLocked(d)
		t.mu.Unlock()
		t.rt.msgs.put(m)
		return err
	}
	return nil
}

// delivery is one message in flight. Records are pooled per transport
// and each builds its arrival callback once, so steady-state traffic
// allocates neither a callback nor a message: the record carries the
// sender's.
type delivery struct {
	t      *SimTransport
	pe     *simPeer
	m      *Message
	size   int64
	stats  wireStats
	arrive func()
}

func (t *SimTransport) newDeliveryLocked() *delivery {
	if n := len(t.free); n > 0 {
		d := t.free[n-1]
		t.free[n-1] = nil
		t.free = t.free[:n-1]
		return d
	}
	d := &delivery{t: t}
	d.arrive = d.land
	return d
}

// recycleLocked clears d's references and returns it to the pool.
func (t *SimTransport) recycleLocked(d *delivery) {
	*d = delivery{t: t, arrive: d.arrive}
	t.free = append(t.free, d)
}

// land hands the message to its destination's handler — unless the
// destination closed or went down while it was in flight — and
// recycles the record.
func (d *delivery) land() {
	t := d.t
	pe, m, size, stats := d.pe, d.m, d.size, d.stats
	t.mu.Lock()
	pe.revalidateLocked(t)
	var h func(*Message)
	if pe.dst != nil {
		h = pe.dst.handler
	}
	t.recycleLocked(d)
	t.mu.Unlock()
	if _, down := pe.p.Down(); h == nil || down {
		t.rt.msgs.put(m)
		return
	}
	stats.received(size)
	h(m)
}

func (e *simEndpoint) Close() error {
	t := e.t
	t.mu.Lock()
	delete(t.eps, e.host)
	t.gen++
	e.handler = nil
	t.mu.Unlock()
	return nil
}
