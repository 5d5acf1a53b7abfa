// Differential test of the route search: the resumable search the
// route cache runs on a miss (search.go) must return, on every lookup,
// the path the test-only reference (route_reference_test.go, the
// early-stop search it replaced) computes, with the route-cache hits and
// misses a twin model of the cache predicts. An external test package
// because topo.SyntheticGrid imports simnet.
package simnet_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"nwsenv/internal/simnet"
	"nwsenv/internal/topo"
	"nwsenv/internal/vclock"
)

// routeShape is one topology of the differential: a SyntheticGrid, or
// the property tests' random LAN, optionally with a forwarding gateway
// host between two segments (behind a VLAN ACL with acl).
type routeShape struct {
	lan                          bool
	sites, switches, hosts, vlan int
	hubs, forward, acl           bool
	seed                         int64
}

// build returns the shape's topology and every node ID, hosts first.
func (s routeShape) build() (tp *simnet.Topology, hosts, nodes []string) {
	var from, to string
	if s.lan {
		tp, _ = simnet.RandomLAN(s.seed, s.sites, s.hosts)
		from, to = "seg0", fmt.Sprintf("seg%d", s.sites-1)
	} else {
		hub := 0.0
		if s.hubs {
			hub = 0.5
		}
		tp, _ = topo.SyntheticGrid(topo.GridConfig{
			Sites: s.sites, SwitchesPerSite: s.switches, HostsPerSwitch: s.hosts,
			VLANsPerSite: s.vlan, HubFraction: hub, Seed: s.seed,
		})
		from, to = "s0-0", fmt.Sprintf("s%d-%d", s.sites-1, s.switches-1)
	}
	if from == to { // one segment: bridge it to the core instead
		to = "core"
		if s.lan {
			to = "root"
		}
	}
	if s.forward {
		opts := []simnet.NodeOption{simnet.WithForwarding()}
		if s.lan {
			opts = append(opts, simnet.WithVLAN(s.vlan))
		}
		tp.AddHost("gw", "10.254.0.1", "gw.test", "test", opts...)
		tp.Connect("gw", from, simnet.LinkLatency(50*time.Microsecond))
		if s.acl {
			tp.Connect("gw", to, simnet.LinkLatency(50*time.Microsecond), simnet.LinkVLANs(0, 1, s.vlan))
		} else {
			tp.Connect("gw", to, simnet.LinkLatency(50*time.Microsecond))
		}
	}
	hosts = tp.HostIDs()
	for _, n := range tp.Nodes() {
		nodes = append(nodes, n.ID)
	}
	return tp, hosts, nodes
}

// routeModel is the twin of a network's route cache: its misses run the
// reference search on a twin topology carrying the same faults, and it
// evicts and wipes as the cache's contract says.
type routeModel struct {
	twin         *simnet.Topology
	cache        map[[2]string][]string // nil: no route
	override     map[[2]string][]string
	down         map[string]bool
	cut          map[[2]string]bool
	hits, misses int64
}

func newRouteModel(twin *simnet.Topology) *routeModel {
	return &routeModel{twin: twin, cache: map[[2]string][]string{}, override: map[[2]string][]string{},
		down: map[string]bool{}, cut: map[[2]string]bool{}}
}

func (m *routeModel) healthy(p []string) bool {
	for i, id := range p {
		if m.down[id] || i+1 < len(p) && m.cut[linkKey(id, p[i+1])] {
			return false
		}
	}
	return true
}

func (m *routeModel) path(src, dst string) []string {
	if src == dst {
		return []string{src}
	}
	if p, ok := m.override[[2]string{src, dst}]; ok && m.healthy(p) {
		return p
	}
	p, ok := m.cache[[2]string{src, dst}]
	if ok {
		m.hits++
		return p
	}
	m.misses++
	p = simnet.ReferencePath(m.twin, src, dst)
	m.cache[[2]string{src, dst}] = p
	return p
}

// evict drops the positive entries whose path uses an element for
// which on is true.
func (m *routeModel) evict(on func(p []string, i int) bool) {
	for k, p := range m.cache {
		for i := range p {
			if on(p, i) {
				delete(m.cache, k)
				break
			}
		}
	}
}

func (m *routeModel) setDown(id string, down bool) {
	m.down[id] = down
	m.twin.SetNodeDown(id, down)
	if down {
		m.evict(func(p []string, i int) bool { return p[i] == id })
	} else {
		clear(m.cache)
	}
}

func (m *routeModel) setCut(a, b string, cut bool) {
	m.cut[linkKey(a, b)] = cut
	m.twin.SetLinkDisabled(a, b, cut)
	if cut {
		m.evict(func(p []string, i int) bool { return i+1 < len(p) && linkKey(p[i], p[i+1]) == linkKey(a, b) })
	} else {
		clear(m.cache)
	}
}

func (m *routeModel) setRoute(src, dst string, p []string) {
	m.override[[2]string{src, dst}] = p
	clear(m.cache)
}

func linkKey(a, b string) [2]string {
	if b < a {
		a, b = b, a
	}
	return [2]string{a, b}
}

// checkRoutes looks up every ordered host pair of the shape in an order
// rng shuffles; with faults it interleaves crashes, restores, cuts,
// heals and forced routes. After every step the network's path must be
// the model's, and so must the route-cache hits and misses.
func checkRoutes(t testing.TB, s routeShape, rng *rand.Rand, faults bool) {
	tp, hosts, nodes := s.build()
	twin, _, _ := s.build()
	net := simnet.NewNetwork(vclock.New(), tp)
	model := newRouteModel(twin)
	links := tp.Links()

	// Mostly source-major, as the validator walks a clique, so lookups
	// resume the kept search; otherwise fully shuffled.
	srcs := slices.Clone(hosts)
	rng.Shuffle(len(srcs), func(i, j int) { srcs[i], srcs[j] = srcs[j], srcs[i] })
	var pairs [][2]string
	for _, a := range srcs {
		from := len(pairs)
		for _, b := range hosts {
			if a != b {
				pairs = append(pairs, [2]string{a, b})
			}
		}
		rng.Shuffle(len(pairs)-from, func(i, j int) { pairs[from+i], pairs[from+j] = pairs[from+j], pairs[from+i] })
	}
	if rng.Intn(3) == 0 {
		rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
	}
	for step, pr := range pairs {
		op := "lookup"
		if faults && rng.Intn(10) == 0 {
			switch l := links[rng.Intn(len(links))]; rng.Intn(5) {
			case 0:
				id := nodes[rng.Intn(len(nodes))]
				op = "crash " + id
				net.CrashHost(id)
				model.setDown(id, true)
			case 1:
				id := nodes[rng.Intn(len(nodes))]
				op = "restore " + id
				net.RestoreHost(id)
				model.setDown(id, false)
			case 2:
				op = "cut " + l.A + "-" + l.B
				net.CutLink(l.A, l.B)
				model.setCut(l.A, l.B, true)
			case 3:
				op = "heal " + l.A + "-" + l.B
				net.HealLink(l.A, l.B)
				model.setCut(l.A, l.B, false)
			default:
				// Force pr's route onto the reverse of its reverse
				// route, when there is one.
				back := simnet.ReferencePath(twin, pr[1], pr[0])
				if back == nil {
					break
				}
				p := slices.Clone(back)
				slices.Reverse(p)
				op = fmt.Sprintf("route %v", p)
				tp.SetRoute(pr[0], pr[1], p)
				model.setRoute(pr[0], pr[1], p)
			}
		}
		got, _ := tp.Path(pr[0], pr[1])
		want := model.path(pr[0], pr[1])
		if !slices.Equal(got, want) {
			t.Fatalf("%+v step %d (%s) %s->%s: path %v, reference %v", s, step, op, pr[0], pr[1], got, want)
		}
		if h, m := tp.RouteCacheStats(); h != model.hits || m != model.misses {
			t.Fatalf("%+v step %d (%s) %s->%s: %d hits, %d misses; model %d, %d", s, step, op, pr[0], pr[1], h, m, model.hits, model.misses)
		}
	}
}

// TestRoutesMatchReference runs the differential on 60 seeded shapes:
// grids with several VLANs per site and hub segments, random LANs, most
// with a forwarding gateway host, some behind a VLAN ACL.
func TestRoutesMatchReference(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := routeShape{
			lan:      seed%3 == 0,
			sites:    2 + rng.Intn(3),
			switches: 1 + rng.Intn(3),
			hosts:    1 + rng.Intn(4),
			vlan:     1 + rng.Intn(3),
			hubs:     rng.Intn(2) == 0,
			forward:  rng.Intn(4) > 0,
			acl:      rng.Intn(3) == 0,
			seed:     seed,
		}
		checkRoutes(t, s, rng, true)
	}
}

// FuzzRoutesMatchReference is the differential over fuzzed shapes,
// fault switches and lookup orders.
func FuzzRoutesMatchReference(f *testing.F) {
	f.Add(uint8(2), uint8(2), uint8(3), uint8(2), uint8(0b1111), int64(1))
	f.Add(uint8(3), uint8(1), uint8(2), uint8(3), uint8(0b10110), int64(2))
	f.Add(uint8(1), uint8(3), uint8(4), uint8(1), uint8(0b1011), int64(3))
	f.Fuzz(func(t *testing.T, sites, switches, hosts, vlan, bits uint8, seed int64) {
		s := routeShape{
			lan:      bits&16 != 0,
			sites:    1 + int(sites%4),
			switches: 1 + int(switches%3),
			hosts:    1 + int(hosts%4),
			vlan:     1 + int(vlan%3),
			hubs:     bits&1 != 0,
			forward:  bits&2 != 0,
			acl:      bits&4 != 0,
			seed:     seed,
		}
		checkRoutes(t, s, rand.New(rand.NewSource(seed)), bits&8 != 0)
	})
}
