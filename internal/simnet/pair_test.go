package simnet

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"nwsenv/internal/vclock"
)

// TestPairsCountRouteLookupsAcrossFaults: a reused pair resolution
// counts as the route-cache hit its replaced lookup would have been.
// Seeded exchanges and faults run on a network while a twin topology
// replays the lookups each exchange made before pairs existed (the
// endpoint check, then one route lookup per leg); the cache counters
// must agree after every step.
func TestPairsCountRouteLookupsAcrossFaults(t *testing.T) {
	build := func() *Topology {
		topo := NewTopology()
		topo.AddHost("a", "10.2.0.1", "a.ring", "ring")
		topo.AddHost("b", "10.2.0.2", "b.ring", "ring")
		topo.AddHost("c", "10.2.0.3", "c.ring", "ring", WithZones("dmz"))
		topo.AddHost("d", "10.2.0.4", "d.ring", "ring")
		topo.AddRouter("r1", "10.2.0.253", "r1.ring")
		topo.AddRouter("r2", "10.2.0.254", "r2.ring")
		topo.Connect("a", "r1")
		topo.Connect("r1", "b")
		topo.Connect("a", "r2", LinkLatency(time.Millisecond))
		topo.Connect("r2", "b", LinkLatency(time.Millisecond))
		topo.Connect("c", "r2")
		topo.Connect("d", "r1")
		return topo
	}
	hosts := []string{"a", "b", "c", "d"}
	links := [][2]string{{"a", "r1"}, {"r1", "b"}, {"a", "r2"}, {"r2", "b"}}
	twin := build()
	sim := vclock.New()
	net := NewNetwork(sim, build())

	// lookups replays an exchange's route lookups on the twin: legs is
	// 1 for a one-way exchange, 2 for a round trip.
	lookups := func(src, dst string, legs int) {
		if twin.checkEndpoints(src, dst) != nil {
			return
		}
		if _, err := twin.route(src, dst); err == nil && legs == 2 {
			twin.route(dst, src)
		}
	}
	rng := rand.New(rand.NewSource(7))
	runOne(t, sim, func() {
		for step := 0; step < 2000; step++ {
			src, dst := hosts[rng.Intn(len(hosts))], hosts[rng.Intn(len(hosts))]
			l := links[rng.Intn(len(links))]
			var op string
			switch k := rng.Intn(20); {
			case k < 6:
				op = "message"
				if p, err := net.Pair(src, dst); err == nil {
					p.Deliver(64, func() {})
				}
				lookups(src, dst, 1)
			case k < 8:
				op = "transfer"
				net.Transfer(src, dst, 1000, "")
				if src != dst {
					lookups(src, dst, 1)
				}
			case k < 10:
				op = "ping"
				net.Ping(src, dst, 4)
				lookups(src, dst, 2)
			case k < 12:
				op = "connect"
				net.ConnectTime(src, dst)
				lookups(src, dst, 2)
			case k < 14:
				op = "latency"
				net.Latency(src, dst)
				twin.route(src, dst)
			case k < 15:
				op = "crash " + src
				net.CrashHost(src)
				twin.SetNodeDown(src, true)
			case k < 17:
				op = "restore " + src
				net.RestoreHost(src)
				twin.SetNodeDown(src, false)
			case k < 18:
				op = "cut " + l[0] + "-" + l[1]
				net.CutLink(l[0], l[1])
				twin.SetLinkDisabled(l[0], l[1], true)
			case k < 19:
				op = "heal " + l[0] + "-" + l[1]
				net.HealLink(l[0], l[1])
				twin.SetLinkDisabled(l[0], l[1], false)
			default:
				op = "route b->a via r2"
				net.Topology().SetRoute("b", "a", []string{"b", "r2", "a"})
				twin.SetRoute("b", "a", []string{"b", "r2", "a"})
			}
			gotH, gotM := net.Topology().RouteCacheStats()
			wantH, wantM := twin.RouteCacheStats()
			if gotH != wantH || gotM != wantM {
				t.Errorf("step %d (%s %s->%s): %d hits, %d misses; lookups without pairs: %d, %d", step, op, src, dst, gotH, gotM, wantH, wantM)
				return
			}
		}
	})
}

// TestJitterBoundedAndFIFO: under SetJitter every message lands between
// its plain one-way delay and that delay plus the bound, the messages
// of one ordered pair land in the order they were sent (a late draw
// holds the ones behind it), and one seed replays the same arrivals.
// Without jitter every message lands after exactly its plain delay.
func TestJitterBoundedAndFIFO(t *testing.T) {
	const bound = 300 * time.Millisecond
	arrivals := func(jitter time.Duration, seed int64) (sent, landed []time.Duration, plain time.Duration) {
		topo := NewTopology()
		topo.AddHost("a", "10.3.0.1", "a.lan", "lan")
		topo.AddHost("b", "10.3.0.2", "b.lan", "lan")
		topo.AddSwitch("sw")
		topo.Connect("a", "sw", LinkLatency(2*time.Millisecond))
		topo.Connect("sw", "b", LinkLatency(2*time.Millisecond))
		sim := vclock.New()
		net := NewNetwork(sim, topo)
		if jitter > 0 {
			net.SetJitter(jitter, seed)
		}
		p, err := net.Pair("a", "b")
		if err != nil {
			t.Fatal(err)
		}
		r, _ := p.route()
		plain = r.lat + serialization(r.bw, 64)
		sim.Go("sender", func() {
			for i := 0; i < 200; i++ {
				sent = append(sent, sim.Now())
				if err := p.Deliver(64, func() { landed = append(landed, sim.Now()) }); err != nil {
					t.Error(err)
				}
				if i%3 == 0 {
					sim.Sleep(40 * time.Millisecond) // bursts of three at one instant
				}
			}
		})
		if err := sim.Run(); err != nil {
			t.Fatal(err)
		}
		return sent, landed, plain
	}

	sent, landed, plain := arrivals(0, 0)
	for i := range sent {
		if landed[i]-sent[i] != plain {
			t.Fatalf("without jitter message %d took %v, want %v", i, landed[i]-sent[i], plain)
		}
	}

	sent, landed, plain = arrivals(bound, 1)
	if len(landed) != len(sent) {
		t.Fatalf("%d of %d messages landed", len(landed), len(sent))
	}
	held, spread := 0, time.Duration(0)
	for i := range sent {
		d := landed[i] - sent[i]
		if i > 0 && landed[i] < landed[i-1] {
			t.Fatalf("message %d landed at %v, before message %d at %v", i, landed[i], i-1, landed[i-1])
		}
		if d < plain {
			t.Fatalf("message %d took %v, less than the plain delay %v", i, d, plain)
		}
		if i > 0 && landed[i] == landed[i-1] {
			held++ // held behind the previous message
			continue
		}
		if d >= plain+bound {
			t.Fatalf("message %d took %v, past the bound %v", i, d, plain+bound)
		}
		spread = max(spread, d-plain)
	}
	if spread < bound/2 {
		t.Fatalf("largest draw %v of a %v bound over %d messages", spread, bound, len(sent))
	}
	if _, again, _ := arrivals(bound, 1); !slices.Equal(again, landed) {
		t.Fatal("one jitter seed replayed different arrivals")
	}
	if _, other, _ := arrivals(bound, 2); slices.Equal(other, landed) {
		t.Fatal("two jitter seeds drew the same arrivals")
	}
	t.Logf("%d of %d messages held behind an earlier draw", held, len(sent))
}
