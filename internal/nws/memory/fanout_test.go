package memory

import (
	"math/rand/v2"
	"reflect"
	"testing"
	"time"

	"nwsenv/internal/nws/nameserver"
	"nwsenv/internal/nws/proto"
	"nwsenv/internal/nws/replica"
	"nwsenv/internal/simnet"
	"nwsenv/internal/telemetry"
	"nwsenv/internal/vclock"
)

// TestRecordLagWatermark: a primary's record counts the samples it
// accepted; a replica's counts what it applied against the totals the
// primary stamped, and the difference is its lag.
func TestRecordLagWatermark(t *testing.T) {
	r := rig(t, false)
	var acks []int64
	r.run(t, func(c *Client) {
		// Primary side: 3 then 2 accepted samples.
		c.Store("own", samples(0, 3)...)
		c.Store("own", samples(3, 2)...)
		// Replica side: the first fan-out store (total 3) applies in
		// sync; the second (total 5) is lost; a third (total 6) surfaces
		// the gap; a window replacement catches the replica up.
		for _, m := range []proto.Message{
			{Type: proto.MsgReplStore, Series: "s", Samples: samples(0, 3), Total: 3},
			{Type: proto.MsgReplStore, Series: "s", Samples: samples(5, 1), Total: 6},
			{Type: proto.MsgReplWindow, Series: "s", Samples: samples(1, 5), Total: 6},
		} {
			ack, err := c.St.Call("m", m, c.Timeout)
			if err != nil {
				t.Error(err)
				return
			}
			acks = append(acks, ack.Total)
		}
	})
	if own := r.srv.series["own"]; own.total != 5 || own.watermark() != 5 {
		t.Fatalf("primary record total %d, watermark %d; want 5", own.total, own.watermark())
	}
	if want := []int64{0, 2, 0}; !reflect.DeepEqual(acks, want) {
		t.Fatalf("acked lags %v, want %v", acks, want)
	}
	if s := r.srv.series["s"]; s.lag() != 0 || s.watermark() != 6 || s.origin != "c" {
		t.Fatalf("replica record lag %d, watermark %d, origin %q; want 0, 6, c", s.lag(), s.watermark(), s.origin)
	}
}

// samples returns n samples numbered from first.
func samples(first, n int) []proto.Sample {
	out := make([]proto.Sample, n)
	for i := range out {
		v := first + i + 1
		out[i] = proto.Sample{At: time.Duration(v) * time.Second, Value: float64(v)}
	}
	return out
}

// replPair is one primary → replica pair on the simulator. The test
// process plays the primary's request loop, so the stores it feeds
// enqueue on the fan-out at the instants it chooses; the replica's loop
// records every fan-out frame before serving it.
type replPair struct {
	sim              *vclock.Sim
	primary, replica *Server
	reg              *telemetry.Registry
	stC              *proto.Station
	frames           []proto.Message
	drawn            []int // stamps the replica drew per fan-out frame
	fresh            []int // entries of that frame it applied
}

func newReplPair(t *testing.T, frame int) *replPair {
	t.Helper()
	topo := simnet.NewTopology()
	for i, h := range []string{"ns", "p", "r", "c"} {
		topo.AddHost(h, string(rune('1'+i)), h, "x")
	}
	topo.AddSwitch("sw")
	for _, h := range []string{"ns", "p", "r", "c"} {
		topo.Connect(h, "sw")
	}
	sim := vclock.New()
	tr := proto.NewSimTransport(simnet.NewNetwork(sim, topo))
	open := func(h string) *proto.Station {
		ep, err := tr.Open(h)
		if err != nil {
			t.Fatal(err)
		}
		return proto.NewStation(tr.Runtime(), ep)
	}
	p := &replPair{sim: sim, reg: telemetry.New(sim.Now)}
	sim.Go("ns", nameserver.New(open("ns")).Run)
	stP, stR := open("p"), open("r")
	p.primary = New(stP, nil, WithReplicas("r"), WithTelemetry(p.reg))
	p.replica = New(stR, nameserver.NewClient(stR, "ns"))
	p.primary.retention, p.replica.retention = 8, 8
	p.primary.fan = replica.NewFanout(stP, p.primary.replicas, frame, p.primary.met)
	p.stC = open("c")
	sim.Go("replica", func() {
		for {
			req, ok := stR.Recv()
			if !ok {
				return
			}
			fresh := 0
			if req.Type == proto.MsgReplStore || req.Type == proto.MsgReplWindow {
				p.frames = append(p.frames, req)
				for _, e := range frameEntries(req) {
					if r := p.replica.series[e.Series]; r == nil || !r.registered {
						fresh++
					}
				}
			}
			before := stamps.Load()
			p.replica.serve(req)
			if req.Type == proto.MsgReplStore || req.Type == proto.MsgReplWindow {
				p.drawn = append(p.drawn, int(stamps.Load()-before))
				p.fresh = append(p.fresh, fresh)
			}
		}
	})
	return p
}

// frameEntries lists a fan-out frame's stores (or its window) as
// entries, Lag carrying each one's total.
func frameEntries(m proto.Message) []proto.SeriesResult {
	if len(m.Results) > 0 {
		return m.Results
	}
	return []proto.SeriesResult{{Series: m.Series, Samples: m.Samples, Lag: m.Total}}
}

// feed plays a seeded mix against the pair: bursts of stores (some
// longer than the fan-out's in-flight window, so both senders shed),
// window pushes between them, and one direct store that promotes a
// replica-held series to owned on the replica.
func (p *replPair) feed(t *testing.T, seed uint64) {
	rng := rand.New(rand.NewPCG(seed, 7))
	names := []string{"s0", "s1", "s2", "s3", "s4"}
	at := 0
	p.sim.Go("feed", func() {
		for burst := 0; burst < 10; burst++ {
			for range 1 + rng.IntN(2*replica.DefaultWindow) {
				name := names[rng.IntN(len(names))]
				if rng.IntN(16) == 0 {
					p.primary.mu.Lock()
					r := p.primary.record(name)
					w, total := append([]proto.Sample(nil), r.window...), r.total
					p.primary.mu.Unlock()
					p.primary.fan.Window(name, w, total)
					continue
				}
				n := 1 + rng.IntN(3)
				p.primary.serve(proto.Message{Type: proto.MsgStore, From: "c", Series: name, Samples: samples(at, n)})
				at += n
			}
			p.sim.Sleep(time.Minute) // both senders drain
			if burst == 4 {
				c := NewClient(p.stC, "r")
				if err := c.Store("s1", samples(at, 1)...); err != nil {
					t.Error(err)
				}
				at++
			}
		}
	})
	if err := p.sim.RunUntil(time.Hour); err != nil {
		t.Fatal(err)
	}
}

// TestFanoutBatchingEquivalent: the batching sender leaves a replica
// exactly where store-by-store delivery does — windows, lag and
// watermarks, writes_total and fanout_drops — while every entry draws a
// fresh token, no frame exceeds one retention window, and a window is
// never merged with stores or reordered against them.
func TestFanoutBatchingEquivalent(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		one := newReplPair(t, 0) // no frame has room for a second store
		one.feed(t, seed)
		batched := newReplPair(t, 8)
		batched.feed(t, seed)

		counter := func(p *replPair, name string) int64 { return p.reg.Counter("replica", name, nil).Value() }
		for _, name := range []string{"writes_total", "fanout_drops"} {
			if a, b := counter(one, name), counter(batched, name); a != b {
				t.Errorf("seed %d: %s %d store by store, %d batched", seed, name, a, b)
			}
		}
		if counter(one, "fanout_drops") == 0 {
			t.Errorf("seed %d: no burst overflowed the window", seed)
		}
		if f, w := counter(batched, "fanout_messages"), counter(batched, "writes_total"); f >= w {
			t.Errorf("seed %d: %d frames for %d stores: nothing merged", seed, f, w)
		}
		if len(one.frames) != int(counter(one, "fanout_messages")) {
			t.Errorf("seed %d: store-by-store sent %d frames, counted %d", seed, len(one.frames), counter(one, "fanout_messages"))
		}

		t.Logf("seed %d: %d stores, %d drops, %d frames batched vs %d", seed, counter(one, "writes_total"), counter(one, "fanout_drops"), counter(batched, "fanout_messages"), counter(one, "fanout_messages"))
		// The same stores and windows arrive in the same order.
		type item struct {
			typ    proto.MsgType
			series string
			n      int
			total  int64
		}
		flatten := func(frames []proto.Message) (out []item) {
			for _, m := range frames {
				for _, e := range frameEntries(m) {
					out = append(out, item{m.Type, e.Series, len(e.Samples), e.Lag})
				}
			}
			return out
		}
		if a, b := flatten(one.frames), flatten(batched.frames); !reflect.DeepEqual(a, b) {
			t.Errorf("seed %d: batched delivery order differs from store by store (%d vs %d items)", seed, len(a), len(b))
		}
		for i, m := range batched.frames {
			n := 0
			for _, e := range frameEntries(m) {
				n += len(e.Samples)
			}
			if n > batched.primary.retention {
				t.Errorf("seed %d: frame %d carries %d samples, over one retention window", seed, i, n)
			}
			if m.Type == proto.MsgReplWindow && len(m.Results) > 0 {
				t.Errorf("seed %d: frame %d merges a window with stores", seed, i)
			}
			if batched.drawn[i] != batched.fresh[i] {
				t.Errorf("seed %d: frame %d applied %d entries under %d fresh tokens", seed, i, batched.fresh[i], batched.drawn[i])
			}
		}

		// The replica ends in the same state.
		state := func(p *replPair) map[string]record {
			out := map[string]record{}
			for name, r := range p.replica.series {
				rec := *r
				rec.token = 0 // stamps are drawn afresh by every run
				out[name] = rec
			}
			return out
		}
		if a, b := state(one), state(batched); !reflect.DeepEqual(a, b) {
			t.Errorf("seed %d: replica state differs\n store by store: %+v\n batched:        %+v", seed, a, b)
		}
		if r := batched.replica.series["s1"]; r == nil || !r.registered || r.origin != "" {
			t.Errorf("seed %d: the direct store did not promote s1 on the replica: %+v", seed, r)
		}
	}
}
