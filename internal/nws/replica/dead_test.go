package replica_test

import (
	"testing"
	"time"

	"nwsenv/internal/nws/memory"
	"nwsenv/internal/nws/proto"
	"nwsenv/internal/nws/replica"
	"nwsenv/internal/simnet"
	"nwsenv/internal/telemetry"
	"nwsenv/internal/vclock"
)

// frameLog counts the ReplStore frames a primary puts on the wire.
type frameLog struct {
	proto.Port
	frames int
}

func (p *frameLog) Call(to string, m proto.Message, d time.Duration) (proto.Message, error) {
	if m.Type == proto.MsgReplStore {
		p.frames++
	}
	return p.Port.Call(to, m, d)
}

// TestFanoutDeadReplica: while the replica does not answer, the sender
// spends one timeout per frame, not per store; stores beyond the
// in-flight window are shed; and once the replica answers again the
// gap shows up as its lag.
func TestFanoutDeadReplica(t *testing.T) {
	topo := simnet.NewTopology()
	for i, h := range []string{"p", "r", "c"} {
		topo.AddHost(h, string(rune('1'+i)), h, "x")
	}
	topo.AddSwitch("sw")
	for _, h := range []string{"p", "r", "c"} {
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
	reg := telemetry.New(sim.Now)
	port := &frameLog{Port: open("p")}
	sim.Go("primary", memory.New(port, nil, memory.WithReplicas("r"), memory.WithTelemetry(reg)).Run)
	sim.Go("replica", memory.New(open("r"), nil).Run)
	stC := open("c")
	counter := func(name string) int64 { return reg.Counter("replica", name, nil).Value() }

	const stores = 200
	sim.Go("test", func() {
		tr.SetDown("r", true)
		c := memory.NewClient(stC, "p")
		for i := 1; i <= stores; i++ {
			if err := c.Store("s", proto.Sample{At: time.Duration(i) * time.Millisecond, Value: float64(i)}); err != nil {
				t.Error(err)
				return
			}
		}
		// The first store's frame is on the wire, 127 more wait behind
		// it, and the rest found the window full.
		if got := counter("fanout_drops"); got != stores-replica.DefaultWindow {
			t.Errorf("fanout_drops = %d, want %d", got, stores-replica.DefaultWindow)
		}
		sim.Sleep(25 * time.Second)
		// Two timeouts drained all 128: the lone first store, then one
		// frame holding everything that queued during it.
		if port.frames != 2 || counter("writes_total") != 0 {
			t.Errorf("after two timeouts: %d frames sent, writes_total %d; want 2 frames, nothing delivered", port.frames, counter("writes_total"))
		}
		tr.SetDown("r", false)
		c.Store("s", proto.Sample{At: time.Minute, Value: -1})
		sim.Sleep(time.Second)
		if port.frames != 3 || counter("writes_total") != 1 {
			t.Errorf("after recovery: %d frames, writes_total %d; want 3 and 1", port.frames, counter("writes_total"))
		}
		res, err := memory.NewClient(stC, "r").BatchFetch([]proto.SeriesRequest{{Series: "s"}})
		if err != nil {
			t.Error(err)
			return
		}
		if r := res[0]; !r.Replica || r.Lag != stores || len(r.Samples) != 1 || r.Samples[0].Value != -1 {
			t.Errorf("replica answers %+v, want the one delivered sample with lag %d", r, stores)
		}
	})
	if err := sim.RunUntil(time.Minute); err != nil {
		t.Fatal(err)
	}
}
