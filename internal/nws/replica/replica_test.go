package replica

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"nwsenv/internal/nws/proto"
	"nwsenv/internal/nws/proto/prototest"
	"nwsenv/internal/telemetry"
)

func TestPlaceNeverSharesSwitchWithPrimary(t *testing.T) {
	groups := [][]string{
		{"a1", "a2", "a3"},
		{"b1", "b2"},
		{"c1", "c2"},
	}
	got := Place([]string{"a1", "b1"}, groups, 2)
	groupOf := map[string]string{"a1": "a", "a2": "a", "a3": "a", "b1": "b", "b2": "b", "c1": "c", "c2": "c"}
	for primary, set := range got {
		if len(set) != 2 {
			t.Fatalf("primary %s: want 2 replicas, got %v", primary, set)
		}
		for _, h := range set {
			if h == primary {
				t.Fatalf("primary %s replicated to itself", primary)
			}
			if groupOf[h] == groupOf[primary] {
				t.Fatalf("primary %s replica %s shares its switch", primary, h)
			}
		}
	}
}

func TestPlaceDeterministic(t *testing.T) {
	groups := [][]string{{"a1", "a2"}, {"b1", "b2"}, {"c1"}}
	first := Place([]string{"a1", "b1", "c1"}, groups, 1)
	for i := 0; i < 10; i++ {
		if again := Place([]string{"c1", "a1", "b1"}, groups, 1); !reflect.DeepEqual(first, again) {
			t.Fatalf("placement not deterministic:\n first: %v\n again: %v", first, again)
		}
	}
}

func TestPlaceRelaxesToDistinctHost(t *testing.T) {
	// One switch only: the distinct-switch rule cannot hold, but the
	// primary still must never be its own replica.
	got := Place([]string{"a1"}, [][]string{{"a1", "a2", "a3"}}, 2)
	set := got["a1"]
	if len(set) != 2 {
		t.Fatalf("want relaxed 2-host set, got %v", set)
	}
	for _, h := range set {
		if h == "a1" {
			t.Fatal("primary placed as its own replica")
		}
	}
}

// fanPort records replica deliveries, optionally blocking to test the
// bounded window.
type fanPort struct {
	prototest.StubPort
	mu    sync.Mutex
	calls []proto.Message
	block chan struct{} // non-nil: Call blocks until closed
}

func (p *fanPort) Call(to string, m proto.Message, d time.Duration) (proto.Message, error) {
	if p.block != nil {
		<-p.block
	}
	p.mu.Lock()
	p.calls = append(p.calls, m)
	p.mu.Unlock()
	return proto.Message{Type: proto.MsgReplAck}, nil
}

func TestFanoutDeliversAndCounts(t *testing.T) {
	reg := telemetry.New(func() time.Duration { return 0 })
	met := NewMetrics(reg)
	port := &fanPort{StubPort: prototest.StubPort{HostName: "p", RT: proto.NewRealRuntime()}}
	f := NewFanout(port, []string{"r1", "r2", "p"}, 1024, met)
	defer f.Stop()
	if got := len(f.Replicas()); got != 2 {
		t.Fatalf("self must be excluded from the replica set, got %d queues", got)
	}
	f.Store("s", []proto.Sample{{At: 1, Value: 2}}, 1)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if met.Writes.Value() == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("want 2 delivered writes, got %d", met.Writes.Value())
		}
		time.Sleep(time.Millisecond)
	}
	port.mu.Lock()
	defer port.mu.Unlock()
	for _, m := range port.calls {
		if m.Type != proto.MsgReplStore || len(m.Results) != 1 || m.Results[0].Lag != 1 || m.Results[0].Series != "s" {
			t.Fatalf("unexpected fan-out message %+v", m)
		}
	}
}

func TestFanoutShedsBeyondWindow(t *testing.T) {
	reg := telemetry.New(func() time.Duration { return 0 })
	met := NewMetrics(reg)
	block := make(chan struct{})
	port := &fanPort{StubPort: prototest.StubPort{HostName: "p", RT: proto.NewRealRuntime()}, block: block}
	f := NewFanout(port, []string{"r1"}, 1024, met)
	defer f.Stop()
	f.window = 2
	for i := 0; i < 5; i++ {
		f.Store("s", nil, int64(i+1))
	}
	if got := met.Drops.Value(); got != 3 {
		t.Fatalf("want 3 shed sends beyond the window of 2, got %d", got)
	}
	close(block)
}

// stepPort hands every fan-out call to the test, which answers it.
type stepPort struct {
	prototest.StubPort
	calls   chan proto.Message
	answers chan error
}

func (p *stepPort) Call(to string, m proto.Message, d time.Duration) (proto.Message, error) {
	p.calls <- m
	return proto.Message{Type: proto.MsgReplAck}, <-p.answers
}

func samples(n int) []proto.Sample {
	out := make([]proto.Sample, n)
	for i := range out {
		out[i] = proto.Sample{At: time.Duration(i) * time.Second, Value: float64(i)}
	}
	return out
}

// TestFanoutMergesWhatQueued: while one frame is on the wire, the
// stores queued behind it leave as one merged frame, in order, up to
// the frame cap; a window travels alone and is never overtaken; a lone
// store's frame is a frame of one entry. Counters count stores.
func TestFanoutMergesWhatQueued(t *testing.T) {
	reg := telemetry.New(func() time.Duration { return 0 })
	met := NewMetrics(reg)
	met.Frames = reg.Counter("replica", "fanout_messages", nil)
	port := &stepPort{
		StubPort: prototest.StubPort{HostName: "p", RT: proto.NewRealRuntime()},
		calls:    make(chan proto.Message), answers: make(chan error),
	}
	f := NewFanout(port, []string{"r"}, 4, met)
	defer f.Stop()

	lone := samples(1)
	f.Store("a", lone, 1)
	first := <-port.calls
	want := proto.Message{Type: proto.MsgReplStore, Version: proto.V3,
		Results: []proto.SeriesResult{{Series: "a", Samples: lone, Lag: 1}}}
	if !reflect.DeepEqual(first, want) {
		t.Fatalf("lone store sent as %+v, want %+v", first, want)
	}
	// Queued behind the first frame: three stores that fit in 4
	// samples, a fourth that does not, a window, then one more store.
	f.Store("a", samples(1), 2)
	f.Store("b", samples(2), 2)
	f.Store("a", samples(1), 3)
	f.Store("b", samples(3), 5)
	f.Window("c", samples(6), 6)
	f.Store("c", samples(1), 7)
	port.answers <- nil

	type entry struct {
		series string
		n      int
		total  int64
	}
	frames := []struct {
		typ     proto.MsgType
		entries []entry
	}{
		{proto.MsgReplStore, []entry{{"a", 1, 2}, {"b", 2, 2}, {"a", 1, 3}}},
		{proto.MsgReplStore, []entry{{"b", 3, 5}}},
		{proto.MsgReplWindow, []entry{{"c", 6, 6}}},
		{proto.MsgReplStore, []entry{{"c", 1, 7}}},
	}
	for i, want := range frames {
		m := <-port.calls
		var got []entry
		if m.Type == proto.MsgReplWindow {
			got = []entry{{m.Series, len(m.Samples), m.Total}}
		}
		for _, r := range m.Results {
			got = append(got, entry{r.Series, len(r.Samples), r.Lag})
		}
		if m.Type != want.typ || !reflect.DeepEqual(got, want.entries) {
			t.Fatalf("frame %d is a %v carrying %+v, want a %v carrying %+v", i+2, m.Type, got, want.typ, want.entries)
		}
		port.answers <- nil
	}
	deadline := time.Now().Add(5 * time.Second)
	for met.Writes.Value() != 7 || met.Frames.Value() != 5 {
		if time.Now().After(deadline) {
			t.Fatalf("writes_total %d, fanout_messages %d, want 7 stores in 5 frames", met.Writes.Value(), met.Frames.Value())
		}
		time.Sleep(time.Millisecond)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if q := f.queues["r"]; q.inflight != 0 {
		t.Fatalf("%d stores still counted in flight", q.inflight)
	}
}
