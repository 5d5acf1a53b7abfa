package memory

import (
	"reflect"
	"testing"
	"time"

	"nwsenv/internal/nws/nameserver"
	"nwsenv/internal/nws/proto"
	"nwsenv/internal/nws/proto/prototest"
	"nwsenv/internal/simnet"
	"nwsenv/internal/vclock"
)

type rigT struct {
	sim  *vclock.Sim
	stC  *proto.Station // client station on host "c"
	srv  *Server
	nsUp bool
}

func rig(t *testing.T, withNS bool) *rigT {
	t.Helper()
	topo := simnet.NewTopology()
	topo.AddHost("ns", "1", "ns", "x")
	topo.AddHost("m", "2", "m", "x")
	topo.AddHost("c", "3", "c", "x")
	topo.AddSwitch("sw")
	topo.Connect("ns", "sw")
	topo.Connect("m", "sw")
	topo.Connect("c", "sw")
	sim := vclock.New()
	tr := proto.NewSimTransport(simnet.NewNetwork(sim, topo))
	rt := tr.Runtime()
	open := func(h string) *proto.Station {
		ep, err := tr.Open(h)
		if err != nil {
			t.Fatal(err)
		}
		return proto.NewStation(rt, ep)
	}
	stNS, stM, stC := open("ns"), open("m"), open("c")
	var nsc *nameserver.Client
	if withNS {
		sim.Go("ns", nameserver.New(stNS).Run)
		nsc = nameserver.NewClient(stM, "ns")
	}
	srv := New(stM, nsc)
	srv.retention = 5
	sim.Go("memory", srv.Run)
	return &rigT{sim: sim, stC: stC, srv: srv, nsUp: withNS}
}

func (r *rigT) run(t *testing.T, fn func(c *Client)) {
	t.Helper()
	r.sim.Go("test", func() { fn(NewClient(r.stC, "m")) })
	if err := r.sim.RunUntil(time.Hour); err != nil {
		t.Fatal(err)
	}
}

func TestStoreFetch(t *testing.T) {
	r := rig(t, false)
	r.run(t, func(c *Client) {
		if err := c.Store("lat.a.b", proto.Sample{At: time.Second, Value: 1.5}); err != nil {
			t.Error(err)
			return
		}
		c.Store("lat.a.b", proto.Sample{At: 2 * time.Second, Value: 2.5})
		got, err := c.Fetch("lat.a.b", 0)
		if err != nil {
			t.Error(err)
			return
		}
		if len(got) != 2 || got[0].Value != 1.5 || got[1].Value != 2.5 {
			t.Errorf("got %+v", got)
		}
	})
}

func TestFetchLastN(t *testing.T) {
	r := rig(t, false)
	r.run(t, func(c *Client) {
		for i := 1; i <= 4; i++ {
			c.Store("s", proto.Sample{At: time.Duration(i) * time.Second, Value: float64(i)})
		}
		got, _ := c.Fetch("s", 2)
		if len(got) != 2 || got[0].Value != 3 || got[1].Value != 4 {
			t.Errorf("got %+v", got)
		}
	})
}

func TestRetentionCap(t *testing.T) {
	r := rig(t, false) // retention 5
	r.run(t, func(c *Client) {
		for i := 1; i <= 12; i++ {
			c.Store("s", proto.Sample{At: time.Duration(i) * time.Second, Value: float64(i)})
		}
		got, _ := c.Fetch("s", 0)
		if len(got) != 5 {
			t.Errorf("retention: kept %d, want 5", len(got))
			return
		}
		if got[0].Value != 8 || got[4].Value != 12 {
			t.Errorf("oldest retained %+v", got)
		}
	})
}

// TestFetchNonPositiveN pins the documented n <= 0 contract: zero and
// negative counts both return the full retained window, and a count
// larger than the window clamps to it.
func TestFetchNonPositiveN(t *testing.T) {
	r := rig(t, false) // retention 5
	r.run(t, func(c *Client) {
		for i := 1; i <= 8; i++ {
			c.Store("s", proto.Sample{At: time.Duration(i) * time.Second, Value: float64(i)})
		}
		for _, n := range []int{0, -1, -100} {
			got, err := c.Fetch("s", n)
			if err != nil {
				t.Errorf("n=%d: %v", n, err)
				continue
			}
			if len(got) != 5 || got[0].Value != 4 || got[4].Value != 8 {
				t.Errorf("n=%d: got %+v, want the full 5-sample retained window", n, got)
			}
		}
		// n beyond the window clamps instead of erroring.
		if got, _ := c.Fetch("s", 99); len(got) != 5 {
			t.Errorf("n=99: got %d samples, want 5", len(got))
		}
	})
}

// TestBatchFetchMatchesSingle: the V2 batch answers exactly what the
// single-shot path would, per series, in request order.
func TestBatchFetchMatchesSingle(t *testing.T) {
	r := rig(t, false)
	r.run(t, func(c *Client) {
		for i := 1; i <= 4; i++ {
			c.Store("p", proto.Sample{At: time.Duration(i) * time.Second, Value: float64(i)})
			c.Store("q", proto.Sample{At: time.Duration(i) * time.Second, Value: float64(10 * i)})
		}
		res, err := c.BatchFetch([]proto.SeriesRequest{
			{Series: "q", Count: 2}, {Series: "p", Count: 0}, {Series: "none", Count: 1},
		})
		if err != nil {
			t.Error(err)
			return
		}
		if len(res) != 3 || res[0].Series != "q" || res[1].Series != "p" {
			t.Errorf("results out of order: %+v", res)
			return
		}
		if len(res[0].Samples) != 2 || res[0].Samples[1].Value != 40 {
			t.Errorf("q: %+v", res[0].Samples)
		}
		if len(res[1].Samples) != 4 {
			t.Errorf("p full window: %+v", res[1].Samples)
		}
		if len(res[2].Samples) != 0 || res[2].Error != "" {
			t.Errorf("unknown series in batch: %+v", res[2])
		}
	})
}

func TestFetchUnknownSeriesEmpty(t *testing.T) {
	r := rig(t, false)
	r.run(t, func(c *Client) {
		got, err := c.Fetch("none", 0)
		if err != nil || len(got) != 0 {
			t.Errorf("got %v err %v", got, err)
		}
	})
}

func TestEmptySeriesNameRejected(t *testing.T) {
	r := rig(t, false)
	r.run(t, func(c *Client) {
		if err := c.Store("", proto.Sample{Value: 1}); err == nil {
			t.Error("empty series accepted")
		}
	})
}

func TestSeriesRegisteredWithNameServer(t *testing.T) {
	r := rig(t, true)
	r.run(t, func(c *Client) {
		c.Store("bandwidth.a.b", proto.Sample{At: time.Second, Value: 80e6})
		nsc := nameserver.NewClient(r.stC, "ns")
		reg, found, err := nsc.LookupName("bandwidth.a.b")
		if err != nil || !found {
			t.Errorf("series not advertised: %v found=%v", err, found)
			return
		}
		if reg.Host != "m" || reg.Owner != "memory.m" {
			t.Errorf("reg %+v", reg)
		}
		// Memory server itself is registered too.
		if _, found, _ := nsc.LookupName("memory.m"); !found {
			t.Error("memory server not registered")
		}
	})
}

// replyPort is a proto.Port keeping the last reply a server sent, so a
// test can serve requests by hand and read the answers.
type replyPort struct {
	prototest.StubPort
	last proto.Message
}

func (p *replyPort) Reply(req *proto.Message, m proto.Message) error {
	p.last = m
	return nil
}

func (p *replyPort) ask(s *Server, req proto.Message) proto.Message {
	p.last = proto.Message{}
	s.serve(&req)
	return p.last
}

// TestHandOverAnswersAsBefore: a server holding owned series, replica
// copies with their counters and records never written hands over to a
// fresh server, which then answers every batch fetch and ReplSync as the
// old one did. Every window is restamped, the registrations are
// dropped, and records that hold nothing stay behind.
func TestHandOverAnswersAsBefore(t *testing.T) {
	oldPort := &replyPort{StubPort: prototest.StubPort{HostName: "m"}}
	old := New(oldPort, nameserver.NewClient(oldPort, "ns"))
	old.retention = 5
	for i := 1; i <= 7; i++ {
		oldPort.ask(old, proto.Message{Type: proto.MsgStore, Series: "own", Samples: samples(i, 1)})
	}
	oldPort.ask(old, proto.Message{Type: proto.MsgStore, Series: "own2", Samples: samples(1, 2)})
	oldPort.ask(old, proto.Message{Type: proto.MsgReplStore, From: "p",
		Results: []proto.SeriesResult{{Series: "held", Samples: samples(1, 3), Lag: 9}}})
	oldPort.ask(old, proto.Message{Type: proto.MsgReplWindow, From: "q", Series: "held2", Samples: samples(4, 2), Total: 6})
	old.mu.Lock()
	old.record("ghost")                                   // mentioned, never written, nothing held
	*old.record("counted") = record{origin: "p", seen: 4} // counters only, never written
	registered := old.series["own"].registered
	old.mu.Unlock()
	if !registered {
		t.Fatal("the owned series was never registered")
	}

	fresh := New(&replyPort{StubPort: prototest.StubPort{HostName: "m"}}, nil)
	fresh.retention = 5
	old.HandOver(fresh)
	freshPort := fresh.st.(*replyPort)

	names := []string{"own", "own2", "held", "held2", "ghost", "counted", "unknown"}
	for _, r := range fresh.series {
		if r.registered {
			t.Error("a registration survived the handover")
		}
	}
	if _, ok := fresh.series["ghost"]; ok {
		t.Error("a record holding nothing was handed over")
	}
	if len(fresh.series) != len(names)-2 {
		t.Errorf("handed over %d records, want %d", len(fresh.series), len(names)-2)
	}

	for _, count := range []int{0, 1, 3} {
		var qs []proto.SeriesRequest
		for _, name := range names {
			qs = append(qs, proto.SeriesRequest{Series: name, Count: count})
		}
		fetch := proto.Message{Type: proto.MsgBatchFetch, Version: proto.V3, Queries: qs}
		want, got := oldPort.ask(old, fetch), freshPort.ask(fresh, fetch)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("count %d: fetch after handover\n got %+v\nwant %+v", count, got, want)
		}
	}
	for _, from := range []string{"p", "q", "m", ""} {
		sync := proto.Message{Type: proto.MsgReplSync, Version: proto.V3, Name: from}
		if want, got := oldPort.ask(old, sync), freshPort.ask(fresh, sync); !reflect.DeepEqual(got, want) {
			t.Errorf("ReplSync %q after handover\n got %+v\nwant %+v", from, got, want)
		}
	}

	// The old server's tokens: each holds its window there, and none
	// matches after the handover.
	var qs []proto.SeriesRequest
	for _, name := range names {
		qs = append(qs, proto.SeriesRequest{Series: name, Token: proto.AskToken})
	}
	before := oldPort.ask(old, proto.Message{Type: proto.MsgBatchFetch, Version: proto.V3, Queries: qs})
	for i := range qs {
		qs[i].Token = before.ResultTokens[i]
	}
	if qs[0].Token == 0 {
		t.Fatal("the old server issued no token")
	}
	after := freshPort.ask(fresh, proto.Message{Type: proto.MsgBatchFetch, Version: proto.V3, Queries: qs})
	for i, q := range qs {
		if q.Token != 0 && after.ResultTokens[i] == q.Token {
			t.Errorf("%s: token %#x issued before the handover still matches", q.Series, q.Token)
		}
		if !reflect.DeepEqual(after.Results[i].Samples, before.Results[i].Samples) {
			t.Errorf("%s: tokened fetch after handover %+v, want the window %+v", q.Series, after.Results[i].Samples, before.Results[i].Samples)
		}
	}
}

// TestAppendWindowSteadyState: a series at retention takes single-sample
// stores without reallocating its window, and the window is always the
// newest retention samples.
func TestAppendWindowSteadyState(t *testing.T) {
	var buf []proto.Sample
	at := 0
	next := func() []proto.Sample {
		at++
		return []proto.Sample{{At: time.Duration(at) * time.Second, Value: float64(at)}}
	}
	for i := 0; i < DefaultRetention+10_000; i++ {
		buf = appendWindow(buf, next(), DefaultRetention)
	}
	if len(buf) != DefaultRetention {
		t.Fatalf("window holds %d samples, want %d", len(buf), DefaultRetention)
	}
	for i, sm := range buf {
		if want := float64(at - DefaultRetention + 1 + i); sm.Value != want {
			t.Fatalf("window[%d] = %v, want %v (the newest %d samples)", i, sm.Value, want, DefaultRetention)
		}
	}
	one := next()
	if allocs := testing.AllocsPerRun(100, func() { buf = appendWindow(buf, one, DefaultRetention) }); allocs != 0 {
		t.Fatalf("a store onto a window at retention allocates %v times, want 0", allocs)
	}
}

// TestFetchReplyOutlivesLaterStores pins "readers copy out", which
// appendWindow's in-place slide relies on: a BatchFetch reply obtained
// before later stores slid the window is unchanged by them.
func TestFetchReplyOutlivesLaterStores(t *testing.T) {
	r := rig(t, false) // retention 5
	r.run(t, func(c *Client) {
		for i := 1; i <= 7; i++ {
			c.Store("s", proto.Sample{At: time.Duration(i) * time.Second, Value: float64(i)})
		}
		before, err := c.BatchFetch([]proto.SeriesRequest{{Series: "s"}})
		if err != nil {
			t.Error(err)
			return
		}
		for i := 8; i <= 20; i++ {
			c.Store("s", proto.Sample{At: time.Duration(i) * time.Second, Value: float64(i)})
		}
		for i, sm := range before[0].Samples {
			if want := float64(3 + i); sm.Value != want {
				t.Errorf("earlier reply changed under later stores: sample %d = %v, want %v", i, sm.Value, want)
			}
		}
		if got, _ := c.Fetch("s", 0); len(got) != 5 || got[0].Value != 16 || got[4].Value != 20 {
			t.Errorf("window after later stores %+v", got)
		}
	})
}

// TestReplWindowKeepsNewest: an anti-entropy window larger than the cap
// is trimmed to its newest samples.
func TestReplWindowKeepsNewest(t *testing.T) {
	r := rig(t, false) // retention 5
	r.run(t, func(c *Client) {
		var window []proto.Sample
		for i := 1; i <= 8; i++ {
			window = append(window, proto.Sample{At: time.Duration(i) * time.Second, Value: float64(i)})
		}
		if _, err := c.St.Call("m", proto.Message{
			Type: proto.MsgReplWindow, Series: "s", Samples: window, Total: 8,
		}, c.Timeout); err != nil {
			t.Error(err)
			return
		}
		if got, _ := c.Fetch("s", 0); len(got) != 5 || got[0].Value != 4 || got[4].Value != 8 {
			t.Errorf("replica window %+v, want the newest 5", got)
		}
	})
}

// nil2 builds a throwaway station for a standalone (never Run) server.
func nil2() *proto.Station {
	topo := simnet.NewTopology()
	topo.AddHost("x", "1", "x", "d")
	topo.AddHost("y", "2", "y", "d")
	topo.Connect("x", "y")
	sim := vclock.New()
	tr := proto.NewSimTransport(simnet.NewNetwork(sim, topo))
	ep, _ := tr.Open("x")
	return proto.NewStation(tr.Runtime(), ep)
}
