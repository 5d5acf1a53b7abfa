package gateway

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"nwsenv/internal/nws/memory"
	"nwsenv/internal/nws/nameserver"
	"nwsenv/internal/nws/proto"
)

// batchAllocs is what one warm 20-series batch allocates end to end on
// the simulated stack: only the answers that travel in replies.
//
//	2  each memory server's Results and their one Samples backing
//	   (two servers: 4)
//	1  the gateway's query.Client results
//	1  the gateway's reply Results
//	1  the end user's []query.Result
//
// Everything else — the per-backend grouping and requests, admission,
// the delivery events, mailbox buffers, call boxes — is recycled. The
// budget allows one more.
const (
	batchAllocs      = 7
	batchAllocBudget = batchAllocs + 1
)

// tracedBatchAllocOverhead is what tracing the gateways adds to that
// batch: the spans it records, 2 allocations each (the span handle and
// its attribute list; a count below 100 formats without allocating).
//
//	1  the serving gateway's "fetch" span
//	1  its query.Client's "fetch_many" span
//	2  one "backend" child per memory server called
//
// Appending a finished span to the registry's list grows it only
// now and then, less than once per batch.
const tracedBatchAllocOverhead = 4 * 2

// TestFetchManyAllocBudget: one warm 20-series gateway.Client.FetchMany
// against two gateways and two memory servers allocates no more than
// its answers.
func TestFetchManyAllocBudget(t *testing.T) {
	got := warmBatchAllocs(t, true)
	if got > batchAllocBudget {
		t.Errorf("a warm 20-series batch allocates %.1f objects, budget %d", got, batchAllocBudget)
	}
	t.Logf("%.1f allocations per warm batch (%d expected, budget %d)", got, batchAllocs, batchAllocBudget)
}

// TestTracedBatchAllocOverhead: with a telemetry registry wired into the
// gateways, the same warm batch allocates only the spans it records on
// top of its answers.
func TestTracedBatchAllocOverhead(t *testing.T) {
	untraced, traced := warmBatchAllocs(t, true), warmBatchAllocs(t, false)
	if traced-untraced > tracedBatchAllocOverhead {
		t.Errorf("tracing adds %.1f allocations to a warm batch (%.1f untraced, %.1f traced), budget %d",
			traced-untraced, untraced, traced, tracedBatchAllocOverhead)
	}
	t.Logf("tracing adds %.1f allocations per warm batch (%.1f untraced, %.1f traced, budget %d)",
		traced-untraced, untraced, traced, tracedBatchAllocOverhead)
}

// warmBatchAllocs is what one warm 20-series gateway.Client.FetchMany
// against two gateways and two memory servers allocates, with the
// gateways traced into a registry or not.
func warmBatchAllocs(t *testing.T, untraced bool) float64 {
	t.Helper()
	r := newRigCfg(t, rigCfg{gateways: 2, untraced: untraced})
	var reqs []proto.SeriesRequest
	r.run(t, func() {
		for i := 0; i < 20; i++ {
			name := fmt.Sprintf("s%02d", i)
			mc := memory.NewClient(r.st, []string{"m1", "m2"}[i%2])
			if err := mc.Store(name, proto.Sample{At: time.Second, Value: float64(i)}); err != nil {
				t.Error(err)
			}
			reqs = append(reqs, proto.SeriesRequest{Series: name, Count: 1})
		}
	})
	var c *Client
	r.run(t, func() {
		r.pause(2 * time.Second) // the gateways' registrations land
		var err error
		if c, err = Connect(r.st, "ns"); err != nil {
			t.Error(err)
		}
	})
	if t.Failed() {
		t.FailNow()
	}
	bad := 0
	batch := func() {
		res, err := c.FetchMany(reqs)
		if err != nil || len(res) != len(reqs) || res[0].Err != nil || len(res[0].Samples) != 1 {
			bad++
		}
	}
	run := func() {
		r.sim.Go("batch", batch)
		if err := r.sim.RunUntil(r.sim.Now() + time.Second); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ { // warm caches and pools on both gateways
		run()
	}
	got := testing.AllocsPerRun(50, run)
	if bad > 0 {
		t.Fatalf("%d batches answered wrong", bad)
	}
	return got
}

// TestAdmissionRecordsCarryNothing: an admission record back on the
// freelist holds no part of the request it carried, on either path (a
// token taken at once, or waited for).
func TestAdmissionRecordsCarryNothing(t *testing.T) {
	r := newRigCfg(t, rigCfg{limit: 1, untraced: true})
	r.seed(t)
	r.run(t, func() {
		gc := NewBalancedClient(r.st, []string{"gw"})
		done := r.st.Runtime().NewInbox("collect")
		for i := 0; i < 4; i++ { // one admitted at once, three queued
			r.st.Runtime().Go("user", func() {
				if _, err := gc.FetchMany([]proto.SeriesRequest{{Series: "x", Count: 1}}); err != nil {
					t.Errorf("fetch: %v", err)
				}
				done.Send(&proto.Message{})
			})
		}
		for i := 0; i < 4; i++ {
			done.Recv()
		}
	})
	s := r.gws[0]
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.free) == 0 {
		t.Fatal("no admission record was recycled")
	}
	for _, a := range s.free {
		if !reflect.ValueOf(a.req).IsZero() || a.queued || a.s != s || a.serve == nil {
			t.Errorf("recycled record carries %+v (queued %v)", a.req, a.queued)
		}
	}
}

// TestTCPConcurrentBatches: concurrent users on real goroutines share
// one gateway over loopback TCP, so admission records and the query
// client's batch records are recycled across goroutines (the race
// detector's case), and every answer stays right.
func TestTCPConcurrentBatches(t *testing.T) {
	tr := proto.NewTCPTransport()
	rt := tr.Runtime()
	var stations []*proto.Station
	open := func(h string) *proto.Station {
		ep, err := tr.Open(h)
		if err != nil {
			t.Fatal(err)
		}
		st := proto.NewStation(rt, ep)
		stations = append(stations, st)
		return st
	}
	defer func() {
		for _, st := range stations {
			st.Close()
		}
	}()
	go nameserver.New(open("ns")).Run()
	for _, m := range []string{"m1", "m2"} {
		st := open(m)
		go memory.New(st, nameserver.NewClient(st, "ns")).Run()
	}
	g := New(open("gw"), "ns")
	g.SetAdmission(2, 64) // few tokens: most batches queue for one
	go g.Run()

	const series = 8
	seed := open("seed")
	reqs := make([]proto.SeriesRequest, series)
	for i := range reqs {
		name := fmt.Sprintf("s%d", i)
		mc := memory.NewClient(seed, []string{"m1", "m2"}[i%2])
		if err := mc.Store(name, proto.Sample{At: time.Second, Value: float64(i)}); err != nil {
			t.Fatal(err)
		}
		reqs[i] = proto.SeriesRequest{Series: name, Count: 1}
	}

	const users, batches = 4, 25
	var wg sync.WaitGroup
	for u := 0; u < users; u++ {
		gc := NewBalancedClient(open(fmt.Sprintf("user%d", u)), []string{"gw"})
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				res, err := gc.FetchMany(reqs)
				if err != nil {
					t.Errorf("batch: %v", err)
					return
				}
				for i, r := range res {
					if r.Err != nil || len(r.Samples) != 1 || r.Samples[0].Value != float64(i) {
						t.Errorf("series %s: %+v err %v", r.Series, r.Samples, r.Err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
