package query_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"nwsenv/internal/nws/proto"
	"nwsenv/internal/nws/proto/prototest"
	"nwsenv/internal/query"
	"nwsenv/internal/telemetry"
)

// servingPort is a stub backend answering directory lookups and batch
// fetches from memory, with real goroutines underneath (RealRuntime):
// the client's callers, the counter reader and the telemetry
// snapshotter all run truly concurrently, so `go test -race` sees any
// unsynchronized counter access on the hot path.
type servingPort struct {
	prototest.StubPort
}

func (p *servingPort) Call(to string, m proto.Message, d time.Duration) (proto.Message, error) {
	switch m.Type {
	case proto.MsgLookup:
		// Spread series over two fake memory hosts so FetchMany fans out.
		host := "m1"
		if len(m.Name)%2 == 1 {
			host = "m2"
		}
		return proto.Message{Regs: []proto.Registration{{
			Name: m.Name, Kind: "series", Host: host, Owner: "memory." + host,
		}}}, nil
	case proto.MsgBatchFetch:
		res := make([]proto.SeriesResult, len(m.Queries))
		for i, q := range m.Queries {
			res[i] = proto.SeriesResult{Series: q.Series, Samples: []proto.Sample{{Value: 1}}}
		}
		return proto.Message{Results: res}, nil
	}
	return proto.Message{}, nil
}

func (p *servingPort) CallMany(reqs []proto.Request, d time.Duration, each func(int, *proto.Message, error)) {
	prototest.CallEach(p.Call, reqs, d, each)
}

// TestStatsDuringTrafficRace hammers the query counters and registry
// snapshots while FetchMany traffic bumps them from concurrent callers.
func TestStatsDuringTrafficRace(t *testing.T) {
	rt := proto.NewRealRuntime()
	port := &servingPort{StubPort: prototest.StubPort{HostName: "c", RT: rt}}
	reg := telemetry.New(rt.Now)
	// A very short TTL keeps the lookup counters churning: entries
	// expire every few milliseconds, so resolves keep going back to the
	// directory instead of settling into pure cache hits.
	c := query.New(port, "ns")
	c.SetTelemetry(reg)
	c.SetTTL(5 * time.Millisecond)

	const writers = 4
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; ; round++ {
				reqs := []proto.SeriesRequest{
					{Series: fmt.Sprintf("lat.a%d.b%d", w, round%7)},
					{Series: fmt.Sprintf("bw.a%d.b%d", w, round%5)},
					{Series: fmt.Sprintf("lat.c%d.d", w)},
				}
				for _, r := range c.FetchMany(reqs) {
					// A resolve can land exactly on the (deliberately
					// tiny) TTL boundary and read as unknown; only
					// unexpected errors fail the test.
					if r.Err != nil && !errors.Is(r.Err, query.ErrSeriesUnknown) {
						t.Errorf("fetch %s: %v", r.Series, r.Err)
						return
					}
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}

	// Read concurrently with the traffic: the live counters and the
	// registry's full snapshot + JSONL render.
	batchCalls := reg.Counter("query", "batch_calls", nil)
	lookupCalls := reg.Counter("query", "lookup_calls", nil)
	var last int64
	for i := 0; i < 300; i++ {
		last = batchCalls.Value()
		snap := reg.Snapshot()
		if _, err := telemetry.RenderMetricsJSONL(snap); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	final := batchCalls.Value()
	if final == 0 || lookupCalls.Value() == 0 {
		t.Fatalf("no traffic recorded: %d batch calls, %d lookup calls", final, lookupCalls.Value())
	}
	if final < last {
		t.Fatalf("batch_calls went backwards: %d then %d", last, final)
	}
	// The snapshot must agree with the live counters once the writers
	// are quiesced.
	flat := reg.Snapshot().Flatten()
	if got := flat["query/batch_calls"]; got != float64(final) {
		t.Fatalf("snapshot batch_calls %g != counter %d", got, final)
	}
	if got := flat["query/lookup_calls"]; got != float64(lookupCalls.Value()) {
		t.Fatalf("snapshot lookup_calls %g != counter %d", got, lookupCalls.Value())
	}
}
