package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand/v2"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// manualClock is a settable test clock.
type manualClock struct {
	mu  sync.Mutex
	now time.Duration
}

func (c *manualClock) Now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *manualClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now += d
	c.mu.Unlock()
}

func TestKeyCanonicalLabels(t *testing.T) {
	a := Key("query", "lookups", map[string]string{"kind": "memory", "site": "ucsb"})
	b := Key("query", "lookups", map[string]string{"site": "ucsb", "kind": "memory"})
	if a != b {
		t.Fatalf("label order changed the key: %q vs %q", a, b)
	}
	if want := "query/lookups{kind=memory,site=ucsb}"; a != want {
		t.Fatalf("key = %q, want %q", a, want)
	}
	if got := Key("simnet", "settles", nil); got != "simnet/settles" {
		t.Fatalf("unlabeled key = %q", got)
	}
}

func TestInstrumentsAndSnapshot(t *testing.T) {
	clk := &manualClock{}
	r := New(clk.Now)

	c := r.Counter("query", "lookup_calls", nil)
	c.Add(3)
	c.Inc()
	if c.Value() != 4 {
		t.Fatalf("counter = %d, want 4", c.Value())
	}
	// Same key returns the same instrument.
	r.Counter("query", "lookup_calls", nil).Inc()

	g := r.Gauge("gateway", "inflight", nil)
	g.Set(5)
	g.Set(2)
	if g.Value() != 2 || g.Max() != 5 {
		t.Fatalf("gauge value=%v max=%v, want 2/5", g.Value(), g.Max())
	}

	h := r.Histogram("reconcile", "round_sec", nil)
	for _, v := range []float64{1, 2, 3, 4} {
		h.Observe(v)
	}

	r.Collect("simnet", "route_cache_hits", nil, func() float64 { return 42 })

	clk.Advance(90 * time.Second)
	snap := r.Snapshot()
	if snap.AtMicros != (90 * time.Second).Microseconds() {
		t.Fatalf("snapshot at %d us", snap.AtMicros)
	}
	flat := snap.Flatten()
	checks := map[string]float64{
		"query/lookup_calls":        5,
		"gateway/inflight":          2,
		"gateway/inflight:max":      5,
		"reconcile/round_sec:count": 4,
		"reconcile/round_sec:sum":   10,
		"reconcile/round_sec:p50":   2,
		"reconcile/round_sec:p95":   4,
		"reconcile/round_sec:max":   4,
		"simnet/route_cache_hits":   42,
	}
	for k, want := range checks {
		if got, ok := flat[k]; !ok || got != want {
			t.Errorf("flat[%q] = %v (present=%v), want %v", k, got, ok, want)
		}
	}
	// Snapshot points must be sorted by key.
	for i := 1; i < len(snap.Points); i++ {
		if snap.Points[i-1].Key >= snap.Points[i].Key {
			t.Fatalf("points not sorted: %q then %q", snap.Points[i-1].Key, snap.Points[i].Key)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	if got := Percentile([]float64(nil), 0.95); got != 0 {
		t.Fatalf("empty percentile = %v", got)
	}
	if got := Percentile([]float64{7}, 0.5); got != 7 {
		t.Fatalf("single percentile = %v", got)
	}
	vals := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := Percentile(vals, 0.5); got != 5 {
		t.Fatalf("p50 = %v", got)
	}
	if got := Percentile(vals, 0.99); got != 10 {
		t.Fatalf("p99 = %v", got)
	}
}

// TestHistogramBoundedBeyondExact: a million observations spread over
// twelve decades, signs and zero, past exactObservations. The histogram
// keeps buckets, not values, observing more allocates nothing, count,
// sum, min and max stay exact, and every percentile is within the
// stated 1/(2·subBuckets) of a sorted reference.
func TestHistogramBoundedBeyondExact(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	var h Histogram
	var ref []float64
	sum := 0.0
	for i := 0; i < 1_000_000; i++ {
		v := math.Exp(rng.NormFloat64() * 5)
		switch i % 10 {
		case 0:
			v = 0
		case 1:
			v = -v
		}
		h.Observe(v)
		ref = append(ref, v)
		sum += v
	}
	// At most subBuckets per power of two and sign, however many values.
	lo, hi := math.Inf(1), 0.0
	for _, v := range ref {
		if v != 0 {
			lo, hi = min(lo, math.Abs(v)), max(hi, math.Abs(v))
		}
	}
	_, elo := math.Frexp(lo)
	_, ehi := math.Frexp(hi)
	if bound := 2*subBuckets*(ehi-elo+1) + 1; h.vals != nil || len(h.buckets) > bound {
		t.Fatalf("retained %d values and %d buckets, want none and at most %d", len(h.vals), len(h.buckets), bound)
	}
	extra := 0
	if allocs := testing.AllocsPerRun(1000, func() { h.Observe(ref[rng.IntN(len(ref))]); extra++ }); allocs != 0 {
		t.Fatalf("Observe allocates %v times past the exact range", allocs)
	}
	var p Point
	h.stats(&p)
	slices.Sort(ref)
	if p.Count != int64(len(ref)+extra) || p.Min != ref[0] || p.Max != ref[len(ref)-1] {
		t.Fatalf("count %d min %v max %v, want %d %v %v", p.Count, p.Min, p.Max, len(ref)+extra, ref[0], ref[len(ref)-1])
	}
	if p.Value == sum {
		t.Fatal("the sum did not count the extra observations")
	}
	for _, c := range []struct {
		q   float64
		got float64
	}{{0.50, p.P50}, {0.95, p.P95}, {0.99, p.P99}} {
		want := Percentile(ref, c.q) // the extra draws from ref barely move it
		if math.Abs(c.got-want) > math.Abs(want)/(2*subBuckets)*1.01 {
			t.Errorf("p%v = %v, want %v within %.2f%%", c.q*100, c.got, want, 100.0/(2*subBuckets))
		}
	}
}

// TestHistogramExactBelowLimit: up to exactObservations the snapshot
// is the sorted values' nearest rank, bit for bit, and the sum adds in
// observation order.
func TestHistogramExactBelowLimit(t *testing.T) {
	var h Histogram
	vals := []float64{0.3, 0.1, 0.7, 0.2, 0.9, 0.4}
	sum := 0.0
	for _, v := range vals {
		h.Observe(v)
		sum += v
	}
	var p Point
	h.stats(&p)
	slices.Sort(vals)
	if p.Value != sum || p.P50 != Percentile(vals, 0.5) || p.P95 != Percentile(vals, 0.95) || p.Min != 0.1 || p.Max != 0.9 {
		t.Fatalf("exact stats %+v", p)
	}
}

func TestSpansParentageAndOrder(t *testing.T) {
	clk := &manualClock{}
	r := New(clk.Now)

	root := r.StartSpan("reconcile", "round", Attr{Key: "round", Value: "1"})
	clk.Advance(time.Second)
	probe := root.Child("probe")
	clk.Advance(time.Second)
	probe.End()
	apply := root.Child("apply_delta")
	apply.Annotate("delta", "2")
	clk.Advance(time.Second)
	apply.End()
	root.End()

	spans := r.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	// Sorted by ID = start order: round, probe, apply_delta.
	if spans[0].Name != "round" || spans[1].Name != "probe" || spans[2].Name != "apply_delta" {
		t.Fatalf("span order: %s, %s, %s", spans[0].Name, spans[1].Name, spans[2].Name)
	}
	if spans[1].Parent != spans[0].ID || spans[2].Parent != spans[0].ID {
		t.Fatalf("children not parented to root")
	}
	if spans[0].Start != 0 || spans[0].End != 3*time.Second {
		t.Fatalf("root span [%v, %v]", spans[0].Start, spans[0].End)
	}
	if len(spans[2].Attrs) != 1 || spans[2].Attrs[0].Key != "delta" {
		t.Fatalf("annotate lost: %+v", spans[2].Attrs)
	}

	// Double End records once.
	s := r.StartSpan("x", "y")
	s.End()
	s.End()
	if n := len(r.Spans()); n != 4 {
		t.Fatalf("double End recorded %d spans, want 4", n)
	}
}

func TestSpanCapCountsDrops(t *testing.T) {
	r := New(nil)
	r.maxSpans = 2
	for i := 0; i < 5; i++ {
		r.StartSpan("s", "op").End()
	}
	snap := r.Snapshot()
	if snap.Spans != 2 || snap.Dropped != 3 {
		t.Fatalf("spans=%d dropped=%d, want 2/3", snap.Spans, snap.Dropped)
	}
}

func TestNilRegistryIsInert(t *testing.T) {
	var r *Registry
	r.Counter("a", "b", nil).Add(1)
	r.Gauge("a", "b", nil).Set(1)
	r.Histogram("a", "b", nil).Observe(1)
	r.Collect("a", "b", nil, func() float64 { return 1 })
	sp := r.StartSpan("a", "b")
	sp.Annotate("k", "v")
	child := sp.Child("c")
	child.End()
	sp.End()
	if sp.ID() != 0 {
		t.Fatal("nil span has an ID")
	}
	snap := r.Snapshot()
	if len(snap.Points) != 0 || snap.Spans != 0 {
		t.Fatalf("nil registry snapshot not empty: %+v", snap)
	}
	if r.Spans() != nil {
		t.Fatal("nil registry returned spans")
	}
	if err := r.WriteArtifacts(t.TempDir()); err != nil {
		t.Fatalf("nil WriteArtifacts: %v", err)
	}
}

func TestTraceEventsChromeFormat(t *testing.T) {
	clk := &manualClock{}
	r := New(clk.Now)
	q := r.StartSpan("query", "fetch_many")
	clk.Advance(250 * time.Microsecond)
	q.End()
	p := r.StartSpan("pipeline", "map")
	clk.Advance(time.Millisecond)
	p.End()

	evs := r.TraceEvents()
	if len(evs) != 2 {
		t.Fatalf("got %d events", len(evs))
	}
	// Subsystems sorted: pipeline=1, query=2.
	if evs[0].Cat != "query" || evs[0].TID != 2 || evs[1].TID != 1 {
		t.Fatalf("tid assignment: %+v", evs)
	}
	if evs[0].Ph != "X" || evs[0].TS != 0 || evs[0].Dur != 250 {
		t.Fatalf("event 0: %+v", evs[0])
	}

	out, err := r.RenderTraceJSONL()
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if len(lines) != 2 {
		t.Fatalf("got %d trace lines", len(lines))
	}
	var ev map[string]any
	if err := json.Unmarshal(lines[0], &ev); err != nil {
		t.Fatalf("trace line not JSON: %v", err)
	}
	for _, k := range []string{"name", "cat", "ph", "ts", "dur", "pid", "tid"} {
		if _, ok := ev[k]; !ok {
			t.Errorf("trace event missing %q: %s", k, lines[0])
		}
	}
}

func TestRenderMetricsJSONLDeterministic(t *testing.T) {
	build := func() []byte {
		clk := &manualClock{}
		r := New(clk.Now)
		r.Counter("query", "lookup_calls", nil).Add(7)
		r.Gauge("gateway", "inflight", map[string]string{"host": "m0"}).Set(3)
		r.Histogram("reconcile", "round_sec", nil).Observe(1.5)
		clk.Advance(time.Minute)
		out, err := RenderMetricsJSONL(r.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := build(), build()
	if !bytes.Equal(a, b) {
		t.Fatalf("metrics.jsonl not deterministic:\n%s\nvs\n%s", a, b)
	}
	if !strings.Contains(string(a), `"key":"gateway/inflight{host=m0}"`) {
		t.Fatalf("labeled key missing:\n%s", a)
	}
}

// TestSnapshotDuringTrafficRace is the snapshot-during-traffic hammer:
// writers increment counters, set gauges, observe histograms, and
// open/close spans while the main goroutine snapshots and renders until
// they finish. Run with -race; it fails only on data races or torn
// reads. Each writer does a fixed number of operations: a histogram
// keeps every observation, so unbounded writers make each snapshot's
// sort grow without limit.
func TestSnapshotDuringTrafficRace(t *testing.T) {
	const workers, opsPerWorker = 4, 5000
	r := New(func() time.Duration { return time.Microsecond })
	// Writers pause halfway until the first snapshot is taken, so at
	// least one snapshot lands mid-traffic however the scheduler runs.
	halfway := make(chan struct{}, workers)
	snapped := make(chan struct{})
	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter("load", "ops", nil)
			g := r.Gauge("load", "depth", nil)
			h := r.Histogram("load", "latency", nil)
			for i := 0; i < opsPerWorker; i++ {
				c.Inc()
				g.Set(float64(i % 100))
				h.Observe(float64(i % 10))
				sp := r.StartSpan("load", "op")
				sp.Child("inner").End()
				sp.End()
				// New instruments mid-flight too.
				r.Counter("load", "ops", map[string]string{"worker": string(rune('a' + w))}).Inc()
				if i == opsPerWorker/2 {
					halfway <- struct{}{}
					<-snapped
				}
			}
		}(w)
	}
	go func() { wg.Wait(); close(done) }()
	for w := 0; w < workers; w++ {
		<-halfway
	}
	snapshot := func() {
		snap := r.Snapshot()
		if _, err := RenderMetricsJSONL(snap); err != nil {
			t.Fatal(err)
		}
		if _, err := r.RenderTraceJSONL(); err != nil {
			t.Fatal(err)
		}
		snap.Flatten()
	}
	snapshot()
	close(snapped)
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		snapshot()
	}
	flat := r.Snapshot().Flatten()
	if got := flat["load/ops"]; got != workers*opsPerWorker {
		t.Fatalf("load/ops = %g, want %d", got, workers*opsPerWorker)
	}
}
