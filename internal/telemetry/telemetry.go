// Package telemetry is the process-wide measurement plane: a registry
// of typed counters, gauges, and histograms keyed by (subsystem, name,
// labels), plus structured trace spans, all timestamped from a caller
// supplied clock. On the simulated platform that clock is the virtual
// clock, so every reading and every span boundary is a deterministic
// function of the scenario + seed; on the real TCP platform it is the
// wall clock and the same instruments report honest timings.
//
// Every constructor and method is safe on a nil *Registry (and on the
// nil instruments a nil registry hands out), so instrumented code never
// guards call sites — an unwired subsystem simply records nothing.
package telemetry

import (
	"cmp"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Clock yields the current time as an offset from the process (or
// simulation) epoch. proto.Runtime.Now satisfies it directly.
type Clock func() time.Duration

// Registry holds every instrument and completed span for one run.
// Instrument reads and writes are lock-free (atomics) after the first
// lookup, so hot paths can increment while another goroutine snapshots.
type Registry struct {
	clock Clock

	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	hists      map[string]*Histogram
	collectors map[string]func() float64

	spanMu   sync.Mutex
	nextSpan int64
	spans    []Span
	maxSpans int
	dropped  int64
}

// maxSpansDefault bounds span retention so a long soak cannot grow the
// trace without bound; overflow is counted, never silently lost.
const maxSpansDefault = 1 << 16

// New builds a registry reading timestamps from clock. A nil clock
// pins every reading to t=0 (still deterministic, just untimed).
func New(clock Clock) *Registry {
	if clock == nil {
		clock = func() time.Duration { return 0 }
	}
	return &Registry{
		clock:      clock,
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		hists:      make(map[string]*Histogram),
		collectors: make(map[string]func() float64),
		maxSpans:   maxSpansDefault,
	}
}

// Now reports the registry clock's current offset (0 on nil).
func (r *Registry) Now() time.Duration {
	if r == nil {
		return 0
	}
	return r.clock()
}

// Key renders the canonical instrument key: subsystem/name{k=v,...}
// with labels sorted, so the same logical instrument always lands in
// the same slot and snapshots order deterministically.
func Key(subsystem, name string, labels map[string]string) string {
	if len(labels) == 0 {
		return subsystem + "/" + name
	}
	ks := make([]string, 0, len(labels))
	for k := range labels {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	var b strings.Builder
	b.WriteString(subsystem)
	b.WriteByte('/')
	b.WriteString(name)
	b.WriteByte('{')
	for i, k := range ks {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%s", k, labels[k])
	}
	b.WriteByte('}')
	return b.String()
}

// Counter is a monotonically increasing count. Writes are atomic.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value reads the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a point-in-time value that also tracks its high watermark
// (the number SLO gates usually want: "queue depth never exceeded N").
type Gauge struct {
	bits atomic.Uint64 // float64 bits
	max  atomic.Uint64 // float64 bits, monotone
}

// Set records the current value and raises the watermark if needed.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
	for {
		old := g.max.Load()
		if v <= math.Float64frombits(old) {
			return
		}
		if g.max.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value reads the last set value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Max reads the high watermark.
func (g *Gauge) Max() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.max.Load())
}

// Histogram records a distribution of observations; snapshots report
// count/sum/min/max and nearest-rank p50/p95/p99.
type Histogram struct {
	mu   sync.Mutex
	vals []float64
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.vals = append(h.vals, v)
	h.mu.Unlock()
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

func (h *Histogram) snapshot() []float64 {
	h.mu.Lock()
	out := make([]float64, len(h.vals))
	copy(out, h.vals)
	h.mu.Unlock()
	return out
}

// Counter returns (registering on first use) the counter for
// (subsystem, name, labels). Nil-safe: a nil registry returns a nil
// counter whose methods no-op.
func (r *Registry) Counter(subsystem, name string, labels map[string]string) *Counter {
	if r == nil {
		return nil
	}
	key := Key(subsystem, name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[key]
	if !ok {
		c = &Counter{}
		r.counters[key] = c
	}
	return c
}

// Gauge returns (registering on first use) the gauge for the key.
func (r *Registry) Gauge(subsystem, name string, labels map[string]string) *Gauge {
	if r == nil {
		return nil
	}
	key := Key(subsystem, name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[key]
	if !ok {
		g = &Gauge{}
		r.gauges[key] = g
	}
	return g
}

// Histogram returns (registering on first use) the histogram for the key.
func (r *Registry) Histogram(subsystem, name string, labels map[string]string) *Histogram {
	if r == nil {
		return nil
	}
	key := Key(subsystem, name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[key]
	if !ok {
		h = &Histogram{}
		r.hists[key] = h
	}
	return h
}

// Collect registers a pull-based gauge: fn is invoked at snapshot time.
// Use it to surface counters owned by another subsystem (route-cache
// stats, flow-engine settle counts) without restructuring that code.
// fn must be safe to call from the snapshotting goroutine.
func (r *Registry) Collect(subsystem, name string, labels map[string]string, fn func() float64) {
	if r == nil || fn == nil {
		return
	}
	key := Key(subsystem, name, labels)
	r.mu.Lock()
	r.collectors[key] = fn
	r.mu.Unlock()
}

// Point is one instrument's reading inside a Snapshot.
type Point struct {
	Key  string `json:"key"`
	Kind string `json:"kind"` // counter | gauge | histogram | collector
	// Value is the count (counter), last value (gauge/collector), or
	// sum (histogram).
	Value float64 `json:"value"`
	// Gauge watermark.
	Max float64 `json:"max,omitempty"`
	// Histogram stats.
	Count int64   `json:"count,omitempty"`
	Min   float64 `json:"min,omitempty"`
	P50   float64 `json:"p50,omitempty"`
	P95   float64 `json:"p95,omitempty"`
	P99   float64 `json:"p99,omitempty"`
}

// Snapshot is a consistent-enough view of every instrument: each point
// is read atomically, points are sorted by key, and At is the registry
// clock at capture — deterministic under the virtual clock.
type Snapshot struct {
	AtMicros int64   `json:"at_us"`
	Spans    int64   `json:"spans"`
	Dropped  int64   `json:"dropped_spans,omitempty"`
	Points   []Point `json:"points"`
}

// Snapshot captures every instrument. Safe to call concurrently with
// instrument writes and span recording.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	snap := Snapshot{AtMicros: r.clock().Microseconds()}

	r.mu.Lock()
	type namedFn struct {
		key string
		fn  func() float64
	}
	fns := make([]namedFn, 0, len(r.collectors))
	for k, fn := range r.collectors {
		fns = append(fns, namedFn{k, fn})
	}
	for k, c := range r.counters {
		snap.Points = append(snap.Points, Point{Key: k, Kind: "counter", Value: float64(c.Value())})
	}
	for k, g := range r.gauges {
		snap.Points = append(snap.Points, Point{Key: k, Kind: "gauge", Value: g.Value(), Max: g.Max()})
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, h := range r.hists {
		hists[k] = h
	}
	r.mu.Unlock()

	// Collector callbacks and histogram snapshots run outside r.mu so
	// they may take their own locks without ordering constraints.
	for _, nf := range fns {
		snap.Points = append(snap.Points, Point{Key: nf.key, Kind: "collector", Value: nf.fn()})
	}
	for k, h := range hists {
		vals := h.snapshot()
		p := Point{Key: k, Kind: "histogram", Count: int64(len(vals))}
		for _, v := range vals {
			p.Value += v
		}
		if len(vals) > 0 {
			sorted := make([]float64, len(vals))
			copy(sorted, vals)
			sort.Float64s(sorted)
			p.Min = sorted[0]
			p.Max = sorted[len(sorted)-1]
			p.P50 = Percentile(sorted, 0.50)
			p.P95 = Percentile(sorted, 0.95)
			p.P99 = Percentile(sorted, 0.99)
		}
		snap.Points = append(snap.Points, p)
	}
	sort.Slice(snap.Points, func(i, j int) bool { return snap.Points[i].Key < snap.Points[j].Key })

	r.spanMu.Lock()
	snap.Spans = int64(len(r.spans))
	snap.Dropped = r.dropped
	r.spanMu.Unlock()
	return snap
}

// Flatten renders a snapshot as flat metric name → value pairs, the
// form scenlab SLO gates and summary.json consume. Gauges contribute
// "key" and "key:max"; histograms "key:count", "key:sum", "key:p50",
// "key:p95", "key:p99", "key:max".
func (s Snapshot) Flatten() map[string]float64 {
	out := make(map[string]float64, len(s.Points)*2)
	for _, p := range s.Points {
		switch p.Kind {
		case "gauge":
			out[p.Key] = p.Value
			out[p.Key+":max"] = p.Max
		case "histogram":
			out[p.Key+":count"] = float64(p.Count)
			out[p.Key+":sum"] = p.Value
			out[p.Key+":p50"] = p.P50
			out[p.Key+":p95"] = p.P95
			out[p.Key+":p99"] = p.P99
			out[p.Key+":max"] = p.Max
		default:
			out[p.Key] = p.Value
		}
	}
	return out
}

// Percentile returns the nearest-rank p-th percentile of an already
// sorted slice: the repo's one percentile rule, so every report's
// latency and frequency percentiles are comparable. The rank is clamped
// to the slice, so p <= 0 yields the minimum and p >= 1 the maximum;
// zero on an empty slice.
func Percentile[T cmp.Ordered](sorted []T, p float64) T {
	if len(sorted) == 0 {
		var zero T
		return zero
	}
	rank := int(math.Ceil(p * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}
