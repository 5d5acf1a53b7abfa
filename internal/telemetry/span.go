package telemetry

import (
	"sort"
	"time"
)

// Attr is one span attribute. Attributes are an ordered list rather
// than a map so rendered traces are byte-stable.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Span is one completed traced operation: IDs are assigned in start
// order, Start/End are registry-clock offsets. Under the virtual clock
// the whole tuple is a deterministic function of the scenario + seed.
type Span struct {
	ID        int64         `json:"id"`
	Parent    int64         `json:"parent,omitempty"`
	Subsystem string        `json:"subsystem"`
	Name      string        `json:"name"`
	Start     time.Duration `json:"start_ns"`
	End       time.Duration `json:"end_ns"`
	Attrs     []Attr        `json:"attrs,omitempty"`
}

// ActiveSpan is an in-flight span handle. All methods are nil-safe, so
// code can thread handles unconditionally whether or not a registry is
// wired.
type ActiveSpan struct {
	r *Registry
	s Span
}

// StartSpan opens a root span in subsystem with the given name.
func (r *Registry) StartSpan(subsystem, name string, attrs ...Attr) *ActiveSpan {
	return r.startSpan(subsystem, name, 0, attrs)
}

func (r *Registry) startSpan(subsystem, name string, parent int64, attrs []Attr) *ActiveSpan {
	if r == nil {
		return nil
	}
	a := &ActiveSpan{r: r, s: Span{
		Parent:    parent,
		Subsystem: subsystem,
		Name:      name,
		Start:     r.clock(),
		Attrs:     attrs,
	}}
	r.spanMu.Lock()
	r.nextSpan++
	a.s.ID = r.nextSpan
	r.spanMu.Unlock()
	return a
}

// Child opens a span nested under a, in the same subsystem.
func (a *ActiveSpan) Child(name string, attrs ...Attr) *ActiveSpan {
	if a == nil {
		return nil
	}
	return a.r.startSpan(a.s.Subsystem, name, a.s.ID, attrs)
}

// ID reports the span's identifier (0 on nil).
func (a *ActiveSpan) ID() int64 {
	if a == nil {
		return 0
	}
	return a.s.ID
}

// Annotate appends an attribute to the span before it ends.
func (a *ActiveSpan) Annotate(key, value string) {
	if a == nil {
		return
	}
	a.s.Attrs = append(a.s.Attrs, Attr{Key: key, Value: value})
}

// End closes the span and records it. Ending twice records once.
func (a *ActiveSpan) End() {
	if a == nil || a.r == nil {
		return
	}
	r := a.r
	a.r = nil
	a.s.End = r.clock()
	r.spanMu.Lock()
	if len(r.spans) >= r.maxSpans {
		r.dropped++
	} else {
		r.spans = append(r.spans, a.s)
	}
	r.spanMu.Unlock()
}

// Spans returns a copy of all completed spans sorted by ID (start
// order), regardless of completion order.
func (r *Registry) Spans() []Span {
	if r == nil {
		return nil
	}
	r.spanMu.Lock()
	out := make([]Span, len(r.spans))
	copy(out, r.spans)
	r.spanMu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
