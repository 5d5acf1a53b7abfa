package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"

	"nwsenv/internal/telemetry"
)

// span is one traced interval. Harness spans are recorded by the load
// generators around every client call; program spans are harvested from
// the registry the traced pass wires into the stack. Start and end are
// offsets on the workload's own clock.
type span struct {
	Workload string `json:"workload"`
	Source   string `json:"source"` // harness | program
	ID       int64  `json:"id"`
	Parent   int64  `json:"parent,omitempty"`
	Request  int64  `json:"request,omitempty"` // the client's request sequence number
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

// spanLog collects one load goroutine's spans in memory; a nil log
// records nothing, which is the untraced pass.
type spanLog struct {
	client int64 // high bits of every id, so logs merge without clashes
	next   int64
	spans  []span
}

func newSpanLog(client int) *spanLog {
	return &spanLog{client: int64(client+1) << 40, spans: make([]span, 0, 1<<16)}
}

// id allocates a span id; a parent takes its id before its children run
// and is recorded after them.
func (l *spanLog) id() int64 {
	if l == nil {
		return 0
	}
	l.next++
	return l.client | l.next
}

// add records a finished span.
func (l *spanLog) add(id int64, name string, parent, request int64, start, end time.Duration) {
	if l == nil {
		return
	}
	l.spans = append(l.spans, span{Source: "harness", ID: id, Parent: parent, Request: request,
		Name: name, StartNS: int64(start), EndNS: int64(end)})
}

// programSpans converts the registry's spans.
func programSpans(reg *telemetry.Registry) []span {
	var out []span
	for _, s := range reg.Spans() {
		out = append(out, span{Source: "program", ID: s.ID, Parent: s.Parent,
			Name: s.Subsystem + "/" + s.Name, StartNS: int64(s.Start), EndNS: int64(s.End)})
	}
	return out
}

// spanStats is the per-name summary of a span set: total durations and
// self times (duration minus the part covered by child spans), in µs.
type spanStats struct {
	dur, self map[string][]float64
}

// summarize computes durations and self times of the spans that start
// inside [from, to].
func summarize(spans []span, from, to time.Duration) spanStats {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	st := spanStats{dur: map[string][]float64{}, self: map[string][]float64{}}
	for _, s := range spans {
		if s.StartNS < int64(from) || s.StartNS > int64(to) {
			continue
		}
		d := s.EndNS - s.StartNS
		st.dur[s.Name] = append(st.dur[s.Name], float64(d)/1e3)
		st.self[s.Name] = append(st.self[s.Name], float64(d-covered(s, children[s.ID]))/1e3)
	}
	for _, m := range []map[string][]float64{st.dur, st.self} {
		for _, v := range m {
			sort.Float64s(v)
		}
	}
	return st
}

// covered is the length of the union of the children's intervals,
// clipped to the parent.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
	var total int64
	at := parent.StartNS
	for _, k := range kids {
		lo, hi := max(k.StartNS, at), min(k.EndNS, parent.EndNS)
		if hi > lo {
			total += hi - lo
			at = hi
		}
	}
	return total
}

func (st spanStats) p50(name string) float64     { return quantile(st.dur[name], 0.5) }
func (st spanStats) selfP50(name string) float64 { return quantile(st.self[name], 0.5) }

// writeTrace writes spans as JSON lines.
func writeTrace(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
