package telemetry

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// TraceEvent is one Chrome trace-event-format record ("X" complete
// events): load the file at chrome://tracing or ui.perfetto.dev.
// Timestamps and durations are microseconds of registry-clock time.
type TraceEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	TS   int64             `json:"ts"`
	Dur  int64             `json:"dur"`
	PID  int64             `json:"pid"`
	TID  int64             `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// TraceEvents renders every completed span as a Chrome trace event,
// ordered by span ID. Thread IDs are assigned per subsystem (sorted),
// so the trace viewer groups the pipeline, reconcile, query, and
// gateway lanes separately.
func (r *Registry) TraceEvents() []TraceEvent {
	spans := r.Spans()
	subs := make([]string, 0, 8)
	seen := make(map[string]bool, 8)
	for _, s := range spans {
		if !seen[s.Subsystem] {
			seen[s.Subsystem] = true
			subs = append(subs, s.Subsystem)
		}
	}
	sort.Strings(subs)
	tid := make(map[string]int64, len(subs))
	for i, s := range subs {
		tid[s] = int64(i + 1)
	}
	evs := make([]TraceEvent, 0, len(spans))
	for _, s := range spans {
		ev := TraceEvent{
			Name: s.Name,
			Cat:  s.Subsystem,
			Ph:   "X",
			TS:   s.Start.Microseconds(),
			Dur:  (s.End - s.Start).Microseconds(),
			PID:  1,
			TID:  tid[s.Subsystem],
			Args: map[string]string{"id": fmt.Sprint(s.ID)},
		}
		if s.Parent != 0 {
			ev.Args["parent"] = fmt.Sprint(s.Parent)
		}
		for _, a := range s.Attrs {
			ev.Args[a.Key] = a.Value
		}
		evs = append(evs, ev)
	}
	return evs
}

// RenderTraceJSONL renders spans as one Chrome trace event per line.
// Every field derives from the registry clock and span bookkeeping, so
// under the virtual clock the bytes are deterministic per run + seed.
func (r *Registry) RenderTraceJSONL() ([]byte, error) {
	return renderJSONL(r.TraceEvents())
}

// RenderMetricsJSONL renders a snapshot as one JSON point per line,
// sorted by key, preceded by no header — grep-able and diff-able.
func RenderMetricsJSONL(snap Snapshot) ([]byte, error) {
	type line struct {
		AtMicros int64 `json:"at_us"`
		Point
	}
	lines := make([]line, len(snap.Points))
	for i, p := range snap.Points {
		lines[i] = line{AtMicros: snap.AtMicros, Point: p}
	}
	return renderJSONL(lines)
}

func renderJSONL[T any](items []T) ([]byte, error) {
	var out []byte
	for _, it := range items {
		b, err := json.Marshal(it)
		if err != nil {
			return nil, fmt.Errorf("telemetry: %w", err)
		}
		out = append(out, b...)
		out = append(out, '\n')
	}
	return out, nil
}

// WriteArtifacts writes metrics.jsonl and trace.jsonl for the
// registry's current state under dir (created as needed).
func (r *Registry) WriteArtifacts(dir string) error {
	if r == nil {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("telemetry: %w", err)
	}
	metrics, err := RenderMetricsJSONL(r.Snapshot())
	if err != nil {
		return err
	}
	trace, err := r.RenderTraceJSONL()
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "metrics.jsonl"), metrics, 0o644); err != nil {
		return fmt.Errorf("telemetry: %w", err)
	}
	if err := os.WriteFile(filepath.Join(dir, "trace.jsonl"), trace, 0o644); err != nil {
		return fmt.Errorf("telemetry: %w", err)
	}
	return nil
}

// SnapshotJSON renders the snapshot as a single indented JSON object —
// the form `nwsmanager -telemetry` dumps periodically and on SIGINT.
func SnapshotJSON(snap Snapshot) []byte {
	b, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return []byte("{}")
	}
	return append(b, '\n')
}
