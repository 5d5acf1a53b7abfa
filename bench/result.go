package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// check is one output check of a run.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// result is everything one pass of one workload produced.
type result struct {
	Workload string `json:"workload"`
	Traced   bool   `json:"traced"`
	// Attempted counts client operations issued inside the measured
	// window; Failed those that errored or returned a wrong answer.
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Checks    []check `json:"checks"`
	// Values holds every metric the pass measured, by catalogue name.
	Values map[string]float64 `json:"metrics"`

	spans  []span
	budget []budgetTable
}

func newResult(workload string, traced bool) *result {
	return &result{Workload: workload, Traced: traced, Values: map[string]float64{}}
}

func (r *result) set(name string, v float64) { r.Values[name] = v }

func (r *result) check(name string, ok bool, format string, args ...any) {
	c := check{Name: name, OK: ok}
	if !ok {
		c.Detail = fmt.Sprintf(format, args...)
	}
	r.Checks = append(r.Checks, c)
}

func (r *result) correct() bool {
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	return r.Failed == 0 && r.Attempted > 0
}

// quantile is the nearest-rank p-quantile of an ascending slice. The
// harness keeps its own so that its numbers do not move when the
// repository's percentile helpers are merged.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p * float64(len(sorted))))
	rank = max(1, min(rank, len(sorted)))
	return sorted[rank-1]
}

func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// millis converts durations to ascending milliseconds.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
