package deploy

import (
	"fmt"
	"sort"
)

// LinkEstimate is a composed end-to-end estimate.
type LinkEstimate struct {
	// LatencyMS is the summed latency estimate in milliseconds.
	LatencyMS float64
	// BandwidthMbps is the min-composed bandwidth estimate in Mbps.
	BandwidthMbps float64
	// Via lists the measured hops composed, as "a->b" strings. A single
	// entry means the pair was measured directly (§2.3 Completeness).
	Via []string
	// Direct is true when no composition was needed.
	Direct bool
}

// PairData supplies the planner-declared measured value of one directed
// pair. Implementations typically read the latest samples from a memory
// server or from recorded simulation ground truth.
type PairData func(from, to string) (latencyMS, bwMbps float64, ok bool)

// Estimator answers end-to-end queries over a deployment plan: measured
// pairs are returned directly; unmeasured pairs are estimated by
// composing measured segments — "Latency between A and C can then be
// roughly estimated by adding the latencies measured on AB and on BC.
// The minimum of the bandwidths on AB and BC can be used to estimate
// the one on AC" (§2.3).
type Estimator struct {
	plan *Plan
	data PairData

	// edges[a] lists hosts b such that (a,b) is measured or represented.
	edges map[string][]string
	// repPair maps "a|b" to the representative pair to query instead.
	repPair map[string][2]string
}

// NewEstimator indexes the plan's measurement graph.
func NewEstimator(plan *Plan, data PairData) *Estimator {
	e := &Estimator{plan: plan, data: data, edges: map[string][]string{}, repPair: map[string][2]string{}}
	addEdge := func(a, b string) {
		e.edges[a] = append(e.edges[a], b)
	}
	for _, c := range plan.Cliques {
		for _, a := range c.Members {
			for _, b := range c.Members {
				if a != b {
					addEdge(a, b)
				}
			}
		}
		if c.Shared && len(c.Members) >= 2 {
			// A shared network's clique measurements represent every
			// member pair (§5.1): add virtual edges resolved through the
			// representative pair.
			rep := [2]string{c.Members[0], c.Members[1]}
			for _, a := range c.Represents {
				for _, b := range c.Represents {
					if a == b {
						continue
					}
					key := a + "|" + b
					if _, dup := e.repPair[key]; !dup {
						e.repPair[key] = rep
						addEdge(a, b)
					}
				}
			}
		}
	}
	for k := range e.edges {
		e.edges[k] = uniqueSorted(e.edges[k])
	}
	return e
}

// lookup returns the measured values for a directed pair, indirecting
// through representative pairs for shared networks.
func (e *Estimator) lookup(a, b string) (float64, float64, bool) {
	if lat, bw, ok := e.data(a, b); ok {
		return lat, bw, ok
	}
	if rep, ok := e.repPair[a+"|"+b]; ok {
		return e.data(rep[0], rep[1])
	}
	return 0, 0, false
}

// Estimate composes an end-to-end estimate for (from, to). It fails when
// the measurement graph does not connect the pair (an incompleteness the
// validator reports).
func (e *Estimator) Estimate(from, to string) (LinkEstimate, error) {
	if from == to {
		return LinkEstimate{}, fmt.Errorf("deploy: estimate %s->%s: same host", from, to)
	}
	// BFS for the fewest measured hops (the composition error grows with
	// each hop, so fewer is better).
	type state struct {
		host string
		prev string
	}
	prev := map[string]string{from: ""}
	queue := []string{from}
	for len(queue) > 0 && prev[to] == "" {
		cur := queue[0]
		queue = queue[1:]
		for _, nxt := range e.edges[cur] {
			if _, seen := prev[nxt]; !seen {
				prev[nxt] = cur
				queue = append(queue, nxt)
			}
		}
	}
	if _, ok := prev[to]; !ok {
		return LinkEstimate{}, fmt.Errorf("deploy: %s and %s are not connected by the measurement graph", from, to)
	}
	// Reconstruct and compose.
	var hops []string
	for at := to; at != from; at = prev[at] {
		hops = append(hops, at)
	}
	hops = append(hops, from)
	for i, j := 0, len(hops)-1; i < j; i, j = i+1, j-1 {
		hops[i], hops[j] = hops[j], hops[i]
	}
	est := LinkEstimate{BandwidthMbps: -1, Direct: len(hops) == 2}
	for i := 0; i+1 < len(hops); i++ {
		lat, bw, ok := e.lookup(hops[i], hops[i+1])
		if !ok {
			return LinkEstimate{}, fmt.Errorf("deploy: no data for measured pair %s->%s", hops[i], hops[i+1])
		}
		est.LatencyMS += lat
		if est.BandwidthMbps < 0 || bw < est.BandwidthMbps {
			est.BandwidthMbps = bw
		}
		est.Via = append(est.Via, hops[i]+"->"+hops[i+1])
	}
	return est, nil
}

// Complete reports whether the measurement graph connects every host
// pair of the plan, and lists the unconnected pairs ("a <-> b", a < b,
// sorted) otherwise. One union-find over the graph's edges finds its
// connected components; a host with no edges is a component of its own.
// It reads the graph only, never the pair data.
func (e *Estimator) Complete() (bool, []string) {
	parent := map[string]string{}
	var find func(h string) string
	find = func(h string) string {
		p, ok := parent[h]
		if !ok || p == h {
			return h
		}
		root := find(p)
		parent[h] = root
		return root
	}
	for a, bs := range e.edges {
		for _, b := range bs {
			if ra, rb := find(a), find(b); ra != rb {
				parent[ra] = rb
			}
		}
	}
	var missing []string
	for _, a := range e.plan.Hosts {
		for _, b := range e.plan.Hosts {
			if a < b && find(a) != find(b) {
				missing = append(missing, a+" <-> "+b)
			}
		}
	}
	sort.Strings(missing)
	return len(missing) == 0, missing
}
