package simnet

import (
	"math"
	"sort"
	"time"
)

// Max-min fair-share engine.
//
// The max-min fair allocation decomposes exactly over the connected
// components of the flow⇄resource sharing graph, so a change (flow
// arrival, departure, abort, link rescale) only perturbs the component of
// flows that transitively share a bottleneck with the changed flows.
// Flows outside the component keep their rates, their progress is settled
// lazily (a flow's remaining bytes are only brought up to date when its
// own rate changes), and the next completion is taken from a min-heap
// keyed by projected completion time. reference_test.go holds the
// test-only simulator (global progressive filling at every event) this
// engine is differential-tested and benchmarked against.

// farFuture is the completion-heap key of a flow with no positive rate.
const farFuture = time.Duration(math.MaxInt64)

// flowHeap is a min-heap of active flows ordered by projected completion
// instant, with flow id as deterministic tie-breaker. Each flow keeps its
// slot in heapIdx (-1 when out), so a rate change repositions it in
// place. A typed heap, like routeSearch's: no interface call per
// comparison and no boxing per push or pop.
type flowHeap []*flow

func (h flowHeap) less(i, j int) bool {
	if h[i].compAt != h[j].compAt {
		return h[i].compAt < h[j].compAt
	}
	return h[i].id < h[j].id
}

func (h flowHeap) swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].heapIdx = i
	h[j].heapIdx = j
}

func (h flowHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(i, p) {
			break
		}
		h.swap(i, p)
		i = p
	}
}

// down sifts slot i toward the leaves and reports whether it moved.
func (h flowHeap) down(i int) bool {
	i0 := i
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if r := c + 1; r < len(h) && h.less(r, c) {
			c = r
		}
		if !h.less(c, i) {
			break
		}
		h.swap(i, c)
		i = c
	}
	return i > i0
}

// fix restores the order around slot i after its key changed.
func (h flowHeap) fix(i int) {
	if !h.down(i) {
		h.up(i)
	}
}

// update repositions f after its compAt changed, inserting it if absent.
func (h *flowHeap) update(f *flow) {
	if f.heapIdx < 0 {
		f.heapIdx = len(*h)
		*h = append(*h, f)
		h.up(f.heapIdx)
		return
	}
	h.fix(f.heapIdx)
}

// remove drops f from the heap.
func (h *flowHeap) remove(f *flow) {
	if i := f.heapIdx; i >= 0 {
		h.cut(i)
	}
}

// pop removes and returns the flow due first.
func (h *flowHeap) pop() *flow { return h.cut(0) }

// cut takes slot i out: the last flow moves into it and is re-sifted.
func (h *flowHeap) cut(i int) *flow {
	old := *h
	last := len(old) - 1
	f := old[i]
	if i != last {
		old.swap(i, last)
	}
	old[last] = nil
	*h = old[:last]
	if i != last {
		h.fix(i)
	}
	f.heapIdx = -1
	return f
}

// settleFlowLocked advances f's progress to the current instant.
func (n *Network) settleFlowLocked(f *flow, now time.Duration) {
	if dt := (now - f.settledAt).Seconds(); dt > 0 {
		f.remaining -= f.rate * dt
	}
	f.settledAt = now
	n.settles++
}

// componentLocked walks the flow⇄resource sharing graph from the seed
// flows and returns the full connected component (which may span several
// seeds' disjoint components — the filling below handles a union of
// components identically), sorted by flow id for determinism.
func (n *Network) componentLocked(seeds []*flow) []*flow {
	visited := map[int64]bool{}
	var comp, stack []*flow
	for _, f := range seeds {
		if !visited[f.id] {
			visited[f.id] = true
			stack = append(stack, f)
		}
	}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		comp = append(comp, f)
		for _, r := range f.res {
			for id, g := range r.flows {
				if !visited[id] {
					visited[id] = true
					stack = append(stack, g)
				}
			}
		}
	}
	sort.Slice(comp, func(i, j int) bool { return comp[i].id < comp[j].id })
	return comp
}

// recomputeComponentLocked settles the seeds' connected component and
// re-runs progressive filling restricted to it. Because every flow on a
// component resource belongs to the component by construction, the
// restricted filling reproduces a global filling's allocation for those
// flows exactly (up to float associativity). Callers must follow
// with scheduleNextLocked.
func (n *Network) recomputeComponentLocked(seeds []*flow) {
	if len(seeds) == 0 {
		return
	}
	comp := n.componentLocked(seeds)
	now := n.sim.Now()

	capLeft := map[*resource]float64{}
	load := map[*resource]int{}
	for _, f := range comp {
		n.settleFlowLocked(f, now)
		f.rate = 0
		for _, r := range f.res {
			if _, ok := capLeft[r]; !ok {
				capLeft[r] = r.cap
				load[r] = len(r.flows)
			}
		}
	}

	unfrozen := make([]*flow, len(comp))
	copy(unfrozen, comp)
	for len(unfrozen) > 0 {
		inc := math.Inf(1)
		for r, cnt := range load {
			if cnt <= 0 {
				continue
			}
			if share := capLeft[r] / float64(cnt); share < inc {
				inc = share
			}
		}
		if math.IsInf(inc, 1) || inc <= 0 {
			// No constraining resource (or float exhaustion): freeze rest.
			break
		}
		for _, f := range unfrozen {
			f.rate += inc
		}
		for r, cnt := range load {
			if cnt > 0 {
				capLeft[r] -= inc * float64(cnt)
			}
		}
		var still []*flow
		for _, f := range unfrozen {
			frozen := false
			for _, r := range f.res {
				if capLeft[r] <= 1e-9*r.cap {
					frozen = true
					break
				}
			}
			if frozen {
				for _, r := range f.res {
					load[r]--
				}
			} else {
				still = append(still, f)
			}
		}
		unfrozen = still
	}

	for _, f := range comp {
		f.compAt = projectCompletion(f, now)
		n.compHeap.update(f)
	}
}

// projectCompletion returns the absolute instant at which f drains,
// assuming its rate stays constant (ceil to the nanosecond event grid).
func projectCompletion(f *flow, now time.Duration) time.Duration {
	if f.rate <= 0 {
		return farFuture
	}
	secs := f.remaining / f.rate
	if secs < 0 {
		secs = 0
	}
	d := math.Ceil(secs * float64(time.Second))
	if d >= float64(farFuture-now) {
		return farFuture
	}
	return now + time.Duration(d)
}

// scheduleNextLocked (re)schedules the single completion event at the
// heap minimum.
func (n *Network) scheduleNextLocked() {
	var due time.Duration = farFuture
	if len(n.compHeap) > 0 {
		due = n.compHeap[0].compAt
	}
	if due == farFuture {
		if n.completion != nil {
			n.completion.Cancel()
			n.completion = nil
		}
		return
	}
	if n.completion != nil {
		if n.completion.When() == due {
			return
		}
		n.completion.Cancel()
	}
	n.completion = n.sim.At(due, n.onCompletion)
}

// departLocked drops the departed flows (sorted by id) from the engine
// and recomputes only the components that shared a resource with them —
// the only flows that can gain capacity — then reschedules the completion
// event.
func (n *Network) departLocked(departed []*flow) {
	for _, f := range departed {
		n.removeFlowLocked(f)
	}
	seen := map[int64]bool{}
	var neighbors []*flow
	for _, f := range departed {
		for _, r := range f.res {
			for id, g := range r.flows {
				if !seen[id] {
					seen[id] = true
					neighbors = append(neighbors, g)
				}
			}
		}
	}
	sort.Slice(neighbors, func(i, j int) bool { return neighbors[i].id < neighbors[j].id })
	n.recomputeComponentLocked(neighbors)
	n.scheduleNextLocked()
}

// onCompletion pops every flow due at the current instant and finishes
// it.
func (n *Network) onCompletion() {
	n.mu.Lock()
	n.completion = nil
	now := n.sim.Now()
	var finished []*flow
	for len(n.compHeap) > 0 && n.compHeap[0].compAt <= now {
		f := n.compHeap.pop()
		n.settleFlowLocked(f, now)
		finished = append(finished, f)
	}
	sort.Slice(finished, func(i, j int) bool { return finished[i].id < finished[j].id })
	n.departLocked(finished)
	n.finishFlowsLocked(finished)
	n.mu.Unlock()
	for _, f := range finished {
		dur, bps := now-f.started, f.aloneBps
		if dur > 0 {
			bps = f.bytes * 8 / dur.Seconds()
		}
		f.done.Send(xferOutcome{stats: TransferStats{
			Src: f.row.Src, Dst: f.row.Dst, Tag: f.row.Tag, Bytes: int64(f.bytes),
			Start: f.started, End: now, Duration: dur, AvgBps: bps, AloneBps: f.aloneBps,
		}})
	}
}
