package simnet

import (
	"fmt"
	"math"
	"sync"
	"time"

	"nwsenv/internal/vclock"
)

// Reference flow simulator, test-only.
//
// This is the oracle the product's fair-share engine (fairshare.go) is
// differential-tested and benchmarked against. It is deliberately the
// dumbest correct thing: every arrival, completion and fault settles
// every live flow, re-runs progressive filling over all of them, and
// finds the next completion by linear scan — O(total flows × path length)
// per event. It shares with Network only the Topology (routing and the
// fault overlay) and the TransferStats/TrafficRow/xferOutcome types; its
// flow log, resource table, allocation, completion, abort and rescale
// paths are its own, so a bookkeeping bug in Network cannot hide in both.

// refCompletionEps is the residual byte count below which a flow is
// complete.
const refCompletionEps = 1e-3

// refDir names one direction of a link in the resource table.
type refDir struct {
	link *Link
	aToB bool
}

type refResource struct {
	cap float64 // bytes per second
}

type refFlow struct {
	src, dst, tag    string
	bytes, remaining float64
	rate             float64 // bytes per second
	res              []*refResource
	started          time.Duration
	aloneBps         float64
	done             *vclock.Chan[xferOutcome]
	finished         bool
}

// ReferenceNetwork executes transfers over a Topology by global
// progressive filling at every event.
type ReferenceNetwork struct {
	sim  *vclock.Sim
	topo *Topology

	mu         sync.Mutex
	flows      []*refFlow // arrival order
	edges      map[refDir]*refResource
	hubs       map[*Node]*refResource
	factor     map[*Link]float64
	lastSettle time.Duration
	completion *vclock.Event
	// log lists every flow that started, in start order.
	log []*refFlow
}

// NewReferenceNetwork binds a topology to a simulation. It is exported
// for the scale benchmarks in package simnet_test.
func NewReferenceNetwork(sim *vclock.Sim, topo *Topology) *ReferenceNetwork {
	if err := topo.Validate(); err != nil {
		panic(err)
	}
	return &ReferenceNetwork{
		sim:    sim,
		topo:   topo,
		edges:  map[refDir]*refResource{},
		hubs:   map[*Node]*refResource{},
		factor: map[*Link]float64{},
	}
}

// Topology returns the underlying topology.
func (r *ReferenceNetwork) Topology() *Topology { return r.topo }

// Traffic has Network.Traffic's contract, folded from the reference's
// own log of started flows.
func (r *ReferenceNetwork) Traffic() []TrafficRow {
	r.mu.Lock()
	defer r.mu.Unlock()
	var rows []TrafficRow
	at := map[[3]string]int{}
	for _, f := range r.log {
		k := [3]string{f.src, f.dst, f.tag}
		i, ok := at[k]
		if !ok {
			i = len(rows)
			at[k] = i
			rows = append(rows, TrafficRow{Src: f.src, Dst: f.dst, Tag: f.tag})
		}
		rows[i].Started++
		rows[i].StartedBytes += int64(f.bytes)
		if f.finished {
			rows[i].Done++
			rows[i].DoneBytes += int64(f.bytes)
		}
	}
	return rows
}

// edgeCap is the current capacity of one link direction in bytes/s.
func (r *ReferenceNetwork) edgeCap(d refDir) float64 {
	bw := d.link.BWBtoA
	if d.aToB {
		bw = d.link.BWAtoB
	}
	if f, ok := r.factor[d.link]; ok {
		bw *= f
	}
	return bw / 8
}

// pathResources lists what a flow over path consumes: one resource per
// directed link hop plus one per traversed hub.
func (r *ReferenceNetwork) pathResources(path []string) []*refResource {
	var out []*refResource
	for i := 0; i+1 < len(path); i++ {
		l := r.topo.findLink(path[i], path[i+1])
		d := refDir{link: l, aToB: l.A == path[i]}
		res, ok := r.edges[d]
		if !ok {
			res = &refResource{cap: r.edgeCap(d)}
			r.edges[d] = res
		}
		out = append(out, res)
	}
	for _, id := range path {
		node := r.topo.Node(id)
		if node.Kind != Hub {
			continue
		}
		res, ok := r.hubs[node]
		if !ok {
			res = &refResource{cap: node.HubCapacity / 8}
			r.hubs[node] = res
		}
		out = append(out, res)
	}
	return out
}

// Transfer has Network.Transfer's contract.
func (r *ReferenceNetwork) Transfer(src, dst string, bytes int64, tag string) (TransferStats, error) {
	if err := r.topo.checkEndpoints(src, dst); err != nil {
		return TransferStats{}, err
	}
	if src == dst {
		return TransferStats{}, fmt.Errorf("simnet: transfer to self (%s)", src)
	}
	lat, err := r.topo.PathLatency(src, dst)
	if err != nil {
		return TransferStats{}, err
	}
	path, err := r.topo.Path(src, dst)
	if err != nil {
		return TransferStats{}, err
	}
	alone, err := r.topo.AloneBandwidth(src, dst)
	if err != nil {
		return TransferStats{}, err
	}
	if bytes <= 0 {
		bytes = 1
	}

	r.sim.Sleep(lat)

	f := &refFlow{
		src: src, dst: dst, tag: tag,
		bytes: float64(bytes), remaining: float64(bytes),
		started:  r.sim.Now(),
		aloneBps: alone,
		done:     vclock.NewChan[xferOutcome](r.sim, "ref:"+src+"->"+dst),
	}
	r.mu.Lock()
	f.res = r.pathResources(path)
	r.settleAll()
	r.flows = append(r.flows, f)
	r.log = append(r.log, f)
	r.recompute()
	r.mu.Unlock()

	out, _ := f.done.Recv()
	if out.err != nil {
		return TransferStats{}, out.err
	}
	return out.stats, nil
}

// settleAll advances every live flow's progress to the current instant.
func (r *ReferenceNetwork) settleAll() {
	now := r.sim.Now()
	if dt := (now - r.lastSettle).Seconds(); dt > 0 {
		for _, f := range r.flows {
			f.remaining -= f.rate * dt
		}
	}
	r.lastSettle = now
}

// recompute reassigns max-min fair rates over every live flow by
// progressive filling, then schedules the earliest completion.
func (r *ReferenceNetwork) recompute() {
	capLeft := map[*refResource]float64{}
	load := map[*refResource]int{}
	for _, f := range r.flows {
		f.rate = 0
		for _, res := range f.res {
			if _, ok := capLeft[res]; !ok {
				capLeft[res] = res.cap
			}
			load[res]++
		}
	}
	unfrozen := append([]*refFlow(nil), r.flows...)
	for len(unfrozen) > 0 {
		inc := math.Inf(1)
		for res, cnt := range load {
			if cnt <= 0 {
				continue
			}
			if share := capLeft[res] / float64(cnt); share < inc {
				inc = share
			}
		}
		if math.IsInf(inc, 1) || inc <= 0 {
			break // no constraining resource, or float exhaustion
		}
		for _, f := range unfrozen {
			f.rate += inc
		}
		for res, cnt := range load {
			if cnt > 0 {
				capLeft[res] -= inc * float64(cnt)
			}
		}
		var still []*refFlow
		for _, f := range unfrozen {
			frozen := false
			for _, res := range f.res {
				if capLeft[res] <= 1e-9*res.cap {
					frozen = true
					break
				}
			}
			if frozen {
				for _, res := range f.res {
					load[res]--
				}
			} else {
				still = append(still, f)
			}
		}
		unfrozen = still
	}

	if r.completion != nil {
		r.completion.Cancel()
		r.completion = nil
	}
	soonest := math.Inf(1)
	for _, f := range r.flows {
		if f.rate <= 0 {
			continue
		}
		if t := f.remaining / f.rate; t < soonest {
			soonest = t
		}
	}
	if math.IsInf(soonest, 1) {
		return
	}
	if soonest < 0 {
		soonest = 0
	}
	delay := time.Duration(math.Ceil(soonest * float64(time.Second)))
	r.completion = r.sim.After(delay, r.onCompletion)
}

// remove drops the flows matching pred and returns them in arrival order.
func (r *ReferenceNetwork) remove(pred func(*refFlow) bool) []*refFlow {
	var gone, kept []*refFlow
	for _, f := range r.flows {
		if pred(f) {
			gone = append(gone, f)
		} else {
			kept = append(kept, f)
		}
	}
	r.flows = kept
	return gone
}

func (r *ReferenceNetwork) onCompletion() {
	r.mu.Lock()
	r.completion = nil
	r.settleAll()
	now := r.sim.Now()
	finished := r.remove(func(f *refFlow) bool { return f.remaining <= refCompletionEps })
	stats := make([]TransferStats, len(finished))
	for i, f := range finished {
		f.finished = true
		dur := now - f.started
		bps := f.aloneBps
		if dur > 0 {
			bps = f.bytes * 8 / dur.Seconds()
		}
		stats[i] = TransferStats{
			Src: f.src, Dst: f.dst, Tag: f.tag, Bytes: int64(f.bytes),
			Start: f.started, End: now, Duration: dur,
			AvgBps: bps, AloneBps: f.aloneBps,
		}
	}
	r.recompute()
	r.mu.Unlock()
	for i, f := range finished {
		f.done.Send(xferOutcome{stats: stats[i]})
	}
}

// abort applies fault to the topology, fails the flows matching pred
// with err and gives their capacity back to the survivors.
func (r *ReferenceNetwork) abort(fault func(), pred func(*refFlow) bool, err error) {
	r.mu.Lock()
	r.settleAll()
	fault()
	aborted := r.remove(pred)
	r.recompute()
	r.mu.Unlock()
	for _, f := range aborted {
		f.done.Send(xferOutcome{err: err})
	}
}

// CrashHost has Network.CrashHost's contract.
func (r *ReferenceNetwork) CrashHost(id string) {
	r.abort(func() { r.topo.SetNodeDown(id, true) },
		func(f *refFlow) bool { return f.src == id || f.dst == id },
		fmt.Errorf("simnet: host %s is down", id))
}

// RestoreHost brings a crashed host back.
func (r *ReferenceNetwork) RestoreHost(id string) {
	r.mu.Lock()
	r.topo.SetNodeDown(id, false)
	r.mu.Unlock()
}

// CutLink has Network.CutLink's contract.
func (r *ReferenceNetwork) CutLink(a, b string) {
	var fwd, back *refResource
	r.abort(func() {
		r.topo.SetLinkDisabled(a, b, true)
		l := r.topo.findLink(a, b)
		fwd, back = r.edges[refDir{l, true}], r.edges[refDir{l, false}]
	}, func(f *refFlow) bool {
		for _, res := range f.res {
			if res == fwd || res == back {
				return true
			}
		}
		return false
	}, fmt.Errorf("simnet: link %s-%s is cut", a, b))
}

// HealLink restores a cut link.
func (r *ReferenceNetwork) HealLink(a, b string) {
	r.mu.Lock()
	r.topo.SetLinkDisabled(a, b, false)
	r.mu.Unlock()
}

// DegradeLink has Network.DegradeLink's contract.
func (r *ReferenceNetwork) DegradeLink(a, b string, factor float64) {
	r.rescale(a, b, func(l *Link) { r.factor[l] = factor })
}

// RestoreLink returns the a-b link to nominal capacity.
func (r *ReferenceNetwork) RestoreLink(a, b string) {
	r.rescale(a, b, func(l *Link) { delete(r.factor, l) })
}

// rescale applies set to the a-b link's factor and pushes the new
// capacities into the live resources.
func (r *ReferenceNetwork) rescale(a, b string, set func(*Link)) {
	l := r.topo.findLink(a, b)
	if l == nil {
		panic(fmt.Sprintf("simnet: reference: no link %s-%s", a, b))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	set(l)
	r.settleAll()
	for _, d := range []refDir{{l, true}, {l, false}} {
		if res, ok := r.edges[d]; ok {
			res.cap = r.edgeCap(d)
		}
	}
	r.recompute()
}
