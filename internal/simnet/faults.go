package simnet

import (
	"fmt"
	"sort"
)

// Fault injection: the controlled "platform evolution" of §4.3. Faults
// are applied through the Network (not the Topology directly) so that
// in-flight flows are settled at the injection instant, flows that lost
// their endpoint or path abort with an error, and the max-min fair
// shares of the survivors are recomputed — exactly what a deployed
// monitoring system would observe when a machine dies or a link is cut.
// Only the connected components of flows actually touched by the fault
// are recomputed.

// CrashHost takes host id down: it stops sourcing, sinking and
// forwarding traffic, its in-flight transfers abort, and routing flows
// around it. Crashing an already-down host is a no-op.
func (n *Network) CrashHost(id string) {
	err := fmt.Errorf("simnet: host %s is down", id)
	n.mu.Lock()
	n.topo.SetNodeDown(id, true)
	aborted := n.abortLocked(func(f *flow) bool { return f.src == id || f.dst == id })
	n.mu.Unlock()
	n.failFlows(aborted, err)
}

// RestoreHost brings a crashed host back (a machine joining, or
// rejoining after churn).
func (n *Network) RestoreHost(id string) {
	n.mu.Lock()
	n.topo.SetNodeDown(id, false)
	n.mu.Unlock()
}

// HostDown reports whether id is currently crashed.
func (n *Network) HostDown(id string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.topo.NodeDown(id)
}

// DegradeLink scales both directions of the a-b link to factor times
// their nominal capacity (0 < factor ≤ 1). Already-running flows see
// their fair shares recomputed immediately. Degrading a degraded link
// replaces the previous factor (factors do not compose).
func (n *Network) DegradeLink(a, b string, factor float64) {
	if factor <= 0 || factor > 1 {
		panic(fmt.Sprintf("simnet: DegradeLink(%s, %s, %v): factor must be in (0, 1]", a, b, factor))
	}
	l := n.topo.findLink(a, b)
	if l == nil {
		panic(fmt.Sprintf("simnet: DegradeLink: no link %s-%s", a, b))
	}
	n.mu.Lock()
	n.linkFactor[l] = factor
	n.rescaleLinkLocked(l)
	n.mu.Unlock()
}

// RestoreLink returns the a-b link to nominal capacity.
func (n *Network) RestoreLink(a, b string) {
	l := n.topo.findLink(a, b)
	if l == nil {
		panic(fmt.Sprintf("simnet: RestoreLink: no link %s-%s", a, b))
	}
	n.mu.Lock()
	delete(n.linkFactor, l)
	n.rescaleLinkLocked(l)
	n.mu.Unlock()
}

// CutLink severs the a-b link: routing recomputes around it (a cut of
// the only path partitions the network) and every in-flight flow
// crossing it aborts with an error.
func (n *Network) CutLink(a, b string) {
	err := fmt.Errorf("simnet: link %s-%s is cut", a, b)
	n.mu.Lock()
	n.topo.SetLinkDisabled(a, b, true)
	cut := map[*resource]bool{}
	for _, key := range []string{"edge:" + a + "->" + b, "edge:" + b + "->" + a} {
		if r, ok := n.resources[key]; ok {
			cut[r] = true
		}
	}
	aborted := n.abortLocked(func(f *flow) bool {
		for _, r := range f.res {
			if cut[r] {
				return true
			}
		}
		return false
	})
	n.mu.Unlock()
	n.failFlows(aborted, err)
}

// HealLink restores a cut link.
func (n *Network) HealLink(a, b string) {
	n.mu.Lock()
	n.topo.SetLinkDisabled(a, b, false)
	n.mu.Unlock()
}

// rescaleLinkLocked pushes the link's current factor into the live
// resource table so running flows feel the change, and recomputes the
// shares of the components crossing the link.
func (n *Network) rescaleLinkLocked(l *Link) {
	factor, ok := n.linkFactor[l]
	if !ok {
		factor = 1
	}
	var touched []*flow
	for _, key := range []string{"edge:" + l.A + "->" + l.B, "edge:" + l.B + "->" + l.A} {
		r, exists := n.resources[key]
		if !exists {
			continue
		}
		if key == "edge:"+l.A+"->"+l.B {
			r.cap = l.BWAtoB * factor / 8
		} else {
			r.cap = l.BWBtoA * factor / 8
		}
		for _, f := range r.flows {
			touched = append(touched, f)
		}
	}
	sort.Slice(touched, func(i, j int) bool { return touched[i].id < touched[j].id })
	n.recomputeComponentLocked(touched)
	n.scheduleNextLocked()
}

// abortLocked removes the flows matching pred from the active set,
// recomputes the survivors' shares and returns the aborted flows in id
// order; the caller must fail them outside the lock.
func (n *Network) abortLocked(pred func(*flow) bool) []*flow {
	var aborted []*flow
	for _, f := range n.active {
		if pred(f) {
			aborted = append(aborted, f)
		}
	}
	sort.Slice(aborted, func(i, j int) bool { return aborted[i].id < aborted[j].id })
	n.departLocked(aborted)
	return aborted
}

// failFlows delivers the abort error to each flow's blocked Transfer
// call. Safe from scheduler context (Chan.Send does not block).
func (n *Network) failFlows(aborted []*flow, err error) {
	for _, f := range aborted {
		f.done.Send(xferOutcome{err: err})
	}
}
