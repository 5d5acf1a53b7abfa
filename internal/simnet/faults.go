package simnet

import (
	"fmt"
	"slices"
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
	n.abortLocked(func(f *flow) bool { return f.row.Src == id || f.row.Dst == id }, err)
	n.mu.Unlock()
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
	ab, ba := n.resources["edge:"+a+"->"+b], n.resources["edge:"+b+"->"+a]
	n.abortLocked(func(f *flow) bool {
		for _, r := range f.res {
			if r == ab || r == ba {
				return true
			}
		}
		return false
	}, err)
	n.mu.Unlock()
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
	touched := n.touched[:0]
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
		for _, s := range r.flows {
			touched = append(touched, s.f)
		}
	}
	n.touched = touched
	n.recomputeComponentLocked(touched)
	n.scheduleNextLocked()
}

// abortLocked removes the flows matching pred from the active set,
// recomputes the survivors' shares and delivers err to each aborted
// flow's blocked Transfer call, in flow-id order.
func (n *Network) abortLocked(pred func(*flow) bool, err error) {
	aborted := n.ended[:0]
	for _, f := range n.active {
		if pred(f) {
			aborted = append(aborted, f)
		}
	}
	slices.SortFunc(aborted, byID)
	n.ended = aborted
	n.departLocked(aborted)
	for _, f := range aborted {
		n.finishLocked(f, xferOutcome{err: err})
	}
}
