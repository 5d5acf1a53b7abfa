package env

import (
	"fmt"
	"math"
	"strconv"

	"nwsenv/internal/gridml"
)

// FromGridML reconstructs the classified network list from a GridML
// document produced by the mapper (or merged from several runs). It lets
// the deployment planner work from a saved mapping file, the way the
// paper suggests administrators "publish the mapping of their network as
// reported by ENV, so that any user can use it without redoing the
// mapping" (§4.3). A bandwidth property that is not a finite number ≥ 0
// is an error naming its network and property: a file from outside the
// program must not plan with a bandwidth it did not state.
func FromGridML(doc *gridml.Document) ([]*Network, error) {
	var out []*Network
	var err error
	var walk func(n *gridml.Network, parentHop string)
	walk = func(n *gridml.Network, parentHop string) {
		hop := parentHop
		if n.Type == gridml.TypeStructural {
			if n.Label != nil && n.Label.Name != "" {
				hop = n.Label.Name
			}
		} else {
			nw := &Network{
				Label:      n.Name(),
				GatewayHop: parentHop,
			}
			if gw, ok := n.Property(PropGateway); ok {
				nw.GatewayHop = gw
			}
			switch n.Type {
			case gridml.TypeShared:
				nw.Class = Shared
			case gridml.TypeSwitched:
				nw.Class = Switched
			default:
				nw.Class = Unknown
			}
			bw := func(prop string, to *float64) {
				if v, ok := n.Property(prop); ok && err == nil {
					*to, err = bandwidth(nw.Label, prop, v)
				}
			}
			bw(gridml.PropBaseBW, &nw.BaseBW)
			bw(gridml.PropBaseLocalBW, &nw.LocalBW)
			bw(PropReverseBW, &nw.ReverseBW)
			for _, m := range n.Machines {
				nw.Hosts = append(nw.Hosts, m.CanonicalName())
			}
			out = append(out, nw)
		}
		for _, c := range n.Networks {
			walk(c, hop)
		}
	}
	for _, n := range doc.Networks {
		walk(n, "")
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// bandwidth parses value v of network label's property prop.
func bandwidth(label, prop, v string) (float64, error) {
	f, err := strconv.ParseFloat(v, 64)
	if err != nil || math.IsNaN(f) || math.IsInf(f, 0) || f < 0 {
		return 0, fmt.Errorf("env: network %q: %s=%q is not a finite bandwidth >= 0", label, prop, v)
	}
	return f, nil
}

// MergedFromGridML wraps a decoded document as a Merged result so the
// planner can consume it directly.
func MergedFromGridML(doc *gridml.Document) (*Merged, error) {
	nets, err := FromGridML(doc)
	if err != nil {
		return nil, err
	}
	return &Merged{Doc: doc, Networks: nets}, nil
}
