package env

import (
	"strings"
	"testing"

	"nwsenv/internal/gridml"
)

// TestFromGridMLRefusesMalformedBandwidth: a published mapping whose
// bandwidth is not a finite number ≥ 0 is refused, the error naming the
// network and the property, instead of planning with a bandwidth of 0
// or NaN.
func TestFromGridMLRefusesMalformedBandwidth(t *testing.T) {
	doc := func(prop, v string) *gridml.Document {
		props := []gridml.Property{{Name: prop, Value: v}}
		if prop != gridml.PropBaseBW {
			props = append(props, gridml.Property{Name: gridml.PropBaseBW, Value: "100"})
		}
		return &gridml.Document{Networks: []*gridml.Network{{Type: gridml.TypeStructural,
			Networks: []*gridml.Network{{Type: gridml.TypeSwitched, Label: &gridml.Label{Name: "lan0"},
				Properties: props, Machines: []*gridml.Machine{{Label: &gridml.Label{Name: "h1"}}}}}}}}
	}
	for _, c := range []struct{ prop, v string }{
		{gridml.PropBaseBW, "12,5"},
		{gridml.PropBaseLocalBW, "NaN"},
		{PropReverseBW, "-1"},
		{gridml.PropBaseBW, "Inf"},
		{gridml.PropBaseBW, ""},
	} {
		nets, err := FromGridML(doc(c.prop, c.v))
		if err == nil || nets != nil {
			t.Errorf("%s=%q: got %d networks, err %v; want an error", c.prop, c.v, len(nets), err)
			continue
		}
		if msg := err.Error(); !strings.Contains(msg, "lan0") || !strings.Contains(msg, c.prop) {
			t.Errorf("%s=%q: error %q does not name the network and the property", c.prop, c.v, msg)
		}
		if m, err := MergedFromGridML(doc(c.prop, c.v)); err == nil || m != nil {
			t.Errorf("%s=%q: MergedFromGridML accepted it", c.prop, c.v)
		}
	}
	nets, err := FromGridML(doc(PropReverseBW, "0"))
	if err != nil || len(nets) != 1 || nets[0].BaseBW != 100 || nets[0].ReverseBW != 0 {
		t.Fatalf("a well-formed mapping: %+v, %v", nets, err)
	}
}
