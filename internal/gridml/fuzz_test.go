package gridml

import (
	"reflect"
	"testing"
)

// FuzzGridMLDecode: a hostile GridML file never panics Decode or what
// the commands do with a document (MachineNames, Walk, Validate, Merge
// against a mapped document, either side), Merge leaves the mapped
// document as it was, and a decoded document survives encode → decode
// unchanged.
func FuzzGridMLDecode(f *testing.F) {
	mapped := buildSide("ens-lyon.fr", "the-doors.ens-lyon.fr", "popc.ens-lyon.fr")
	mapped.Networks = []*Network{{Type: TypeStructural, Label: &Label{Name: "sw"},
		Machines: []*Machine{{Name: "popc.ens-lyon.fr"}},
		Networks: []*Network{{Type: TypeSwitched, Properties: []Property{{Name: PropBaseBW, Value: "100", Units: "Mbps"}}}}}}
	seed, err := mapped.Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(paperSwitchedXML))
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := Decode(data)
		if err != nil {
			return
		}
		names := d.MachineNames()
		d.WalkNetworks(func(n *Network) {
			_ = n.Name()
			_ = n.MachineNames()
		})
		_ = d.Validate()
		var aliases []GatewayAlias
		if len(names) > 0 {
			aliases = []GatewayAlias{{Outside: "popc.ens-lyon.fr", Inside: names[0]}}
		}
		Merge("outside-first", mapped, d, aliases)
		Merge("inside-first", d, mapped, nil)
		if enc, err := mapped.Encode(); err != nil || string(enc) != string(seed) {
			t.Fatalf("Merge changed its input document: %v\n%s", err, enc)
		}
		enc, err := d.Encode()
		if err != nil {
			t.Fatalf("decoded document does not encode: %v", err)
		}
		again, err := Decode(enc)
		if err != nil {
			t.Fatalf("re-encoded document does not decode: %v\n%s", err, enc)
		}
		if !reflect.DeepEqual(d, again) {
			t.Fatalf("round trip changed the document:\n%s", enc)
		}
	})
}
