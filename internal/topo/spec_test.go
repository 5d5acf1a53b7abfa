package topo

import (
	"maps"
	"strings"
	"testing"

	"nwsenv/internal/gridml"
	"nwsenv/internal/simnet"
)

func TestSpecRoundTripEnsLyon(t *testing.T) {
	s := EnsLyonSpec()
	data, err := EncodeSpec(s)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	tp, err := back.Build()
	if err != nil {
		t.Fatal(err)
	}
	// Structure preserved: same host count, same bottleneck, same
	// firewall behaviour, same traceroute.
	orig := NewEnsLyon().Topo
	if len(tp.Hosts()) != len(orig.Hosts()) {
		t.Fatalf("hosts %d vs %d", len(tp.Hosts()), len(orig.Hosts()))
	}
	in, _ := tp.AloneBandwidth("the-doors", "popc0")
	if in != 10*simnet.Mbps {
		t.Fatalf("bottleneck lost: %v", in/simnet.Mbps)
	}
	if reachable(tp, "the-doors", "sci1") {
		t.Fatal("firewall lost in round trip")
	}
	hops, err := tp.Traceroute("canaria", "world")
	if err != nil || len(hops) != 2 {
		t.Fatalf("traceroute %v %v", hops, err)
	}
	if len(back.Masters) != 2 || back.NamesOf[back.Masters[0]] == nil {
		t.Fatal("run metadata lost")
	}
}

func TestSpecRoundTripRandom(t *testing.T) {
	tp1, _ := RandomLAN(5, 3, 3)
	data, err := EncodeSpec(Export(tp1))
	if err != nil {
		t.Fatal(err)
	}
	s, err := DecodeSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	tp2, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range tp1.HostIDs() {
		for _, b := range tp1.HostIDs() {
			if a == b {
				continue
			}
			bw1, e1 := tp1.AloneBandwidth(a, b)
			bw2, e2 := tp2.AloneBandwidth(a, b)
			if (e1 == nil) != (e2 == nil) || bw1 != bw2 {
				t.Fatalf("bw %s->%s differs: %v/%v", a, b, bw1, bw2)
			}
		}
	}
}

// hostileSpecs are topology files DecodeSpec or Build must refuse with
// an error naming the culprit; the last three panicked inside simnet
// before Build checked them. FuzzTopoSpec seeds its corpus from them.
var hostileSpecs = []struct {
	name, json, wantErr string
}{
	{"unknown kind", `{"nodes": [{"id": "x", "kind": "toaster"}]}`, `unknown kind "toaster"`},
	{"unknown key", `{"nodes": [], "links": [], "extrnal": "world"}`, `unknown field "extrnal"`},
	{"data after the topology", `{"nodes": []} {"nodes": []}`, "data after the topology"},
	{"route ends elsewhere",
		`{"nodes": [{"id": "a", "kind": "host"}, {"id": "b", "kind": "host"}], "links": [{"a": "a", "b": "b"}],
		  "routes": [{"src": "a", "dst": "b", "path": ["a"]}]}`,
		"does not run from a to b"},
	{"link to an unknown node",
		`{"nodes": [{"id": "a", "kind": "host"}], "links": [{"a": "a", "b": "zz"}]}`,
		`unknown node "zz"`},
	{"duplicate node",
		`{"nodes": [{"id": "a", "kind": "host"}, {"id": "a", "kind": "switch"}]}`,
		`node "a" declared twice`},
	{"route over a missing link",
		`{"nodes": [{"id": "a", "kind": "host"}, {"id": "s", "kind": "switch"}, {"id": "b", "kind": "host"}],
		  "links": [{"a": "a", "b": "s"}, {"a": "s", "b": "b"}],
		  "routes": [{"src": "a", "dst": "b", "path": ["a", "b"]}]}`,
		"no link a-b"},
}

// buildSpec decodes and builds a topology file as the commands do.
func buildSpec(data []byte) (*simnet.Topology, error) {
	s, err := DecodeSpec(data)
	if err != nil {
		return nil, err
	}
	return s.Build()
}

func TestSpecRejections(t *testing.T) {
	for _, c := range hostileSpecs {
		t.Run(c.name, func(t *testing.T) {
			_, err := buildSpec([]byte(c.json))
			if err == nil {
				t.Fatalf("%s built without error", c.name)
			}
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("error %q does not mention %q", err, c.wantErr)
			}
		})
	}
}

// TestSpecResolve: a plan's names map to node IDs through the spec's run
// names, DNS names and IDs, read through GridML when a mapping is given;
// a name two hosts claim stays with the first.
func TestSpecResolve(t *testing.T) {
	s := &Spec{
		Nodes: []NodeSpec{
			{ID: "a", Kind: "host", DNS: "x.example"},
			{ID: "b", Kind: "host", DNS: "a"}, // claims a's ID
			{ID: "sw", Kind: "switch"},
		},
		NamesOf: map[string]map[string]string{"a": {"b": "x.example", "a": "alpha"}},
	}
	want := map[string]string{"alpha": "a", "x.example": "b", "a": "a", "b": "b"}
	if got := s.Resolve(nil); !maps.Equal(got, want) {
		t.Errorf("without GridML: %v, want %v", got, want)
	}
	doc := &gridml.Document{Sites: []*gridml.Site{{Machines: []*gridml.Machine{
		{Name: "b", Label: &gridml.Label{Name: "beta.example", Aliases: []gridml.Alias{{Name: "x.example"}}}},
	}}}}
	want = map[string]string{"alpha": "a", "beta.example": "b", "a": "a"}
	if got := s.Resolve(doc); !maps.Equal(got, want) {
		t.Errorf("through GridML: %v, want %v", got, want)
	}
}
