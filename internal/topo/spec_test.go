package topo

import (
	"testing"

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

func TestSpecBadKind(t *testing.T) {
	s := &Spec{Nodes: []NodeSpec{{ID: "x", Kind: "toaster"}}}
	if _, err := s.Build(); err == nil {
		t.Fatal("unknown kind should fail")
	}
}
