package topo

import "testing"

// FuzzTopoSpec: a hostile topology file never panics DecodeSpec, Build
// or Runs, the path every -topo command takes. The ENS-Lyon preset, a
// random LAN and the hostile specs seed the corpus.
func FuzzTopoSpec(f *testing.F) {
	lan, _ := RandomLAN(5, 2, 3)
	for _, s := range []*Spec{EnsLyonSpec(), Export(lan)} {
		data, err := EncodeSpec(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, c := range hostileSpecs {
		f.Add([]byte(c.json))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeSpec(data)
		if err != nil {
			return
		}
		if tp, err := s.Build(); err == nil {
			s.Runs(tp)
		}
	})
}
