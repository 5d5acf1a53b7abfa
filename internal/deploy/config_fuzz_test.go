package deploy

import (
	"bytes"
	"reflect"
	"testing"
	"time"
)

// FuzzDecodeConfig: a hostile configuration file never panics
// DecodeConfig or what nwsmanager does with the plan before it starts an
// agent (Summary, ValidateConnectivity), and a decoded plan survives
// encode → decode unchanged. A document naming its one gateway under
// the pre-replication "gateway" key must fail to decode.
func FuzzDecodeConfig(f *testing.F) {
	legacy := []byte(`{"label":"old","master":"m","gateway":"a","hosts":["a","m"],"memoryOf":{}}`)
	seed, err := EncodeConfig(&Plan{
		Label: "Grid1", Master: "m", NameServer: "m", Forecaster: "m",
		Gateways: []string{"m", "b"}, MemoryServers: []string{"m"},
		MemoryOf:          map[string]string{"a": "m", "b": "m", "m": "m"},
		ReplicationFactor: 1, Replicas: map[string][]string{"m": {"b"}},
		Cliques: []CliqueSpec{
			{Name: "hub", Members: []string{"a", "b"}, Network: "n1", Shared: true, Represents: []string{"a", "b", "m"}, Period: time.Second},
			{Name: "bridge", Members: []string{"a", "m"}},
		},
		Hosts: []string{"a", "b", "m"},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(legacy)
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodeConfig(data)
		if err != nil {
			return
		}
		if bytes.Equal(data, legacy) {
			t.Fatalf("the legacy \"gateway\" document decoded to %+v", p)
		}
		_ = p.Summary()
		ValidateConnectivity(p)
		enc, err := EncodeConfig(p)
		if err != nil {
			t.Fatalf("decoded plan does not encode: %v", err)
		}
		again, err := DecodeConfig(enc)
		if err != nil {
			t.Fatalf("re-encoded plan does not decode: %v\n%s", err, enc)
		}
		if !reflect.DeepEqual(p, again) {
			t.Fatalf("round trip changed the plan:\n%#v\n%#v", p, again)
		}
	})
}
