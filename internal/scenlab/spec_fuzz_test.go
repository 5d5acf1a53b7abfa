package scenlab

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzDecodeSpec: a hostile scenario file never panics Decode, a spec
// Decode accepts survives json.Marshal → Decode unchanged, and Validate
// and FaultSpec.Compile never panic on whatever the JSON holds, over a
// fixed victim and link list. The committed scenarios seed the corpus,
// each also under a jitter condition (valid, and with a bound of zero).
func FuzzDecodeSpec(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.json"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no committed scenarios to seed from (%v)", err)
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		var m map[string]any
		if err := json.Unmarshal(data, &m); err != nil {
			f.Fatal(err)
		}
		for _, bound := range []int{3000, 0} {
			m["jitter"] = map[string]any{"max_ms": bound, "seed": 1}
			jittered, err := json.Marshal(m)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(jittered)
		}
	}
	victims := []string{"h1", "h2", "h3"}
	links := [][2]string{{"h1", "s1"}, {"h2", "s1"}, {"h3", "s2"}}
	f.Fuzz(func(t *testing.T, data []byte) {
		if s, err := Decode(data); err == nil {
			enc, err := json.Marshal(s)
			if err != nil {
				t.Fatalf("accepted spec does not encode: %v", err)
			}
			again, err := Decode(enc)
			if err != nil {
				t.Fatalf("re-encoded spec does not decode: %v\n%s", err, enc)
			}
			if !reflect.DeepEqual(s, again) {
				t.Fatalf("round trip changed the spec:\n%#v\n%#v", s, again)
			}
		}
		var raw Spec
		if json.Unmarshal(data, &raw) != nil {
			return
		}
		raw.Validate()
		raw.Fault.Compile(raw.Seed, raw.Phases.Warmup(), victims, links)
	})
}
