package scenlab

import (
	"path/filepath"
	"testing"

	nwsmetrics "nwsenv/internal/metrics"
)

// TestJitterCrashBreachesOneToken runs the committed crash scenario at
// seed 1 with and without a 0-3 s jitter (jitter seed 1), through the
// scenario's own "jitter" key. Without it every gate holds; with it the
// clique ring hands one epoch's token to two holders at once, the
// reproducer of ROADMAP S17. Once the ring keeps its invariant under
// delay, the jittered run must pass too and this test flips.
func TestJitterCrashBreachesOneToken(t *testing.T) {
	f, err := LoadFile(filepath.Join("..", "..", "scenarios", "crash.json"))
	if err != nil {
		t.Fatal(err)
	}
	breached := func(spec *Spec) map[string]bool {
		t.Helper()
		res, err := Run(spec, 1)
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]bool{}
		for _, g := range Summarize(res).Gates {
			if !g.Pass {
				out[g.Name] = true
			}
		}
		return out
	}
	plain := *f.Spec
	if b := breached(&plain); len(b) != 0 {
		t.Fatalf("crash at seed 1 without jitter breached %v", b)
	}
	jittered := *f.Spec
	jittered.Jitter = &JitterSpec{MaxMS: 3000, Seed: 1}
	if b := breached(&jittered); len(b) != 1 || !b["invariant "+nwsmetrics.InvOneToken] {
		t.Fatalf("crash at seed 1 with 0-3 s jitter breached %v, want %s alone", b, nwsmetrics.InvOneToken)
	}
}
