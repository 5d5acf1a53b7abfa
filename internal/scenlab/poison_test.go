package scenlab

import (
	"path/filepath"
	"testing"

	"nwsenv/internal/nws/proto/prototest"
)

// TestScenariosPoisoned is the scenario matrix in poison mode: every
// committed scenario runs once, at its own seed, with every released
// message poisoned. A station, agent or role that touches a message
// after replying to it or dropping it panics or breaks a gate here.
func TestScenariosPoisoned(t *testing.T) {
	prototest.PoisonMessages(t)
	files, err := LoadDir(filepath.Join("..", "..", "scenarios"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		t.Run(f.Spec.Name, func(t *testing.T) {
			res, err := Run(f.Spec, f.Spec.Seed)
			if err != nil {
				t.Fatal(err)
			}
			if sum := Summarize(res); !sum.Pass {
				t.Fatalf("poisoned run breached its gates:\n%+v", sum.Gates)
			}
		})
	}
}
