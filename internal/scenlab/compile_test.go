package scenlab

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
)

// scheduleDigest is the SHA-256 of every committed scenario's compiled
// fault schedule at seeds 1–8 over pinnedVictims and pinnedLinks. It
// moves only when a schedule does: an event's time, kind, victim or
// factor, the order of the events, or the order of the seeded draws.
const scheduleDigest = "6e7053a70701ed3a77fb095cf90e5accc289594143aea97214e25c352a9b029b"

var (
	pinnedVictims = []string{"h1", "h2", "h3", "h4", "h5", "h6"}
	pinnedLinks   = [][2]string{{"h1", "s1"}, {"h2", "s1"}, {"h3", "s2"}, {"h4", "s2"}, {"h5", "s3"}, {"h6", "s3"}}
)

// eventsJSON renders the events of a compiled schedule as JSON: the
// events alone, whether the schedule is an event list or a value that
// holds one in an Events field.
func eventsJSON(t *testing.T, schedule any) string {
	t.Helper()
	data, err := json.Marshal(schedule)
	if err != nil {
		t.Fatal(err)
	}
	if strings.HasPrefix(string(data), "{") {
		var holder struct{ Events json.RawMessage }
		if err := json.Unmarshal(data, &holder); err != nil {
			t.Fatal(err)
		}
		data = holder.Events
	}
	return string(data)
}

// TestCompiledSchedulesPinned compiles the fault of every scenario
// under scenarios/ at seeds 1–8, with the inject phase starting at the
// warmup span, and holds the rendered schedules to scheduleDigest.
func TestCompiledSchedulesPinned(t *testing.T) {
	files, err := LoadDir(filepath.Join("..", "..", "scenarios"))
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, f := range files {
		for seed := int64(1); seed <= 8; seed++ {
			sched, err := f.Spec.Fault.Compile(seed, f.Spec.Phases.Warmup(), pinnedVictims, pinnedLinks)
			if err != nil {
				t.Fatalf("%s seed %d: %v", f.Spec.Name, seed, err)
			}
			fmt.Fprintf(&b, "%s %d %s\n", f.Spec.Name, seed, eventsJSON(t, sched))
		}
	}
	sum := sha256.Sum256([]byte(b.String()))
	if got := hex.EncodeToString(sum[:]); got != scheduleDigest {
		t.Fatalf("compiled schedules hash to %s, want %s:\n%s", got, scheduleDigest, b.String())
	}
}
