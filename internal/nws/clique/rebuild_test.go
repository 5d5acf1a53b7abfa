package clique

import (
	"testing"
	"time"

	"nwsenv/internal/env"
	"nwsenv/internal/nws/proto"
	"nwsenv/internal/nws/sensor"
)

// TestRebuiltMemberResetsSequenceWatermark is the regression test for a
// ring wedge the scenario lab exposed: the deploy engine rebuilds a
// member in place with a bumped epoch (membership deltas stride epochs
// by 1<<20), and the new incarnation's sequence space starts over near
// 1. Survivors sit hundreds of token passes into the old epoch; if the
// staleness check keeps the old watermark across the epoch boundary,
// every token the rebuilt member issues is dropped as stale and
// monitoring never recovers.
func TestRebuiltMemberResetsSequenceWatermark(t *testing.T) {
	r := newRig(t, 3, Config{TokenGap: 500 * time.Millisecond, TokenTimeout: 10 * time.Second})
	// Warm up: hundreds of passes push every member's sequence watermark
	// far above where a fresh epoch restarts.
	if err := r.sim.RunUntil(3 * time.Minute); err != nil {
		t.Fatal(err)
	}
	// Kill h0 and let the survivors re-form around an election.
	r.members[0].Stop()
	r.stations[0].Close()
	r.tr.Network().CrashHost("h0")
	if err := r.sim.RunUntil(4 * time.Minute); err != nil {
		t.Fatal(err)
	}

	// Rebuild h0 in place the way the deploy engine does: same host and
	// ring slot, a far higher configured epoch, sequences from scratch.
	r.tr.Network().RestoreHost("h0")
	ep, err := r.tr.Open("h0")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Name: "test", Members: r.hosts, Epoch: 1 << 20,
		TokenGap: 500 * time.Millisecond, TokenTimeout: 10 * time.Second,
	}
	st := proto.NewStation(r.tr.Runtime(), ep)
	reborn := NewMember(cfg, st, env.SimSubstrate{Net: r.net}, r.record)
	rebuiltAt := r.sim.Now()
	r.sim.Go("member:h0-reborn", reborn.Run)
	if err := r.sim.RunUntil(rebuiltAt + 4*time.Minute); err != nil {
		t.Fatal(err)
	}
	reborn.Stop()
	r.stopAll()

	// The whole ring must measure again: survivor↔survivor pairs and
	// pairs crossing the rebuilt member, well after the rebuild settled.
	after := rebuiltAt + time.Minute
	counts := map[string]int{}
	r.mu.Lock()
	for _, m := range r.meas {
		if m.At > after {
			counts[m.Series]++
		}
	}
	r.mu.Unlock()
	for _, series := range []string{
		sensor.BandwidthSeries("h1", "h2"),
		sensor.BandwidthSeries("h0", "h1"),
		sensor.BandwidthSeries("h2", "h0"),
	} {
		if counts[series] == 0 {
			t.Errorf("ring wedged after in-place rebuild: no %s measurements after %v", series, after)
		}
	}
	// And the survivors accepted the new incarnation's low-sequence
	// tokens instead of stale-dropping the ring to a halt.
	for i, m := range r.members[1:] {
		if st := m.Stats(); st.StaleTokens > 20 {
			t.Errorf("survivor %d stale-dropped %d tokens after rebuild", i+1, st.StaleTokens)
		}
	}
}
