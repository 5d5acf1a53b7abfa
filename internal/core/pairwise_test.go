package core

import (
	"maps"
	"slices"
	"testing"
	"time"

	"nwsenv/internal/metrics"
	"nwsenv/internal/nws/clique"
	"nwsenv/internal/nws/proto"
	"nwsenv/internal/nws/proto/prototest"
	"nwsenv/internal/simnet"
	"nwsenv/internal/topo"
	"nwsenv/internal/vclock"
)

// TestPairwiseDeploymentLogsDisjointHolds: a pairwise deployment on a
// switched LAN of five hosts logs every probe as a hold of its round.
// Each round runs two disjoint pairs concurrently (the fifth host has
// the bye), and the §2.3 invariants find no violation in the log.
func TestPairwiseDeploymentLogsDisjointHolds(t *testing.T) {
	tp, _ := topo.SyntheticGrid(topo.GridConfig{Sites: 1, SwitchesPerSite: 1, HostsPerSwitch: 5, Seed: 3})
	net := simnet.NewNetwork(vclock.New(), tp)
	hosts := slices.DeleteFunc(tp.HostIDs(), func(h string) bool { return h == tp.ExternalTarget })
	var log clique.HoldLog
	out, err := simDeploy(net, 5*time.Minute, false, []MapRun{{Master: hosts[0], Hosts: hosts}},
		WithPairwiseSwitched(), WithTokenGap(time.Second), WithHoldLog(&log))
	if err != nil {
		t.Fatal(err)
	}
	prototest.Teardown(t, proto.NewSimRuntime(net.Sim()))(out.Deployment.Stop)
	if len(out.Plan.Cliques) != 1 || len(out.Plan.Cliques[0].Members) != 5 {
		t.Fatalf("want one 5-member clique, planned %s", out.Plan.Summary())
	}

	holds := log.Take()
	rounds := map[int64][]clique.Hold{}
	for _, h := range holds {
		if h.Partner == "" {
			t.Fatalf("ring hold %+v in a pairwise deployment", h)
		}
		rounds[h.Epoch] = append(rounds[h.Epoch], h)
	}
	if len(rounds) < 20 {
		t.Fatalf("only %d rounds logged", len(rounds))
	}
	last := slices.Max(slices.Collect(maps.Keys(rounds)))
	t.Logf("%d rounds, %d probes", last+1, len(holds))
	for r := int64(0); r < last; r++ { // the last round may still be running
		hs := rounds[r]
		if len(hs) != 2 {
			t.Fatalf("round %d logged %d probes, want 2: %+v", r, len(hs), hs)
		}
		a, b := hs[0], hs[1]
		if a.Host == b.Host || a.Host == b.Partner || a.Partner == b.Host || a.Partner == b.Partner {
			t.Fatalf("round %d pairs share a host: %+v", r, hs)
		}
		if a.From >= b.To || b.From >= a.To {
			t.Fatalf("round %d pairs ran one after the other: %+v", r, hs)
		}
	}

	inv := metrics.NewInvariants()
	inv.Check(out.Plan, tp, out.Resolve, holds)
	for _, name := range metrics.InvariantNames {
		if inv.Violations[name] != 0 {
			t.Errorf("%s: %d violations, first %s", name, inv.Violations[name], inv.First[name])
		}
	}
}
