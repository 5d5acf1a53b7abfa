package metrics

import (
	"strings"
	"testing"
	"time"

	"nwsenv/internal/deploy"
	"nwsenv/internal/nws/clique"
	"nwsenv/internal/simnet"
)

// twoSwitches is hosts a and b on switch s1, c and d on s2, and one
// link between the switches.
func twoSwitches() *simnet.Topology {
	topo := simnet.NewTopology()
	topo.AddSwitch("s1")
	topo.AddSwitch("s2")
	topo.Connect("s1", "s2")
	for i, h := range []string{"a", "b", "c", "d"} {
		topo.AddHost(h, "10.0.0."+string(rune('1'+i)), h, "x")
		topo.Connect(h, map[bool]string{true: "s1", false: "s2"}[i < 2])
	}
	return topo
}

// ring is holds of one clique's token passed round members in order,
// one a second, each held for 900 ms.
func ring(name string, epoch int64, members []string, n int) []clique.Hold {
	var hs []clique.Hold
	for i := 0; i < n; i++ {
		at := time.Duration(i) * time.Second
		hs = append(hs, clique.Hold{Clique: name, Host: members[i%len(members)], Epoch: epoch, Seq: int64(i + 1),
			From: at, To: at + 900*time.Millisecond})
	}
	return hs
}

func TestInvariantsHoldOnOneRing(t *testing.T) {
	hosts := []string{"a", "b", "c", "d"}
	plan := &deploy.Plan{Hosts: hosts, Cliques: []deploy.CliqueSpec{{Name: "all", Members: hosts, Period: time.Second}}}
	inv := NewInvariants()
	inv.Check(plan, twoSwitches(), nil, ring("all", 0, hosts, 10))
	inv.Check(plan, twoSwitches(), nil, ring("all", 1, hosts, 10))
	for _, name := range InvariantNames {
		if inv.Violations[name] != 0 {
			t.Errorf("%s: %d violations, first %s", name, inv.Violations[name], inv.First[name])
		}
	}
	if inv.Checks != 2 {
		t.Fatalf("%d checks, want 2", inv.Checks)
	}
}

// TestInvariantsPairwiseRounds: the probes of one pairwise round run
// concurrently on disjoint pairs without breaking one token per epoch
// (the predicate is per epoch, so two rounds may overlap too); a probe
// injected within a round on a host another probe of that round is
// using is flagged.
func TestInvariantsPairwiseRounds(t *testing.T) {
	hosts := []string{"a", "b", "c", "d"}
	plan := &deploy.Plan{Hosts: hosts, Cliques: []deploy.CliqueSpec{{Name: "pw", Members: hosts, Period: time.Second}}}
	probe := func(round int64, from, to string, at time.Duration) clique.Hold {
		return clique.Hold{Clique: "pw", Host: from, Partner: to, Epoch: round, From: at, To: at + 800*time.Millisecond}
	}
	rounds := []clique.Hold{
		probe(0, "a", "d", 0), probe(0, "b", "c", 0),
		probe(1, "a", "c", time.Second), probe(1, "d", "b", time.Second+100*time.Millisecond),
		probe(2, "a", "b", 1500*time.Millisecond), probe(2, "c", "d", 2*time.Second),
	}
	inv := NewInvariants()
	inv.Check(plan, twoSwitches(), nil, rounds)
	for _, name := range InvariantNames {
		if inv.Violations[name] != 0 {
			t.Errorf("%s: %d violations, first %s", name, inv.Violations[name], inv.First[name])
		}
	}
	inv = NewInvariants()
	inv.Check(plan, twoSwitches(), nil, append(rounds, probe(1, "c", "d", 1500*time.Millisecond)))
	want := "clique pw epoch 1: c->d took seq 0 at 1.5s while a->c held seq 0 over [1s, 1.8s)"
	if inv.Violations[InvOneToken] != 1 || !strings.Contains(inv.First[InvOneToken], want) {
		t.Errorf("shared host in one round: %d violations, first %q, want %q", inv.Violations[InvOneToken], inv.First[InvOneToken], want)
	}
}

// TestInvariantsCountEachViolationOnce: a forged hold overlapping the
// ring is one violation, found at the check that takes it; later checks
// with clean holds find nothing new, and the ledger keeps no more than
// one hold per member of the ring.
func TestInvariantsCountEachViolationOnce(t *testing.T) {
	plan := &deploy.Plan{Hosts: []string{"a", "c"}, Cliques: []deploy.CliqueSpec{{Name: "x", Members: []string{"a", "c"}, Period: time.Second}}}
	holds := ring("x", 0, []string{"a", "c"}, 9)
	forged := clique.Hold{Clique: "x", Host: "c", Epoch: 0, Seq: 99, From: 2500 * time.Millisecond, To: 3400 * time.Millisecond}
	inv := NewInvariants()
	inv.Check(plan, twoSwitches(), nil, append(holds[:6:6], forged))
	for _, h := range holds[6:] {
		inv.Check(plan, twoSwitches(), nil, []clique.Hold{h})
	}
	if inv.Checks != 4 || inv.Violations[InvOneToken] != 1 || !strings.HasPrefix(inv.First[InvOneToken], "check 1: ") {
		t.Errorf("%d checks, %d one-token violations, first %q; want 4, 1, at check 1",
			inv.Checks, inv.Violations[InvOneToken], inv.First[InvOneToken])
	}
	if kept := len(inv.holds["x"]); kept > 2 {
		t.Errorf("ledger keeps %d holds of a ring of two", kept)
	}
}

// TestInvariantsCatchSharedLinkAndDuplicateToken: two cliques with no
// common member whose paths cross the one inter-switch link, and a
// token forged into one of them, break collision freedom and one token
// per clique epoch; a ring idle for minutes within one incarnation and
// an oversized clique break bounded cliques.
func TestInvariantsCatchSharedLinkAndDuplicateToken(t *testing.T) {
	plan := &deploy.Plan{Hosts: []string{"a", "b", "c", "d"}, Cliques: []deploy.CliqueSpec{
		{Name: "x", Members: []string{"a", "c"}, Period: time.Second},
		{Name: "y", Members: []string{"b", "d"}, Period: time.Second},
	}}
	holds := ring("x", 0, []string{"a", "c"}, 6)
	forged := clique.Hold{Clique: "x", Host: "c", Epoch: 0, Seq: 99, From: 2500 * time.Millisecond, To: 3400 * time.Millisecond}
	inv := NewInvariants()
	inv.Check(plan, twoSwitches(), nil, append(holds, forged))
	for name, want := range map[string]string{
		InvCollisionFreedom: "without a common member share a resource, first x [a c] and y [b d]",
		InvOneToken:         "clique x epoch 0: c took seq 99 at 2.5s while a held seq 3 over [2s, 2.9s)",
	} {
		if inv.Violations[name] != 1 || !strings.Contains(inv.First[name], want) {
			t.Errorf("%s: %d violations, first %q, want one with %q", name, inv.Violations[name], inv.First[name], want)
		}
	}

	// The same ring joined at a member is a §5.1 bridge, not a collision.
	plan.Cliques[1].Members = []string{"c", "d"}
	inv = NewInvariants()
	inv.Check(plan, twoSwitches(), nil, nil)
	if inv.Violations[InvCollisionFreedom] != 0 {
		t.Errorf("cliques joined at c: %s", inv.First[InvCollisionFreedom])
	}

	idle := append(ring("x", 3, []string{"a", "c"}, 2), clique.Hold{Clique: "x", Host: "a", Epoch: 4, Seq: 1,
		From: 10 * time.Minute, To: 10*time.Minute + time.Second})
	inv = NewInvariants()
	inv.Check(plan, twoSwitches(), nil, idle)
	if inv.Violations[InvBoundedCliques] != 1 || !strings.Contains(inv.First[InvBoundedCliques], "token idle 9m58.1s") {
		t.Errorf("idle ring: %d violations, first %q", inv.Violations[InvBoundedCliques], inv.First[InvBoundedCliques])
	}
	// A rebuild (the next incarnation) may start after any gap.
	rebuilt := append(ring("x", 3, []string{"a", "c"}, 2), clique.Hold{Clique: "x", Host: "a", Epoch: 3 + 1<<20, Seq: 1,
		From: 10 * time.Minute, To: 10*time.Minute + time.Second})
	inv = NewInvariants()
	inv.Check(plan, twoSwitches(), nil, rebuilt)
	if inv.Violations[InvBoundedCliques] != 0 {
		t.Errorf("rebuilt ring: %s", inv.First[InvBoundedCliques])
	}

	big := make([]string, MaxCliqueSize+1)
	for i := range big {
		big[i] = "a"
	}
	plan.Cliques = append(plan.Cliques, deploy.CliqueSpec{Name: "big", Members: big})
	inv = NewInvariants()
	inv.Check(plan, twoSwitches(), nil, nil)
	if !strings.Contains(inv.First[InvBoundedCliques], "clique big has 65 members") {
		t.Errorf("oversized clique: %q", inv.First[InvBoundedCliques])
	}
}
