package scenlab

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"nwsenv/internal/simnet"
	"nwsenv/internal/vclock"
)

// TestCompileFaultKinds: each single-fault kind heals heal_after later
// (or never, without heal_after), a degradation carries its factor and
// heals by restoring the link, and churn staggers its victims into one
// time-ordered schedule.
func TestCompileFaultKinds(t *testing.T) {
	victims := []string{"a", "b"}
	links := [][2]string{{"a", "sw"}, {"b", "sw"}}
	compile := func(f FaultSpec) []FaultEvent {
		t.Helper()
		events, err := f.Compile(1, 0, victims, links)
		if err != nil {
			t.Fatal(err)
		}
		return events
	}
	c := compile(FaultSpec{Kind: FaultCrash, StartSec: 60, HealAfterSec: 30})
	if len(c) != 2 || c[0].Kind != "crash" || c[1].Kind != "restore" || c[1].At != 90*time.Second || c[0].Host != c[1].Host {
		t.Fatalf("crash schedule %+v", c)
	}
	p := compile(FaultSpec{Kind: FaultPartition, StartSec: 60})
	if len(p) != 1 || p[0].Kind != "cut" {
		t.Fatalf("partition schedule %+v", p)
	}
	d := compile(FaultSpec{Kind: FaultDegrade, StartSec: 60, HealAfterSec: 60, Factor: 0.5})
	if len(d) != 2 || d[0].Factor != 0.5 || d[1].Kind != "restore-link" || d[1].Factor != 0 {
		t.Fatalf("degrade schedule %+v", d)
	}
	ch := compile(FaultSpec{Kind: FaultChurn, StartSec: 60, SpacingSec: 120, HealAfterSec: 60, Victims: 2})
	if len(ch) != 4 {
		t.Fatalf("churn schedule %+v", ch)
	}
	if !slices.IsSortedFunc(ch, func(x, y FaultEvent) int { return int(x.At - y.At) }) {
		t.Fatalf("churn events unsorted: %+v", ch)
	}
	if none := compile(FaultSpec{Kind: FaultNone}); none != nil {
		t.Fatalf("fault-free schedule %+v", none)
	}
}

// TestCompileMixedDeterministic: one seed, one mixed schedule; another
// seed, another. All three disruptive kinds appear, and each heals.
func TestCompileMixedDeterministic(t *testing.T) {
	victims := []string{"a", "b", "c"}
	links := [][2]string{{"a", "sw"}, {"sw", "r"}}
	f := FaultSpec{Kind: FaultMixed, StartSec: 60, SpacingSec: 300, HealAfterSec: 120, Rounds: 6}
	compile := func(seed int64) []FaultEvent {
		t.Helper()
		events, err := f.Compile(seed, 0, victims, links)
		if err != nil {
			t.Fatal(err)
		}
		return events
	}
	s1, s2, s3 := compile(42), compile(42), compile(43)
	if !reflect.DeepEqual(s1, s2) {
		t.Fatalf("same seed produced different schedules:\n%v\n%v", s1, s2)
	}
	if reflect.DeepEqual(s1, s3) {
		t.Fatal("different seeds produced identical schedules")
	}
	kinds := map[string]int{}
	for _, e := range s1 {
		kinds[e.Kind]++
	}
	for _, k := range []string{"crash", "cut", "degrade"} {
		if kinds[k] == 0 {
			t.Errorf("kind %s missing from mixed schedule %v", k, s1)
		}
	}
	if kinds["crash"] != kinds["restore"] || kinds["cut"] != kinds["heal"] || kinds["degrade"] != kinds["restore-link"] {
		t.Errorf("unbalanced heal events: %v", kinds)
	}
}

// TestFaultEventApply: armed on the simulation clock, a crash takes its
// host down at its time, the restore brings it back, a cut partitions
// the link's host and a heal reconnects it.
func TestFaultEventApply(t *testing.T) {
	topo := simnet.NewTopology()
	topo.AddHost("a", "10.0.0.1", "a.lan", "lan")
	topo.AddHost("b", "10.0.0.2", "b.lan", "lan")
	topo.AddSwitch("sw")
	topo.Connect("a", "sw")
	topo.Connect("b", "sw")
	sim := vclock.New()
	net := simnet.NewNetwork(sim, topo)
	for _, e := range []FaultEvent{
		{At: time.Second, Kind: "crash", Host: "b"},
		{At: 3 * time.Second, Kind: "restore", Host: "b"},
		{At: 5 * time.Second, Kind: "cut", LinkA: "b", LinkB: "sw"},
		{At: 7 * time.Second, Kind: "heal", LinkA: "b", LinkB: "sw"},
	} {
		sim.At(e.At, func() { e.apply(net) })
	}
	reachable := func(at time.Duration) bool {
		t.Helper()
		if err := sim.RunUntil(at); err != nil {
			t.Fatal(err)
		}
		var err error
		done := false
		sim.Go("probe", func() { _, err = net.Transfer("a", "b", 1000, ""); done = true })
		if err := sim.RunUntil(at + time.Second/2); err != nil || !done {
			t.Fatalf("probe at %v did not finish: %v", at, err)
		}
		return err == nil
	}
	if !reachable(500 * time.Millisecond) {
		t.Fatal("b unreachable before any fault")
	}
	if reachable(2*time.Second) || !net.HostDown("b") {
		t.Fatal("crash event did not fire")
	}
	if !reachable(4*time.Second) || net.HostDown("b") {
		t.Fatal("restore event did not fire")
	}
	if reachable(6 * time.Second) {
		t.Fatal("cut event did not fire")
	}
	if !reachable(8 * time.Second) {
		t.Fatal("heal event did not fire")
	}
}
