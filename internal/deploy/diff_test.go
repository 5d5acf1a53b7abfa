package deploy

import (
	"context"
	"strings"
	"testing"
	"time"

	"nwsenv/internal/nws/proto"
	"nwsenv/internal/nws/sensor"
)

func basePlan() *Plan {
	return &Plan{
		Master: "a", NameServer: "a", Forecaster: "a",
		MemoryServers: []string{"a"},
		MemoryOf:      map[string]string{"a": "a", "b": "a", "c": "a"},
		Hosts:         []string{"a", "b", "c"},
		Cliques: []CliqueSpec{
			{Name: "c1", Members: []string{"a", "b"}},
			{Name: "c2", Members: []string{"b", "c"}},
		},
	}
}

// TestDiffGatewayMove: relocating the query gateway is a server move.
func TestDiffGatewayMove(t *testing.T) {
	old := basePlan()
	old.Gateways = []string{"a"}
	new := basePlan()
	new.Gateways = []string{"b"}
	d := DiffPlans(old, new)
	if len(d.ServerMoves) != 1 || !strings.Contains(d.ServerMoves[0], "gateways: [a] -> [b]") {
		t.Fatalf("server moves %v", d.ServerMoves)
	}
	if d.Empty() {
		t.Fatal("gateway move reported as empty diff")
	}
}

func TestDiffIdenticalPlans(t *testing.T) {
	d := DiffPlans(basePlan(), basePlan())
	if !d.Empty() {
		t.Fatalf("diff of identical plans: %s", d)
	}
	if d.String() != "no deployment changes\n" {
		t.Fatalf("string %q", d.String())
	}
}

func TestDiffDetectsGrowth(t *testing.T) {
	old := basePlan()
	new := basePlan()
	new.Hosts = append(new.Hosts, "d")
	new.MemoryOf["d"] = "a"
	new.Cliques = append(new.Cliques, CliqueSpec{Name: "c3", Members: []string{"c", "d"}})
	new.Cliques[1].Members = []string{"b", "c", "d"}
	d := DiffPlans(old, new)
	if len(d.HostsAdded) != 1 || d.HostsAdded[0] != "d" {
		t.Fatalf("hosts added %v", d.HostsAdded)
	}
	if len(d.CliquesAdded) != 1 || d.CliquesAdded[0] != "c3" {
		t.Fatalf("cliques added %v", d.CliquesAdded)
	}
	md, ok := d.CliquesChanged["c2"]
	if !ok || len(md.Added) != 1 || md.Added[0] != "d" {
		t.Fatalf("changed %v", d.CliquesChanged)
	}
	out := d.String()
	for _, frag := range []string{"+ host d", "+ clique c3", "~ clique c2"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("diff rendering misses %q:\n%s", frag, out)
		}
	}
}

func TestDiffDetectsShrinkAndMoves(t *testing.T) {
	old := basePlan()
	new := basePlan()
	new.Hosts = []string{"a", "b"}
	new.Cliques = new.Cliques[:1]
	new.NameServer = "b"
	new.MemoryServers = []string{"b"}
	d := DiffPlans(old, new)
	if len(d.HostsRemoved) != 1 || d.HostsRemoved[0] != "c" {
		t.Fatalf("hosts removed %v", d.HostsRemoved)
	}
	if len(d.CliquesRemoved) != 1 || d.CliquesRemoved[0] != "c2" {
		t.Fatalf("cliques removed %v", d.CliquesRemoved)
	}
	if len(d.ServerMoves) != 2 {
		t.Fatalf("server moves %v", d.ServerMoves)
	}
}

// TestDiffCombinedMembershipAndServerMove: one diff carries a clique
// membership change and a server move at once; both surface, and the
// rendering shows each.
func TestDiffCombinedMembershipAndServerMove(t *testing.T) {
	old := basePlan()
	new := basePlan()
	new.Cliques[1] = CliqueSpec{Name: "c2", Members: []string{"b", "c", "a"}}
	new.Forecaster = "c"
	new.MemoryServers = []string{"a", "c"}
	d := DiffPlans(old, new)
	if d.Empty() {
		t.Fatal("combined change diffed empty")
	}
	md, ok := d.CliquesChanged["c2"]
	if !ok || len(md.Added) != 1 || md.Added[0] != "a" || len(md.Removed) != 0 {
		t.Fatalf("membership delta %v", d.CliquesChanged)
	}
	if len(d.ServerMoves) != 2 {
		t.Fatalf("server moves %v", d.ServerMoves)
	}
	if len(d.HostsAdded)+len(d.HostsRemoved)+len(d.CliquesAdded)+len(d.CliquesRemoved) != 0 {
		t.Fatalf("spurious membership churn: %s", d)
	}
	out := d.String()
	for _, frag := range []string{"~ clique c2: +[a] -[]", "forecaster: a -> c", "memory: [a] -> [a,c]"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("rendering misses %q:\n%s", frag, out)
		}
	}
}

// TestDiffEmptyToNonempty: bootstrapping from a blank plan reports
// everything as added, and the reverse reports everything removed.
func TestDiffEmptyToNonempty(t *testing.T) {
	empty := &Plan{}
	full := basePlan()

	up := DiffPlans(empty, full)
	if len(up.HostsAdded) != 3 || len(up.CliquesAdded) != 2 {
		t.Fatalf("empty->full: %+v", up)
	}
	if len(up.HostsRemoved)+len(up.CliquesRemoved) != 0 {
		t.Fatalf("empty->full reports removals: %+v", up)
	}
	// Placements move from "" to their targets.
	if len(up.ServerMoves) != 3 {
		t.Fatalf("empty->full server moves %v", up.ServerMoves)
	}

	down := DiffPlans(full, empty)
	if len(down.HostsRemoved) != 3 || len(down.CliquesRemoved) != 2 {
		t.Fatalf("full->empty: %+v", down)
	}
	if len(down.HostsAdded)+len(down.CliquesAdded) != 0 {
		t.Fatalf("full->empty reports additions: %+v", down)
	}
	if DiffPlans(empty, &Plan{}).Empty() != true {
		t.Fatal("two empty plans differ")
	}
}

// TestDiffStringRendersEveryField: each Diff field has a distinct
// rendering an operator can grep.
func TestDiffStringRendersEveryField(t *testing.T) {
	d := &Diff{
		CliquesAdded:   []string{"cA"},
		CliquesRemoved: []string{"cR"},
		CliquesChanged: map[string]MemberDelta{"cM": {Added: []string{"x"}, Removed: []string{"y"}}},
		HostsAdded:     []string{"hA"},
		HostsRemoved:   []string{"hR"},
		ServerMoves:    []string{"nameserver: a -> b"},
	}
	out := d.String()
	for _, frag := range []string{
		"+ host hA", "- host hR",
		"+ clique cA", "- clique cR",
		"~ clique cM: +[x] -[y]",
		"~ nameserver: a -> b",
	} {
		if !strings.Contains(out, frag) {
			t.Fatalf("rendering misses %q:\n%s", frag, out)
		}
	}
}

func TestDiffAfterRemapIsStable(t *testing.T) {
	// Two independent map+plan passes over the unchanged ENS-Lyon
	// platform must produce an empty diff: the pipeline is deterministic
	// end to end, so re-mapping an unchanged platform never churns the
	// deployment.
	_, _, p1, _ := planEnsLyon(t)
	_, _, p2, _ := planEnsLyon(t)
	p1.Label, p2.Label = "", ""
	d := DiffPlans(p1, p2)
	if !d.Empty() {
		t.Fatalf("re-planning an unchanged platform changed the deployment:\n%s", d)
	}
	_ = time.Second
}

// TestApplyDeltaGrowth: a running deployment transitions to a grown
// plan by restarting only affected hosts; untouched cliques keep their
// agents.
func TestApplyDeltaGrowth(t *testing.T) {
	// Plan A monitors only the public side; plan B adds the private
	// networks. Build both from the same merged mapping.
	_, net, merged, resolve := mapEnsLyon(t)
	full, err := NewPlan(merged, PlanConfig{Master: "the-doors.ens-lyon.fr"})
	if err != nil {
		t.Fatal(err)
	}
	// Carve the initial plan: drop the sci clique and its hosts.
	initial := *full
	initial.Cliques = nil
	for _, c := range full.Cliques {
		if !strings.Contains(c.Name, "sci") {
			initial.Cliques = append(initial.Cliques, c)
		}
	}
	initial.Hosts = nil
	for _, h := range full.Hosts {
		if !strings.HasPrefix(h, "sci") || strings.HasPrefix(h, "sci.") {
			initial.Hosts = append(initial.Hosts, h)
		}
	}

	tr := proto.NewSimTransport(net)
	prober := sensor.SimProber{Net: net}
	opts := ApplyOptions{TokenGap: time.Second}
	dep := applyTorn(t, tr, prober, &initial, resolve, opts)
	sim := net.Sim()
	base := sim.Now()
	if err := sim.RunUntil(base + time.Minute); err != nil {
		t.Fatal(err)
	}
	// Remember the untouched myri agent to prove it survives the update.
	myriAgent := dep.Agents["myri1.popc.private"]
	if myriAgent == nil {
		t.Fatal("initial deployment missing myri agent")
	}
	before := len(dep.Agents)

	var rep *DeltaReport
	var deltaErr error
	sim.Go("delta", func() {
		rep, deltaErr = dep.ApplyDelta(context.Background(), full, resolve)
	})
	if err := sim.RunUntil(sim.Now() + time.Second); err != nil {
		t.Fatal(err)
	}
	if deltaErr != nil {
		t.Fatal(deltaErr)
	}
	if rep.Diff.Empty() {
		t.Fatal("expected a non-empty diff")
	}
	if len(rep.Diff.HostsAdded) == 0 || len(rep.Diff.CliquesAdded) == 0 {
		t.Fatalf("diff %s", rep.Diff)
	}
	if len(rep.Started) == 0 {
		t.Fatalf("delta report %s", rep)
	}
	if rep.Redeployed() >= len(full.Hosts) {
		t.Fatalf("redeployed %d of %d components: not incremental", rep.Redeployed(), len(full.Hosts))
	}
	if dep.Agents["myri1.popc.private"] != myriAgent {
		t.Fatal("unchanged host was restarted")
	}
	if len(dep.Agents) <= before {
		t.Fatalf("agents %d after delta, was %d", len(dep.Agents), before)
	}
	// The sci clique starts measuring after the transition.
	if err := sim.RunUntil(base + 4*time.Minute); err != nil {
		t.Fatal(err)
	}
	seen := false
	for _, rec := range net.Records() {
		if rec.Tag != "" && rec.Src == "sci1" && rec.End > base+time.Minute {
			seen = true
			break
		}
	}
	if !seen {
		t.Fatal("added sci clique produced no measurements after ApplyDelta")
	}
}
