package env_test

import (
	"testing"

	. "nwsenv/internal/env"
	"nwsenv/internal/gridml"
	"nwsenv/internal/simnet"
	"nwsenv/internal/topo"
	"nwsenv/internal/vclock"
)

// TestMergeAllThreeRuns folds three mapping runs — the two firewall
// sides plus a redundant run over the sci cluster from sci0's viewpoint
// — into one view, exercising the ≥3-results fold that used to live
// untested in core's default: branch. The redundant run must fuse into
// the existing sci network, not duplicate it.
func TestMergeAllThreeRuns(t *testing.T) {
	e := topo.NewEnsLyon()
	sim := vclock.New()
	net := simnet.NewNetwork(sim, e.Topo)

	sciHosts := []string{"sci0", "sci1", "sci2", "sci3", "sci4", "sci5", "sci6"}
	sciNames := map[string]string{}
	for _, h := range sciHosts {
		sciNames[h] = e.InsideNames[h]
	}
	runs := []Config{
		{Master: e.OutsideMaster, Hosts: e.OutsideHosts, Names: e.OutsideNames},
		{Master: e.InsideMaster, Hosts: e.InsideHosts, Names: e.InsideNames},
		{Master: "sci0", Hosts: sciHosts, Names: sciNames},
	}
	var results []*Result
	for _, cfg := range runs {
		results = append(results, runMapper(t, net, cfg))
	}

	two, err := MergeAll("Grid1", results[:2], e.GatewayAliases)
	if err != nil {
		t.Fatal(err)
	}
	three, err := MergeAll("Grid1", results, e.GatewayAliases)
	if err != nil {
		t.Fatal(err)
	}

	// The third run is redundant: same canonical machine set (the raw
	// entry counts differ — re-merging folds the cross-aliased gateway
	// duplicates a single merge keeps), same network count.
	canonSet := func(m *Merged) map[string]bool {
		set := map[string]bool{}
		for _, name := range m.Doc.MachineNames() {
			set[m.Doc.FindMachine(name).CanonicalName()] = true
		}
		return set
	}
	twoSet, threeSet := canonSet(two), canonSet(three)
	if len(threeSet) != len(twoSet) {
		t.Fatalf("3-run fold has %d canonical machines, 2-run merge %d", len(threeSet), len(twoSet))
	}
	for name := range twoSet {
		if !threeSet[name] {
			t.Fatalf("machine %s lost in 3-run fold", name)
		}
	}
	// And the fold leaves no duplicate machine entries behind.
	names := three.Doc.MachineNames()
	if len(names) != len(threeSet) {
		t.Fatalf("3-run fold doc has %d machine entries for %d canonical machines", len(names), len(threeSet))
	}
	if got, want := len(three.Networks), len(two.Networks); got != want {
		t.Fatalf("3-run fold has %d networks, 2-run merge %d", got, want)
	}
	sciNets := 0
	for _, nw := range three.Networks {
		for _, h := range nw.Hosts {
			if h == "sci3.popc.private" {
				sciNets++
				break
			}
		}
	}
	if sciNets != 1 {
		t.Fatalf("sci cluster appears in %d networks after the fold", sciNets)
	}

	// Probe accounting accumulates across all three runs.
	wantProbes := results[0].Stats.Probes + results[1].Stats.Probes + results[2].Stats.Probes
	if three.Stats.Probes != wantProbes {
		t.Fatalf("folded probe count %d, want %d", three.Stats.Probes, wantProbes)
	}
}

// TestGuessAliasesAcrossLaterRuns: a dual-homed gateway appearing only
// in the second and third runs (same IP, different names) is still
// aliased — every run is matched against all earlier ones, not just the
// first.
func TestGuessAliasesAcrossLaterRuns(t *testing.T) {
	mk := func(site string, machines ...[2]string) *Result {
		doc := &gridml.Document{}
		s := doc.SiteFor(site)
		for _, m := range machines {
			s.Machines = append(s.Machines, &gridml.Machine{
				Label: &gridml.Label{Name: m[0], IP: m[1]},
			})
		}
		return &Result{Doc: doc}
	}
	r1 := mk("one.org", [2]string{"a.one.org", "10.0.0.1"})
	r2 := mk("two.org", [2]string{"gw.two.org", "10.9.9.9"}, [2]string{"b.two.org", "10.0.0.2"})
	r3 := mk("three.net", [2]string{"gw0.three.net", "10.9.9.9"}, [2]string{"c.three.net", "10.0.0.3"})

	aliases := GuessAliases([]*Result{r1, r2, r3})
	if len(aliases) != 1 {
		t.Fatalf("aliases %+v", aliases)
	}
	if aliases[0].Outside != "gw.two.org" || aliases[0].Inside != "gw0.three.net" {
		t.Fatalf("alias %+v", aliases[0])
	}

	// And MergeAll applies such an alias only at the step whose
	// documents know both names, instead of failing the first merge.
	m, err := MergeAll("G", []*Result{r1, r2, r3}, aliases)
	if err != nil {
		t.Fatal(err)
	}
	gw := m.Doc.FindMachine("gw0.three.net")
	if gw == nil || gw.CanonicalName() != "gw.two.org" {
		t.Fatalf("gateway not folded across later runs: %+v", gw)
	}
}

// TestMergeAllDegenerate: zero results error, one result wraps as
// Single.
func TestMergeAllDegenerate(t *testing.T) {
	if _, err := MergeAll("Grid1", nil, nil); err == nil {
		t.Fatal("MergeAll with no results must error")
	}
	_, res := ensOutside(t)
	m, err := MergeAll("Grid1", []*Result{res}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Networks) != len(res.Networks) {
		t.Fatalf("single-run MergeAll networks %d, want %d", len(m.Networks), len(res.Networks))
	}
}
