package deploy

import (
	"reflect"
	"strings"
	"testing"
)

// TestPlanGatewayReplicaPlacement: GatewayReplicas=N plans N gateway
// hosts — the primary on the master, the extras solved by the same
// foreign-switch placement memory replicas use, so no extra shares a
// network with the master while the topology allows it.
func TestPlanGatewayReplicaPlacement(t *testing.T) {
	_, _, merged, resolve := mapEnsLyon(t)
	master := "the-doors.ens-lyon.fr"
	p, err := NewPlan(merged, PlanConfig{Master: master, GatewayReplicas: 3})
	if err != nil {
		t.Fatal(err)
	}

	gws := p.Gateways
	if len(gws) != 3 {
		t.Fatalf("Gateways = %v, want 3 replicas", gws)
	}
	if gws[0] != master {
		t.Fatalf("primary gateway %q, want the master %q", gws[0], master)
	}
	seen := map[string]bool{}
	for _, g := range gws {
		if seen[g] {
			t.Fatalf("duplicate gateway host %q in %v", g, gws)
		}
		seen[g] = true
		if !contains(p.Hosts, g) {
			t.Fatalf("gateway %q is not a planned host", g)
		}
	}

	// Foreign-switch placement: the ENV networks are the switch groups,
	// and EnsLyon has enough of them that no extra replica needs to share
	// one with the master.
	canon := func(name string) string {
		if mm := merged.Doc.FindMachine(name); mm != nil {
			return mm.CanonicalName()
		}
		return name
	}
	masterNets := map[string]bool{}
	for _, nw := range merged.Networks {
		for _, h := range nw.Hosts {
			if canon(h) == master {
				masterNets[nw.Label] = true
			}
		}
	}
	for _, g := range gws[1:] {
		for _, nw := range merged.Networks {
			if !masterNets[nw.Label] {
				continue
			}
			for _, h := range nw.Hosts {
				if canon(h) == g {
					t.Errorf("replica %q shares network %q with the master", g, nw.Label)
				}
			}
		}
	}

	// Every replica host gets the Gateway role — and only the replicas.
	roles, err := planRoles(p, resolve, ApplyOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, r := range roles {
		if want := contains(gws, name); r.Gateway != want {
			t.Errorf("host %s: Gateway role %v, want %v", name, r.Gateway, want)
		}
	}

	// The replicated plan survives the config round-trip unchanged, and
	// the document names its gateways under the one key.
	data, err := EncodeConfig(p)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), `"gateway":`) {
		t.Fatalf("encoded config still writes the singleton key:\n%s", data)
	}
	rt, err := DecodeConfig(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rt, p) {
		t.Fatalf("round-trip changed the plan:\n got %+v\nwant %+v", rt, p)
	}
}

// TestDecodeConfigLegacyGateway: a document written before gateway
// replication names one gateway under "gateway"; it decodes to the
// one-element replica set, and re-encoding it writes only "gateways".
func TestDecodeConfigLegacyGateway(t *testing.T) {
	legacy, err := DecodeConfig([]byte(`{"label":"old","master":"m","gateway":"a","hosts":["a","m"],"memoryOf":{}}`))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(legacy.Gateways, []string{"a"}) {
		t.Fatalf("legacy plan Gateways = %v, want [a]", legacy.Gateways)
	}
	data, err := EncodeConfig(legacy)
	if err != nil {
		t.Fatal(err)
	}
	if s := string(data); strings.Contains(s, `"gateway":`) || !strings.Contains(s, `"gateways":`) {
		t.Fatalf("upgraded config keys:\n%s", s)
	}
	// A document carrying both keys is a replicated one: the set wins.
	both, err := DecodeConfig([]byte(`{"gateway":"a","gateways":["a","b"]}`))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(both.Gateways, []string{"a", "b"}) {
		t.Fatalf("Gateways = %v, want [a b]", both.Gateways)
	}
}

// TestDiffPlansGatewayReplicaSet: growing the replica set and losing a
// replica both surface as a single gateways move listing the full old
// and new sets, so ApplyDelta rebuilds exactly the affected hosts.
func TestDiffPlansGatewayReplicaSet(t *testing.T) {
	_, _, merged, _ := mapEnsLyon(t)
	master := "the-doors.ens-lyon.fr"
	single, err := NewPlan(merged, PlanConfig{Master: master})
	if err != nil {
		t.Fatal(err)
	}
	replicated, err := NewPlan(merged, PlanConfig{Master: master, GatewayReplicas: 3})
	if err != nil {
		t.Fatal(err)
	}

	d := DiffPlans(single, replicated)
	var move string
	for _, m := range d.ServerMoves {
		if strings.HasPrefix(m, "gateways: ") {
			move = m
		}
	}
	want := "gateways: [" + master + "] -> [" + strings.Join(replicated.Gateways, ",") + "]"
	if move != want {
		t.Fatalf("gateway move %q, want %q", move, want)
	}
	if !DiffPlans(replicated, replicated).Empty() {
		t.Fatal("identical replicated plans must diff empty")
	}
}
