package deploy

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"nwsenv/internal/env"
	"nwsenv/internal/nws/proto"
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
		if !slices.Contains(p.Hosts, g) {
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
		if want := slices.Contains(gws, name); r.Gateway != want {
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
// replication names one gateway under "gateway", a key the plan no
// longer has. It fails to decode rather than deploying with no
// gateways, as does any mistyped key or data after the plan.
func TestDecodeConfigLegacyGateway(t *testing.T) {
	for _, doc := range []string{
		`{"label":"old","master":"m","gateway":"a","hosts":["a","m"],"memoryOf":{}}`,
		`{"gateway":"a","gateways":["a","b"]}`,
		`{"label":"x","gatways":["a"]}`,
		`{"label":"x"}{"label":"y"}`,
		`{"label":"x"}}`,
	} {
		if p, err := DecodeConfig([]byte(doc)); err == nil {
			t.Errorf("%s decoded to %+v, want an error", doc, p)
		}
	}
	if _, err := DecodeConfig([]byte(`{"label":"x","gateways":["a"]} ` + "\n")); err != nil {
		t.Errorf("trailing white space refused: %v", err)
	}
}

// TestApplyDeltaGatewayReplicaSet: growing the gateway replica set
// rebuilds exactly the hosts that gain the role, and a second apply of
// the same replicated plan changes nothing.
func TestApplyDeltaGatewayReplicaSet(t *testing.T) {
	_, net, merged, resolve := mapEnsLyon(t)
	master := "the-doors.ens-lyon.fr"
	single, err := NewPlan(merged, PlanConfig{Master: master})
	if err != nil {
		t.Fatal(err)
	}
	replicated, err := NewPlan(merged, PlanConfig{Master: master, GatewayReplicas: 3})
	if err != nil {
		t.Fatal(err)
	}

	tr := proto.NewSimTransport(net)
	dep := applyTorn(t, tr, env.SimSubstrate{Net: net}, single, resolve, ApplyOptions{})
	rep := applyDelta(t, tr, dep, replicated, resolve)
	slices.Sort(rep.Restarted)
	want := slices.Sorted(slices.Values(replicated.Gateways[1:]))
	if !slices.Equal(rep.Restarted, want) || len(rep.Started)+len(rep.Stopped)+len(rep.Renewed) != 0 {
		t.Fatalf("%s, want exactly the new gateway hosts %v rebuilt", rep, want)
	}
	if rep := applyDelta(t, tr, dep, replicated, resolve); rep.Changed() {
		t.Fatalf("identical replicated plans changed agents: %s", rep)
	}
}
