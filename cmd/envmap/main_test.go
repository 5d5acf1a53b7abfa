package main

import (
	"testing"

	"nwsenv/internal/env"
	"nwsenv/internal/gridml"
	"nwsenv/internal/topo"
)

func TestSpecRunsMasterFirst(t *testing.T) {
	spec := &topo.Spec{
		Masters: []string{"m"},
		NamesOf: map[string]map[string]string{
			"m": {"c": "c.x.org", "a": "a.x.org", "m": "m.x.org", "b": "b.x.org"},
		},
	}
	runs := spec.Runs(nil)
	if len(runs) != 1 {
		t.Fatalf("runs %d", len(runs))
	}
	want := []string{"m", "a", "b", "c"}
	for i := range want {
		if runs[0].Hosts[i] != want[i] {
			t.Fatalf("got %v, want %v", runs[0].Hosts, want)
		}
	}
}

func TestPickHostsExcludesExternal(t *testing.T) {
	e := topo.NewEnsLyon()
	hosts := pickHosts(e.Topo, "")
	for _, h := range hosts {
		if h == "world" {
			t.Fatal("external target leaked into host list")
		}
	}
	if len(hosts) != 14 {
		t.Fatalf("hosts %d, want 14", len(hosts))
	}
	csv := pickHosts(e.Topo, "a,b,c")
	if len(csv) != 3 || csv[0] != "a" {
		t.Fatalf("csv hosts %v", csv)
	}
}

func TestGuessAliasesByIP(t *testing.T) {
	outside := &env.Result{Doc: &gridml.Document{}}
	so := outside.Doc.SiteFor("pub.org")
	so.Machines = append(so.Machines, &gridml.Machine{
		Label: &gridml.Label{IP: "1.2.3.4", Name: "gw.pub.org"},
	}, &gridml.Machine{
		Label: &gridml.Label{IP: "1.2.3.5", Name: "host.pub.org"},
	})
	inside := &env.Result{Doc: &gridml.Document{}}
	si := inside.Doc.SiteFor("priv.net")
	si.Machines = append(si.Machines, &gridml.Machine{
		Label: &gridml.Label{IP: "1.2.3.4", Name: "gw0.priv.net"},
	}, &gridml.Machine{
		Label: &gridml.Label{IP: "10.0.0.1", Name: "inner.priv.net"},
	})
	aliases := env.GuessAliases([]*env.Result{outside, inside})
	if len(aliases) != 1 {
		t.Fatalf("aliases %+v", aliases)
	}
	if aliases[0].Outside != "gw.pub.org" || aliases[0].Inside != "gw0.priv.net" {
		t.Fatalf("alias %+v", aliases[0])
	}
}
