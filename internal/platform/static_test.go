package platform

import (
	"context"
	"testing"

	"nwsenv/internal/env"
)

// mapStatic runs one ENV mapping over a static substrate.
func mapStatic(t *testing.T, sub *StaticSubstrate, master string, hosts []string) *env.Result {
	t.Helper()
	res, err := env.NewMapperOn(sub, env.Config{Master: master, Hosts: hosts}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestStaticSubstrateSwitched: the default static segment produces the
// contention signature of a switched network — pairwise probes through
// the master's uplink read dependent (one cluster), disjoint jam flows
// keep full rate (switched classification).
func TestStaticSubstrateSwitched(t *testing.T) {
	hosts := []string{"a", "b", "c", "d"}
	res := mapStatic(t, NewStaticSubstrate(hosts), "a", hosts)
	if len(res.Networks) != 1 {
		t.Fatalf("networks %d, want one cluster", len(res.Networks))
	}
	nw := res.Networks[0]
	if nw.Class != env.Switched {
		t.Fatalf("class %s, want switched", nw.Class)
	}
	if len(nw.HostIDs) != 4 {
		t.Fatalf("members %v", nw.HostIDs)
	}
	if nw.GatewayHop != "lan-gw" {
		t.Fatalf("gateway hop %q", nw.GatewayHop)
	}
}

// TestStaticSubstrateShared: declaring the segment shared halves every
// concurrent pair, so the mapper classifies it shared and keeps the
// cluster together (jammed ratio 0.5 < 0.7; pairwise ratio 2 ≥ 1.25).
func TestStaticSubstrateShared(t *testing.T) {
	hosts := []string{"a", "b", "c"}
	sub := NewStaticSubstrate(hosts)
	sub.Shared = true
	res := mapStatic(t, sub, "a", hosts)
	if len(res.Networks) != 1 {
		t.Fatalf("networks %d", len(res.Networks))
	}
	if res.Networks[0].Class != env.Shared {
		t.Fatalf("class %s, want shared", res.Networks[0].Class)
	}
}

// TestStaticSubstrateUnknownHost: every probe, the mapper's and the
// sensors', errors on an undeclared host instead of fabricating data.
func TestStaticSubstrateUnknownHost(t *testing.T) {
	sub := NewStaticSubstrate([]string{"a", "b"})
	for name, probe := range map[string]func() error{
		"latency":    func() error { _, err := sub.Latency("a", "ghost", 4); return err },
		"bandwidth":  func() error { _, err := sub.Bandwidth("a", "ghost", 1<<20, "t"); return err },
		"connect":    func() error { _, err := sub.ConnectTime("ghost", "b"); return err },
		"traceroute": func() error { _, err := sub.Traceroute("ghost", sub.ExternalTarget()); return err },
	} {
		if probe() == nil {
			t.Errorf("%s involving an unknown host must error", name)
		}
	}
}

// TestTCPPlatformNames: a loopback platform knows its nodes by ID only —
// the substrate's view of a host carries an address but no DNS name,
// so core's pipeline falls back to the ID.
func TestTCPPlatformNames(t *testing.T) {
	plat := NewTCPPlatform([]string{"n1", "n2"})
	info, ok := plat.Substrate().HostInfo("n2")
	if !ok || info.IP == "" || info.DNS != "" {
		t.Fatalf("substrate host info %+v ok=%v", info, ok)
	}
}
