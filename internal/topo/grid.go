package topo

import (
	"fmt"
	"math/rand"
	"time"

	"nwsenv/internal/simnet"
)

// GridConfig parameterizes SyntheticGrid. The zero value of any field
// takes the documented default, so small literals like
// {Sites: 10, SwitchesPerSite: 10, HostsPerSwitch: 10} work.
type GridConfig struct {
	// Sites is the number of WAN-separated sites (default 2).
	Sites int
	// SwitchesPerSite is the number of leaf layer-2 segments per site
	// (default 2).
	SwitchesPerSite int
	// HostsPerSwitch is the number of hosts per leaf segment (default 4).
	HostsPerSwitch int
	// HubFraction is the fraction of leaf segments built as half-duplex
	// hub collision domains instead of switches (default 0; seeded).
	HubFraction float64
	// WANLatency is the base one-way latency of a site's backbone link;
	// per-site latencies are jittered ±50% around it deterministically
	// (default 5ms).
	WANLatency time.Duration
	// WANMbps, UplinkMbps and LANMbps are link capacities for the
	// backbone, the segment uplinks and the host links (defaults 1000,
	// 1000, 100).
	WANMbps, UplinkMbps, LANMbps float64
	// VLANsPerSite > 1 spreads each site's hosts round-robin over that
	// many VLANs (globally unique ids), exercising inter-VLAN routing
	// through the site router. Default 1: a single untagged VLAN.
	VLANsPerSite int
	// SiteDomains gives every site its own registrable domain
	// ("site<i>.grid"), so ENV's site detection lands each site's
	// hosts in a distinct GridML site and the plan places one memory
	// server per site. Default false: every host shares "grid.net" —
	// one site, the whole memory plane on the master.
	SiteDomains bool
	// Seed drives the deterministic jitter and hub placement.
	Seed int64
}

func (c GridConfig) withDefaults() GridConfig {
	if c.Sites <= 0 {
		c.Sites = 2
	}
	if c.SwitchesPerSite <= 0 {
		c.SwitchesPerSite = 2
	}
	if c.HostsPerSwitch <= 0 {
		c.HostsPerSwitch = 4
	}
	if c.WANLatency <= 0 {
		c.WANLatency = 5 * time.Millisecond
	}
	if c.WANMbps <= 0 {
		c.WANMbps = 1000
	}
	if c.UplinkMbps <= 0 {
		c.UplinkMbps = 1000
	}
	if c.LANMbps <= 0 {
		c.LANMbps = 100
	}
	if c.VLANsPerSite <= 0 {
		c.VLANsPerSite = 1
	}
	return c
}

// Hosts returns the total host count the config generates (excluding
// the external traceroute target).
func (c GridConfig) Hosts() int {
	c = c.withDefaults()
	return c.Sites * c.SwitchesPerSite * c.HostsPerSwitch
}

// SyntheticGrid generates a multi-site grid platform: a WAN backbone
// router, one router per site behind a jittered-latency backbone link,
// and per site a set of leaf layer-2 segments (switches, or hubs for a
// seeded HubFraction of them) each holding HostsPerSwitch hosts. It is
// the scenario generator for thousand-host benchmarks, reconciler runs
// and scenario-lab runs beyond the paper's few-dozen-machine testbed.
// Deterministic for a given config. Returns the topology and the
// ground-truth segment memberships (segment id → hosts, shared flag).
//
// Host ids are "h<site>-<switch>-<k>"; segment ids "s<site>-<switch>";
// site routers "site<i>". An external host "world" behind "r-out" is
// the ENV traceroute target.
func SyntheticGrid(cfg GridConfig) (*simnet.Topology, map[string]NetworkTruth) {
	c := cfg.withDefaults()
	rng := rand.New(rand.NewSource(c.Seed))
	t := simnet.NewTopology()
	t.AddRouter("core", "10.255.255.254", "core.grid.net")
	t.AddRouter("r-out", "193.51.1.254", "r-out.grid.net")
	t.AddHost("world", "193.51.1.1", "world.example.net", "example.net")
	t.Connect("core", "r-out")
	t.Connect("r-out", "world")

	truth := map[string]NetworkTruth{}
	for s := 0; s < c.Sites; s++ {
		siteID := fmt.Sprintf("site%d", s)
		domain := fmt.Sprintf("site%d.grid.net", s)
		hostSuffix := ".grid.net"
		if c.SiteDomains {
			// The registrable suffix (last two DNS labels) is what ENV's
			// site detection keys on, so the per-site domain must BE the
			// suffix: h0-0-1.site0.grid lands in site0.grid.
			domain = fmt.Sprintf("site%d.grid", s)
			hostSuffix = "." + domain
		}
		t.AddRouter(siteID, fmt.Sprintf("10.%d.255.254", s), siteID+".grid.net")
		jitter := 0.5 + rng.Float64()
		wanLat := time.Duration(float64(c.WANLatency) * jitter)
		t.Connect(siteID, "core",
			simnet.LinkBW(c.WANMbps*simnet.Mbps), simnet.LinkLatency(wanLat))
		for w := 0; w < c.SwitchesPerSite; w++ {
			segID := fmt.Sprintf("s%d-%d", s, w)
			shared := rng.Float64() < c.HubFraction
			if shared {
				t.AddHub(segID, c.LANMbps*simnet.Mbps)
			} else {
				t.AddSwitch(segID)
			}
			t.Connect(segID, siteID, simnet.LinkBW(c.UplinkMbps*simnet.Mbps))
			var hosts []string
			for k := 0; k < c.HostsPerSwitch; k++ {
				id := fmt.Sprintf("h%d-%d-%d", s, w, k)
				var opts []simnet.NodeOption
				if c.VLANsPerSite > 1 {
					opts = append(opts, simnet.WithVLAN(s*c.VLANsPerSite+k%c.VLANsPerSite+1))
				}
				t.AddHost(id, fmt.Sprintf("10.%d.%d.%d", s, w, k+1), id+hostSuffix, domain, opts...)
				t.Connect(id, segID, simnet.LinkBW(c.LANMbps*simnet.Mbps))
				hosts = append(hosts, id)
			}
			truth[segID] = NetworkTruth{Hosts: hosts, Shared: shared}
		}
	}
	t.ExternalTarget = "world"
	return t, truth
}
