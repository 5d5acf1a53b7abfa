package simnet

import "nwsenv/internal/telemetry"

// SettleCount returns how many individual flow-settle operations the
// fair-share engine has performed — its cost meter (component-scoped
// recomputation exists to keep this sublinear in active flows).
func (n *Network) SettleCount() int64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.settles
}

// RouteCacheStats reports the topology's route-cache hit/miss counters
// under the network lock, so snapshotting them is safe while transfers
// are in flight.
func (n *Network) RouteCacheStats() (hits, misses int64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.topo.RouteCacheStats()
}

// RegisterTelemetry surfaces the network's internal accounting on r as
// pull-based collectors (read at snapshot time under the network lock):
// flow settles, route-cache hits/misses/hit-rate, completed transfers,
// collision events, and probe traffic.
func RegisterTelemetry(r *telemetry.Registry, n *Network) {
	if r == nil || n == nil {
		return
	}
	r.Collect("simnet", "flow_settles", nil, func() float64 {
		return float64(n.SettleCount())
	})
	r.Collect("simnet", "route_cache_hits", nil, func() float64 {
		h, _ := n.RouteCacheStats()
		return float64(h)
	})
	r.Collect("simnet", "route_cache_misses", nil, func() float64 {
		_, m := n.RouteCacheStats()
		return float64(m)
	})
	r.Collect("simnet", "route_cache_hit_rate", nil, func() float64 {
		h, m := n.RouteCacheStats()
		if h+m == 0 {
			return 0
		}
		return float64(h) / float64(h+m)
	})
	r.Collect("simnet", "transfers", nil, func() float64 {
		n.mu.Lock()
		defer n.mu.Unlock()
		return float64(len(n.records))
	})
	r.Collect("simnet", "collision_events", nil, func() float64 {
		total := 0
		n.mu.Lock()
		for _, c := range n.collisions {
			total += c.Count
		}
		n.mu.Unlock()
		return float64(total)
	})
	r.Collect("simnet", "probe_bytes", nil, func() float64 {
		bytes, _ := n.ProbeTraffic()
		return float64(bytes)
	})
	r.Collect("simnet", "probe_count", nil, func() float64 {
		_, count := n.ProbeTraffic()
		return float64(count)
	})
}
