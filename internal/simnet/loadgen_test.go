package simnet

import (
	"math/rand"
	"time"
)

// LoadGen is a deterministic background-traffic generator for tests:
// periodic bulk transfers from Src to Dst, the cross traffic that
// perturbs probe measurements.
type LoadGen struct {
	Src, Dst string
	// Bytes per transfer.
	Bytes int64
	// Period between transfer starts; actual gaps are jittered by up to
	// ±Jitter fraction of the period.
	Period time.Duration
	Jitter float64
	// Seed makes the generator deterministic.
	Seed int64
	// Until stops the generator at that virtual time (0 = forever).
	Until time.Duration
}

// Start launches the generator as a simulation process on net.
func (g LoadGen) Start(net *Network) {
	rng := rand.New(rand.NewSource(g.Seed))
	sim := net.Sim()
	sim.Go("loadgen:"+g.Src+"->"+g.Dst, func() {
		for {
			gap := g.Period
			if g.Jitter > 0 {
				gap = time.Duration(float64(gap) * (1 + g.Jitter*(2*rng.Float64()-1)))
			}
			sim.Sleep(gap)
			if g.Until > 0 && sim.Now() >= g.Until {
				return
			}
			// Background traffic carries no probe tag.
			if _, err := net.Transfer(g.Src, g.Dst, g.Bytes, ""); err != nil {
				return
			}
		}
	})
}
