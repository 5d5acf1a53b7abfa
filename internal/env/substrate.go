package env

import (
	"fmt"
	"time"

	"nwsenv/internal/simnet"
	"nwsenv/internal/vclock"
)

// HostInfo is what a mapping substrate knows about a host before any
// measurement: the inputs of the §4.2.1 lookup and extra-information
// phases.
type HostInfo struct {
	// IP is the host's address (used for site grouping of nameless
	// machines, §4.3).
	IP string
	// DNS is the fully-qualified name ("" when resolution fails).
	DNS string
	// Props carries host attributes (CPU, OS, ...).
	Props map[string]string
}

// Substrate abstracts the measurable platform: the user-level
// observables the mapper consumes (traceroute, timed transfers,
// concurrent transfers) and the §2.2 experiments the NWS sensors run
// (small round trip, bulk transfer, TCP connect; it satisfies
// sensor.Prober), without naming a concrete network. The simulator
// implements it over virtual time; real deployments implement it over
// real probes (or a static description when the platform is already
// known, as on a loopback testbed).
type Substrate interface {
	// Now is the substrate's clock, for mapping-cost accounting.
	Now() time.Duration
	// Traceroute reports the layer-3 hop identifiers from src to dst,
	// excluding the endpoints, in path order.
	Traceroute(src, dst string) ([]string, error)
	// Latency times a small-message round trip.
	Latency(src, dst string, bytes int64) (time.Duration, error)
	// Bandwidth times a bulk transfer and returns the achieved
	// bandwidth in bits/s. The tag marks the flow for traffic
	// accounting.
	Bandwidth(src, dst string, bytes int64, tag string) (float64, error)
	// ConnectTime times a TCP connection establishment.
	ConnectTime(src, dst string) (time.Duration, error)
	// ProbeBWWhile measures probeSrc→probeDst while a larger
	// jamSrc→jamDst transfer is in flight, returning the jammed
	// bandwidth in bits/s.
	ProbeBWWhile(probeSrc, probeDst string, probeBytes int64, jamSrc, jamDst string, jamBytes int64, tag string) (float64, error)
	// HostInfo describes a host by node ID; ok=false for unknown nodes.
	HostInfo(id string) (HostInfo, bool)
	// ExternalTarget is the default well-known traceroute destination.
	ExternalTarget() string
}

// SimSubstrate adapts a simulated network to the Substrate interface.
// Its methods must be called from a simulation process.
type SimSubstrate struct{ Net *simnet.Network }

// Now implements Substrate on the virtual clock.
func (s SimSubstrate) Now() time.Duration { return s.Net.Sim().Now() }

// Traceroute implements Substrate.
func (s SimSubstrate) Traceroute(src, dst string) ([]string, error) {
	hops, err := s.Net.Topology().Traceroute(src, dst)
	if err != nil {
		return nil, err
	}
	ids := make([]string, len(hops))
	for i, h := range hops {
		ids[i] = h.Identifier
	}
	return ids, nil
}

// Latency implements Substrate.
func (s SimSubstrate) Latency(src, dst string, bytes int64) (time.Duration, error) {
	return s.Net.Ping(src, dst, bytes)
}

// Bandwidth implements Substrate.
func (s SimSubstrate) Bandwidth(src, dst string, bytes int64, tag string) (float64, error) {
	st, err := s.Net.Transfer(src, dst, bytes, tag)
	if err != nil {
		return 0, err
	}
	return st.AvgBps, nil
}

// ConnectTime implements Substrate.
func (s SimSubstrate) ConnectTime(src, dst string) (time.Duration, error) {
	return s.Net.ConnectTime(src, dst)
}

// ProbeBWWhile implements Substrate: the jamming flow runs in its own
// simulation process and gets past its latency phase before the probe
// starts, so the probe is fully overlapped.
func (s SimSubstrate) ProbeBWWhile(probeSrc, probeDst string, probeBytes int64, jamSrc, jamDst string, jamBytes int64, tag string) (float64, error) {
	sim := s.Net.Sim()
	done := vclock.NewChan[error](sim, "env:jam")
	sim.Go("env:jam", func() {
		_, err := s.Net.Transfer(jamSrc, jamDst, jamBytes, tag)
		done.Send(err)
	})
	lat, _ := s.Net.Latency(jamSrc, jamDst)
	sim.Sleep(lat + lat/2 + 1)

	st, err := s.Net.Transfer(probeSrc, probeDst, probeBytes, tag)
	jamErr, _ := done.Recv()
	if err != nil {
		return 0, fmt.Errorf("env: jammed probe %s->%s: %w", probeSrc, probeDst, err)
	}
	if jamErr != nil {
		return 0, fmt.Errorf("env: jam flow %s->%s: %w", jamSrc, jamDst, jamErr)
	}
	return st.AvgBps, nil
}

// HostInfo implements Substrate.
func (s SimSubstrate) HostInfo(id string) (HostInfo, bool) {
	n := s.Net.Topology().Node(id)
	if n == nil {
		return HostInfo{}, false
	}
	return HostInfo{IP: n.IP, DNS: n.DNS, Props: n.Props}, true
}

// ExternalTarget implements Substrate.
func (s SimSubstrate) ExternalTarget() string { return s.Net.Topology().ExternalTarget }
