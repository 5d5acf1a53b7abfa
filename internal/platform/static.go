package platform

import (
	"fmt"
	"time"

	"nwsenv/internal/env"
)

// StaticSubstrate is a declarative env.Substrate: instead of probing a
// network, it answers the mapper's and the sensors' experiments from a
// static description of the platform (one segment, a nominal bandwidth,
// shared or switched). It is the measurement source for deployments
// whose topology is already known — a loopback testbed, a lab LAN —
// where re-measuring it with bulk transfers would be pure waste;
// real-probe substrates plug in behind the same interface.
//
// The canned answers reproduce the contention signatures ENV's
// thresholds detect: concurrent flows sharing a sender uplink or a
// receiver downlink halve (so master→A / master→B pairwise probes read
// as dependent), disjoint flows keep full rate on a switched segment,
// and every flow halves on a shared one.
type StaticSubstrate struct {
	// Hosts describes the platform's machines by node ID.
	Hosts map[string]env.HostInfo
	// Gateway is the single hop between the segment and the outside.
	Gateway string
	// External is the well-known traceroute target.
	External string
	// BandwidthBps is the segment's nominal bandwidth (bits/s).
	BandwidthBps float64
	// Shared declares the segment a single collision domain.
	Shared bool
	// Clock supplies Now (defaults to a zero clock: mapping a static
	// description costs no time).
	Clock func() time.Duration
}

// segmentRTT is the round trip a StaticSubstrate reports between any
// two of its hosts.
const segmentRTT = 2 * time.Millisecond

// NewStaticSubstrate describes a flat segment of the given hosts with
// synthetic addresses, a 100 Mbps switched default, and a "lan-gw"
// gateway hop.
func NewStaticSubstrate(hosts []string) *StaticSubstrate {
	s := &StaticSubstrate{
		Hosts:        map[string]env.HostInfo{},
		Gateway:      "lan-gw",
		External:     "external",
		BandwidthBps: 100e6,
	}
	for i, h := range hosts {
		s.Hosts[h] = env.HostInfo{IP: fmt.Sprintf("10.0.0.%d", i+1)}
	}
	return s
}

// Now implements env.Substrate.
func (s *StaticSubstrate) Now() time.Duration {
	if s.Clock != nil {
		return s.Clock()
	}
	return 0
}

// Traceroute implements env.Substrate: every host escapes through the
// single gateway hop.
func (s *StaticSubstrate) Traceroute(src, dst string) ([]string, error) {
	if _, ok := s.Hosts[src]; !ok {
		return nil, fmt.Errorf("platform: unknown host %q", src)
	}
	return []string{s.Gateway}, nil
}

// Latency implements env.Substrate with the segment's round trip.
func (s *StaticSubstrate) Latency(src, dst string, bytes int64) (time.Duration, error) {
	if err := s.checkPair(src, dst); err != nil {
		return 0, err
	}
	return segmentRTT, nil
}

// Bandwidth implements env.Substrate with the nominal bandwidth.
func (s *StaticSubstrate) Bandwidth(src, dst string, bytes int64, tag string) (float64, error) {
	if err := s.checkPair(src, dst); err != nil {
		return 0, err
	}
	return s.BandwidthBps, nil
}

// ConnectTime implements env.Substrate: a handshake of 1.5 round trips.
func (s *StaticSubstrate) ConnectTime(src, dst string) (time.Duration, error) {
	if err := s.checkPair(src, dst); err != nil {
		return 0, err
	}
	return segmentRTT + segmentRTT/2, nil
}

// ProbeBWWhile implements env.Substrate: on a shared segment any two
// concurrent flows halve each other; on a switched one only flows
// sharing a directed endpoint (same sender uplink or same receiver
// downlink) do.
func (s *StaticSubstrate) ProbeBWWhile(probeSrc, probeDst string, probeBytes int64, jamSrc, jamDst string, jamBytes int64, tag string) (float64, error) {
	if err := s.checkPair(probeSrc, probeDst); err != nil {
		return 0, err
	}
	if err := s.checkPair(jamSrc, jamDst); err != nil {
		return 0, err
	}
	if s.Shared || probeSrc == jamSrc || probeDst == jamDst {
		return s.BandwidthBps / 2, nil
	}
	return s.BandwidthBps, nil
}

// HostInfo implements env.Substrate.
func (s *StaticSubstrate) HostInfo(id string) (env.HostInfo, bool) {
	info, ok := s.Hosts[id]
	return info, ok
}

// ExternalTarget implements env.Substrate.
func (s *StaticSubstrate) ExternalTarget() string { return s.External }

func (s *StaticSubstrate) checkPair(src, dst string) error {
	for _, h := range []string{src, dst} {
		if _, ok := s.Hosts[h]; !ok {
			return fmt.Errorf("platform: unknown host %q", h)
		}
	}
	return nil
}
