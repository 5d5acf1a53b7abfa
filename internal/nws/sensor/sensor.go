// Package sensor implements NWS sensors: the processes that conduct the
// actual measurements (§2.2). Link sensors time a small round trip
// (latency), a bulk transfer (bandwidth), and a TCP handshake (connect
// time).
package sensor

import (
	"fmt"
	"time"
)

// Prober abstracts the network experiments a sensor can run, decoupling
// the NWS logic from the simulated (or real) network underneath. Each
// platform's env.Substrate implements it.
type Prober interface {
	// Latency measures a small-message round-trip time.
	Latency(from, to string, bytes int64) (time.Duration, error)
	// Bandwidth measures achieved throughput for a bulk transfer of the
	// given size, in bits/s. The tag marks the flow for collision
	// accounting.
	Bandwidth(from, to string, bytes int64, tag string) (float64, error)
	// ConnectTime measures a TCP connection establishment.
	ConnectTime(from, to string) (time.Duration, error)
}

// Experiment sizes from §2.2.
const (
	// LatencyProbeBytes: "a 4 byte TCP socket transfer is timed".
	LatencyProbeBytes = 4
	// BandwidthProbeBytes: "64 Kb messages are sent and timed".
	BandwidthProbeBytes = 64 * 1024
)

// Series name helpers. NWS names series after the experiment and the
// measured (directed) host pair.
func LatencySeries(from, to string) string   { return "latency." + from + "." + to }
func BandwidthSeries(from, to string) string { return "bandwidth." + from + "." + to }
func ConnectSeries(from, to string) string   { return "connectTime." + from + "." + to }

// Measurement is one experiment result.
type Measurement struct {
	Series string
	At     time.Duration
	Value  float64 // ms for latencies, Mbps for bandwidth
}

// Link is one directed host pair a sensor measures, with the names of
// its three series, built once for a link probed again and again.
type Link struct {
	From, To                    string
	latency, bandwidth, connect string
}

// NewLink names the series of the link from `from` to `to`.
func NewLink(from, to string) Link {
	return Link{From: from, To: to,
		latency: LatencySeries(from, to), bandwidth: BandwidthSeries(from, to), connect: ConnectSeries(from, to)}
}

// LinkExperiments runs the full §2.2 experiment set over l and returns
// the three measurements. Latencies are reported in milliseconds and
// bandwidth in Mbps (the units NWS reports).
func LinkExperiments(p Prober, now func() time.Duration, l *Link, tag string) ([]Measurement, error) {
	from, to := l.From, l.To
	rtt, err := p.Latency(from, to, LatencyProbeBytes)
	if err != nil {
		return nil, fmt.Errorf("sensor: latency %s->%s: %w", from, to, err)
	}
	out := make([]Measurement, 0, 3)
	out = append(out, Measurement{Series: l.latency, At: now(), Value: float64(rtt.Microseconds()) / 1000})

	bps, err := p.Bandwidth(from, to, BandwidthProbeBytes, tag)
	if err != nil {
		return nil, fmt.Errorf("sensor: bandwidth %s->%s: %w", from, to, err)
	}
	out = append(out, Measurement{Series: l.bandwidth, At: now(), Value: bps / 1e6})

	ct, err := p.ConnectTime(from, to)
	if err != nil {
		return nil, fmt.Errorf("sensor: connect %s->%s: %w", from, to, err)
	}
	out = append(out, Measurement{Series: l.connect, At: now(), Value: float64(ct.Microseconds()) / 1000})
	return out, nil
}
