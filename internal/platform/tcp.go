package platform

import (
	"time"

	"nwsenv/internal/env"
	"nwsenv/internal/nws/proto"
	"nwsenv/internal/nws/sensor"
)

// TCPPlatform runs the pipeline over real loopback TCP sockets on the
// wall clock: the RealRuntime for time and goroutines, codec-framed
// messages between per-host listeners, and a prober answering canned
// values (loopback has no interesting bandwidth physics: 100 Mbps,
// 2 ms). Mapping reads from a StaticSubstrate describing the segment,
// so Map→Plan→Apply drives a real-socket deployment end to end without
// a simulator in the process.
type TCPPlatform struct {
	tr     *proto.TCPTransport
	sub    *StaticSubstrate
	prober sensor.Prober
}

// NewTCPPlatform builds a loopback platform for the given host IDs.
func NewTCPPlatform(hosts []string) *TCPPlatform {
	tr := proto.NewTCPTransport()
	p := &TCPPlatform{
		tr:     tr,
		sub:    NewStaticSubstrate(hosts),
		prober: staticProber{bw: 100e6, lat: 2 * time.Millisecond},
	}
	p.sub.Clock = tr.Runtime().Now
	return p
}

// Name implements Platform.
func (p *TCPPlatform) Name() string { return "tcp" }

// Runtime implements Platform (wall clock).
func (p *TCPPlatform) Runtime() proto.Runtime { return p.tr.Runtime() }

// Transport implements Platform.
func (p *TCPPlatform) Transport() proto.Transport { return p.tr }

// Prober implements Platform.
func (p *TCPPlatform) Prober() sensor.Prober { return p.prober }

// Substrate implements Platform.
func (p *TCPPlatform) Substrate() env.Substrate { return p.sub }

// NodeName implements Platform: loopback hosts have no display name, so
// callers fall back to the node ID.
func (p *TCPPlatform) NodeName(id string) string { return "" }

// Alive implements Health: a loopback host is alive while its agent's
// endpoint is open. (Before Apply no endpoint exists, so health checks
// only make sense against a running deployment — exactly when the
// reconcile loop asks.)
func (p *TCPPlatform) Alive(id string) bool { return p.tr.Active(id) }

// ResetAccounting implements Platform (no-op: the kernel owns loopback
// traffic accounting).
func (p *TCPPlatform) ResetAccounting() {}

// staticProber answers the §2.2 experiments with canned values: over
// loopback the control plane is real but the physics are not worth
// measuring.
type staticProber struct {
	bw  float64
	lat time.Duration
}

func (p staticProber) Latency(from, to string, bytes int64) (time.Duration, error) {
	return p.lat, nil
}
func (p staticProber) Bandwidth(from, to string, bytes int64, tag string) (float64, error) {
	return p.bw, nil
}
func (p staticProber) ConnectTime(from, to string) (time.Duration, error) {
	return p.lat + p.lat/2, nil
}
