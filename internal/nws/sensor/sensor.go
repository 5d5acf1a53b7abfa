// Package sensor implements NWS sensors: the processes that conduct the
// actual measurements (§2.2). Link sensors time a small round trip
// (latency), a bulk transfer (bandwidth), and a TCP handshake (connect
// time); host sensors sample local resources (CPU load, free memory)
// from configurable synthetic traces.
package sensor

import (
	"fmt"
	"time"

	"nwsenv/internal/nws/memory"
	"nwsenv/internal/nws/nameserver"
	"nwsenv/internal/nws/proto"
	"nwsenv/internal/simnet"
)

// Prober abstracts the network experiments a sensor can run, decoupling
// the NWS logic from the simulated (or real) network underneath.
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

// SimProber runs probes on a simulated network.
type SimProber struct{ Net *simnet.Network }

// Latency implements Prober.
func (p SimProber) Latency(from, to string, bytes int64) (time.Duration, error) {
	return p.Net.Ping(from, to, bytes)
}

// Bandwidth implements Prober.
func (p SimProber) Bandwidth(from, to string, bytes int64, tag string) (float64, error) {
	st, err := p.Net.Transfer(from, to, bytes, tag)
	if err != nil {
		return 0, err
	}
	return st.AvgBps, nil
}

// ConnectTime implements Prober.
func (p SimProber) ConnectTime(from, to string) (time.Duration, error) {
	return p.Net.ConnectTime(from, to)
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

// LinkExperiments runs the full §2.2 experiment set from `from` to `to`
// and returns the three measurements. Latencies are reported in
// milliseconds and bandwidth in Mbps (the units NWS reports).
func LinkExperiments(p Prober, now func() time.Duration, from, to, tag string) ([]Measurement, error) {
	rtt, err := p.Latency(from, to, LatencyProbeBytes)
	if err != nil {
		return nil, fmt.Errorf("sensor: latency %s->%s: %w", from, to, err)
	}
	out := []Measurement{{Series: LatencySeries(from, to), At: now(), Value: float64(rtt.Microseconds()) / 1000}}

	bps, err := p.Bandwidth(from, to, BandwidthProbeBytes, tag)
	if err != nil {
		return nil, fmt.Errorf("sensor: bandwidth %s->%s: %w", from, to, err)
	}
	out = append(out, Measurement{Series: BandwidthSeries(from, to), At: now(), Value: bps / 1e6})

	ct, err := p.ConnectTime(from, to)
	if err != nil {
		return nil, fmt.Errorf("sensor: connect %s->%s: %w", from, to, err)
	}
	out = append(out, Measurement{Series: ConnectSeries(from, to), At: now(), Value: float64(ct.Microseconds()) / 1000})
	return out, nil
}

// HostTrace produces synthetic local-resource readings for a host at a
// virtual time; used to emulate CPU availability and free memory.
type HostTrace func(host string, at time.Duration) map[string]float64

// DefaultHostTrace yields a deterministic diurnal-ish CPU availability
// pattern plus stable free memory, varying by host name hash so hosts
// differ.
func DefaultHostTrace(host string, at time.Duration) map[string]float64 {
	var h uint32
	for _, c := range host {
		h = h*31 + uint32(c)
	}
	phase := float64(h%100) / 100
	tsec := at.Seconds()
	cpu := 0.55 + 0.35*wave(tsec/600+phase) // availability fraction
	mem := 256 + 128*wave(tsec/1800+phase*2)
	return map[string]float64{"cpu": cpu, "freeMemory": mem}
}

// wave is a cheap smooth periodic function in [-1, 1] mapped to [0,1].
func wave(x float64) float64 {
	x = x - float64(int64(x)) // frac
	if x < 0 {
		x++
	}
	// triangle wave
	if x < 0.5 {
		return x * 2
	}
	return 2 - x*2
}

// HostSensor periodically samples host metrics and stores them in a
// memory server (the steady-state ∆ traffic of §2.1).
type HostSensor struct {
	St      proto.Port
	NS      *nameserver.Client
	MemHost string
	Period  time.Duration
	Trace   HostTrace
	// Rounds bounds the number of sampling rounds (0 = run forever).
	Rounds int
}

// Run registers the sensor and samples until the station closes or the
// round budget is exhausted.
func (h *HostSensor) Run() {
	host := h.St.Host()
	if h.NS != nil {
		h.NS.Register(proto.Registration{Name: "sensor." + host, Kind: "sensor", Host: host})
	}
	trace := h.Trace
	if trace == nil {
		trace = DefaultHostTrace
	}
	mc := memory.NewClient(h.St, h.MemHost)
	for round := 0; h.Rounds == 0 || round < h.Rounds; round++ {
		h.St.Runtime().Sleep(h.Period)
		now := h.St.Runtime().Now()
		vals := trace(host, now)
		for _, key := range []string{"cpu", "freeMemory"} {
			v, ok := vals[key]
			if !ok {
				continue
			}
			series := key + "." + host
			if err := mc.Store(series, proto.Sample{At: now, Value: v}); err != nil {
				return // memory gone: stop quietly like a real sensor would retry/die
			}
		}
	}
}
