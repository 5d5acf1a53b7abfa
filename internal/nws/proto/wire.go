package proto

import (
	"nwsenv/internal/telemetry"
)

// wireStats pre-resolves the codec telemetry instruments once, so the
// hot send/receive paths increment plain atomics instead of hitting the
// registry's keyed map on every message. The zero value (telemetry not
// wired) holds nil counters, which no-op by the registry's own nil
// contract.
type wireStats struct {
	enc      *telemetry.Counter
	bytesOut *telemetry.Counter
	bytesIn  *telemetry.Counter
}

func newWireStats(reg *telemetry.Registry) wireStats {
	return wireStats{
		enc:      reg.Counter("proto", "encode_total", nil),
		bytesOut: reg.Counter("proto", "bytes_out", nil),
		bytesIn:  reg.Counter("proto", "bytes_in", nil),
	}
}

// encoded records one message of n frame bytes put on the wire.
func (w wireStats) encoded(n int64) {
	w.enc.Add(1)
	w.bytesOut.Add(n)
}

// received records n bytes taken off the wire.
func (w wireStats) received(n int64) { w.bytesIn.Add(n) }
