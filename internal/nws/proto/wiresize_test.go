package proto

import (
	"bytes"
	"encoding/gob"
	"testing"
	"time"

	"nwsenv/internal/telemetry"
)

// TestWireSizeExactForV3 pins the WireSize contract the simulator's
// byte accounting relies on: the charge is the exact framed codec
// length, not an estimate, whatever Version the sender stamped. Drift
// between WireSize and the bytes the TCP transport actually writes would
// make the simulated and real planes disagree on every bandwidth figure.
func TestWireSizeExactForV3(t *testing.T) {
	for i, m := range codecShapes() {
		for _, v := range []int{0, V3} {
			m.Version = v
			want := int64(len(AppendEncode(nil, &m))) + frameHeaderSize
			if got := m.WireSize(); got != want {
				t.Errorf("shape %d at Version %d: WireSize=%d, framed codec length=%d", i, v, got, want)
			}
		}
	}
}

// TestWireSizeEstimateTracksGob keeps gob as a test-only reference: an
// independent encoder that walks the Message struct by reflection, so it
// sees every field whether or not the hand-written codec does. The exact
// charge must stay within a factor of four of gob's marginal cost on a
// primed encoder (gob sends its type descriptors once per stream). What
// this still catches: a heavy Message field added without codec sizing —
// gob's size grows with it, WireSize does not, and the lower bound trips.
func TestWireSizeEstimateTracksGob(t *testing.T) {
	for i, m := range codecShapes() {
		var buf bytes.Buffer
		enc := gob.NewEncoder(&buf)
		if err := enc.Encode(&m); err != nil {
			t.Fatalf("shape %d: gob: %v", i, err)
		}
		primed := buf.Len()
		if err := enc.Encode(&m); err != nil {
			t.Fatalf("shape %d: gob second encode: %v", i, err)
		}
		actual := int64(buf.Len() - primed)
		charge := m.WireSize()
		if charge*4 < actual {
			t.Errorf("shape %d: charge %d under gob size %d by more than 4x", i, charge, actual)
		}
		// The positional codec writes every field, so an almost-empty
		// message still costs a few dozen bytes where gob omits zero
		// fields: the upper bound gets that much slack before the 4x
		// factor bites.
		if charge > actual*4+160 {
			t.Errorf("shape %d: charge %d over gob size %d by more than 4x+160", i, charge, actual)
		}
	}
}

// TestSimBytesEqualSocketBytes is the invariant one wire exists for: a
// message sent host to host costs the same number of bytes on both
// planes. For every protocol shape, the simulator's proto/bytes_out
// delta, Message.WireSize and the TCP transport's proto/bytes_out delta
// are one number (and bytes_in agrees on each side).
func TestSimBytesEqualSocketBytes(t *testing.T) {
	simReg, tcpReg := telemetry.New(nil), telemetry.New(nil)
	sim, simTr := pair(t)
	simTr.SetTelemetry(simReg)
	tcpTr := NewTCPTransport()
	tcpTr.SetTelemetry(tcpReg)

	open := func(tr Transport, host string) (Endpoint, Inbox) {
		ep, err := tr.Open(host)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ep.Close() })
		return ep, tap(tr.Runtime(), ep)
	}
	simA, simAIn := open(simTr, "a")
	_, simBIn := open(simTr, "b")
	tcpA, tcpAIn := open(tcpTr, "a")
	_, tcpBIn := open(tcpTr, "b")
	counters := func(reg *telemetry.Registry) (out, in int64) {
		flat := reg.Snapshot().Flatten()
		return int64(flat["proto/bytes_out"]), int64(flat["proto/bytes_in"])
	}

	for i, m := range codecShapes() {
		want := m.WireSize()

		out0, in0 := counters(simReg)
		sim.Go("send", func() {
			out := m // the endpoint takes what it is handed
			if err := simA.Send("b", &out); err != nil {
				t.Errorf("shape %d: sim send: %v", i, err)
			}
		})
		if err := sim.Run(); err != nil {
			t.Fatal(err)
		}
		if _, ok := simBIn.TryRecv(); !ok {
			t.Fatalf("shape %d: sim did not deliver", i)
		}
		out1, in1 := counters(simReg)
		if out1-out0 != want || in1-in0 != want {
			t.Errorf("shape %d: sim counted out=%d in=%d, WireSize=%d", i, out1-out0, in1-in0, want)
		}

		out0, in0 = counters(tcpReg)
		out := m
		if err := tcpA.Send("b", &out); err != nil {
			t.Fatalf("shape %d: tcp send: %v", i, err)
		}
		if _, ok := tcpBIn.RecvTimeout(5 * time.Second); !ok {
			t.Fatalf("shape %d: tcp did not deliver", i)
		}
		out1, in1 = counters(tcpReg)
		if out1-out0 != want || in1-in0 != want {
			t.Errorf("shape %d: tcp counted out=%d in=%d, WireSize=%d", i, out1-out0, in1-in0, want)
		}
	}

	// A self-send crosses no wire on either plane: delivered, not counted.
	for _, plane := range []struct {
		name string
		ep   Endpoint
		in   Inbox
		reg  *telemetry.Registry
	}{{"sim", simA, simAIn, simReg}, {"tcp", tcpA, tcpAIn, tcpReg}} {
		before := plane.reg.Snapshot().Flatten()
		if err := plane.ep.Send("a", &Message{Type: MsgPing}); err != nil {
			t.Fatalf("%s self-send: %v", plane.name, err)
		}
		if _, ok := plane.in.TryRecv(); !ok {
			t.Errorf("%s self-send not delivered", plane.name)
		}
		after := plane.reg.Snapshot().Flatten()
		for _, c := range []string{"proto/encode_total", "proto/bytes_out", "proto/bytes_in"} {
			if after[c] != before[c] {
				t.Errorf("%s self-send moved %s: %v -> %v", plane.name, c, before[c], after[c])
			}
		}
	}
}
