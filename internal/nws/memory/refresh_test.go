package memory

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"nwsenv/internal/nws/nameserver"
	"nwsenv/internal/nws/proto"
	"nwsenv/internal/nws/proto/prototest"
)

// bulkPort is a proto.Port recording bulk re-register calls, optionally
// failing them — the harness for pinning that the per-tick series sweep
// is one round-trip however many series the server owns.
type bulkPort struct {
	prototest.StubPort
	failErr error
	calls   [][]proto.Registration
}

func (p *bulkPort) Call(to string, m proto.Message, d time.Duration) (proto.Message, error) {
	if m.Type == proto.MsgRegisterBulk {
		p.calls = append(p.calls, m.Regs)
		if p.failErr != nil {
			return proto.Message{}, p.failErr
		}
		return proto.Message{Type: proto.MsgRegisterAck, Count: len(m.Regs)}, nil
	}
	return proto.Message{Type: proto.MsgRegisterAck}, nil
}

var _ proto.Port = (*bulkPort)(nil)

// TestRefreshSeriesBulkSingleRoundTrip: the whole owned-series sweep is
// one bulk call, sorted, with ownership and the replica set on every
// entry — N series must never cost N directory round-trips per tick.
func TestRefreshSeriesBulkSingleRoundTrip(t *testing.T) {
	port := &bulkPort{StubPort: prototest.StubPort{HostName: "h1"}}
	s := New(port, nameserver.NewClient(port, "ns"), WithReplicas("h2", "h3"))
	for _, name := range []string{"c.series", "a.series", "b.series"} {
		s.record(name).registered = true
	}
	if err := s.refreshSeries(); err != nil {
		t.Fatalf("refresh: %v", err)
	}
	if len(port.calls) != 1 {
		t.Fatalf("want exactly 1 bulk round-trip, got %d", len(port.calls))
	}
	regs := port.calls[0]
	want := []string{"a.series", "b.series", "c.series"}
	if len(regs) != len(want) {
		t.Fatalf("bulk carried %d entries, want %d", len(regs), len(want))
	}
	for i, reg := range regs {
		if reg.Name != want[i] {
			t.Fatalf("entry %d: got %q, want sorted %q", i, reg.Name, want[i])
		}
		if reg.Owner != s.Name() || reg.Kind != "series" || reg.Host != "h1" {
			t.Fatalf("entry %d incomplete: %+v", i, reg)
		}
		if fmt.Sprint(reg.Replicas) != fmt.Sprint([]string{"h2", "h3"}) {
			t.Fatalf("entry %d missing replica set: %+v", i, reg)
		}
	}
}

// TestRefreshSeriesReportsTransientFailure: a failed bulk refresh is
// reported so the lifecycle loop knows the tick was incomplete and
// retries next round — without being mistaken for teardown.
func TestRefreshSeriesReportsTransientFailure(t *testing.T) {
	port := &bulkPort{failErr: errors.New("proto: call timed out")}
	s := New(port, nameserver.NewClient(port, "ns"))
	s.record("a.series").registered = true
	err := s.refreshSeries()
	if err == nil {
		t.Fatal("incomplete sweep reported no error")
	}
	if errors.Is(err, proto.ErrClosed) {
		t.Fatalf("transient failure misreported as teardown: %v", err)
	}
}

// TestRefreshSeriesStopsOnTeardown: proto.ErrClosed propagates so
// KeepRegistered exits its loop.
func TestRefreshSeriesStopsOnTeardown(t *testing.T) {
	port := &bulkPort{failErr: fmt.Errorf("%w: mflaky", proto.ErrClosed)}
	s := New(port, nameserver.NewClient(port, "ns"))
	s.record("a.series").registered = true
	if err := s.refreshSeries(); !errors.Is(err, proto.ErrClosed) {
		t.Fatalf("teardown not propagated: %v", err)
	}
}
