package nws_test

import (
	"testing"
	"time"

	"nwsenv/internal/nws/clique"
	"nwsenv/internal/nws/forecast"
	"nwsenv/internal/nws/memory"
	"nwsenv/internal/nws/nameserver"
	"nwsenv/internal/nws/proto"
	"nwsenv/internal/nws/sensor"
)

// fakeProber returns canned values instantly: over real TCP we exercise
// the control plane (registry, storage, forecasting, token ring), not
// bandwidth physics.
type fakeProber struct{}

func (fakeProber) Latency(from, to string, bytes int64) (time.Duration, error) {
	return 2 * time.Millisecond, nil
}
func (fakeProber) Bandwidth(from, to string, bytes int64, tag string) (float64, error) {
	return 94e6, nil
}
func (fakeProber) ConnectTime(from, to string) (time.Duration, error) {
	return 3 * time.Millisecond, nil
}

// TestFullNWSOverRealTCP boots a name server, a memory server, a
// forecaster and a three-member measurement clique over loopback TCP
// sockets with gob encoding and wall-clock time, then walks the §2.1
// four-step query flow. It proves the NWS components are not bound to
// the simulation substrate.
func TestFullNWSOverRealTCP(t *testing.T) {
	tr := proto.NewTCPTransport()
	rt := tr.Runtime()

	open := func(h string) *proto.Station {
		ep, err := tr.Open(h)
		if err != nil {
			t.Fatal(err)
		}
		return proto.NewStation(rt, ep)
	}

	// ns host: name server + (separate station host names for each role
	// keep the demo simple — one process per "machine").
	stNS := open("ns")
	go nameserver.New(stNS).Run()

	stMem := open("mem")
	nsForMem := nameserver.NewClient(stMem, "ns")
	go memory.New(stMem, nsForMem).Run()

	stFc := open("fc")
	go forecast.NewServer(stFc, nameserver.NewClient(stFc, "ns"), 0).Run()

	// Three clique members, measurements into the memory server.
	hosts := []string{"h0", "h1", "h2"}
	cfg := clique.Config{
		Name: "tcp", Members: hosts,
		TokenGap:     20 * time.Millisecond,
		AckTimeout:   300 * time.Millisecond,
		TokenTimeout: 2 * time.Second,
		ElectTimeout: 300 * time.Millisecond,
	}
	var members []*clique.Member
	for _, h := range hosts {
		st := open(h)
		mc := memory.NewClient(st, "mem")
		store := func(m sensor.Measurement) {
			mc.Store(m.Series, proto.Sample{At: m.At, Value: m.Value})
		}
		m := clique.NewMember(cfg, st, fakeProber{}, store)
		members = append(members, m)
		go m.Run()
	}
	defer func() {
		for _, m := range members {
			m.Stop()
		}
	}()

	// Let the ring circulate on the wall clock.
	deadline := time.Now().Add(5 * time.Second)
	client := open("client")
	defer client.Close()
	mc := memory.NewClient(client, "mem")
	series := sensor.BandwidthSeries("h0", "h1")
	var samples []proto.Sample
	for time.Now().Before(deadline) {
		var err error
		samples, err = mc.Fetch(series, 0)
		if err == nil && len(samples) >= 3 {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if len(samples) < 3 {
		t.Fatalf("only %d samples of %s arrived over TCP", len(samples), series)
	}
	for _, s := range samples {
		if s.Value != 94 { // Mbps
			t.Fatalf("sample %+v", s)
		}
	}

	// §2.1 steps 1-4 over real sockets: client -> forecaster -> name
	// server -> memory -> prediction.
	fc := forecast.NewClient(client, "fc")
	res, err := fc.BatchForecast([]proto.SeriesRequest{{Series: series}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Error != "" || res[0].Value != 94 {
		t.Fatalf("forecast %+v", res)
	}

	// Registry sanity: the series was advertised.
	nsc := nameserver.NewClient(client, "ns")
	reg, found, err := nsc.LookupName(series)
	if err != nil || !found || reg.Host != "mem" {
		t.Fatalf("series registration over TCP: %+v found=%v err=%v", reg, found, err)
	}

	// Liveness check after a member dies: stop h2, ring keeps measuring.
	// If h2 died holding the token the survivors need a watchdog period
	// plus an election before monitoring resumes.
	members[2].Stop()
	before := len(samples)
	deadline = time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		samples, _ = mc.Fetch(series, 0)
		if len(samples) > before+2 {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if len(samples) <= before {
		t.Fatal("ring stalled after member stop")
	}
}
