package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"nwsenv/internal/nws/memory"
	"nwsenv/internal/nws/nameserver"
	"nwsenv/internal/nws/predict"
	"nwsenv/internal/nws/proto"
	"nwsenv/internal/simnet"
	"nwsenv/internal/telemetry"
	"nwsenv/internal/topo"
	"nwsenv/internal/vclock"
)

// The probes below time direct calls into one layer each, through its
// public functions, with inputs of the shape the workload sends. They run
// on the traced pass only, after the load has stopped.

// perOp runs fn n times back to back and returns the mean host time and
// heap allocations of one call.
func perOp(n int, fn func()) (ns, allocs float64) {
	fn() // warm
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	d := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return float64(d) / float64(n), float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// eachOp times n calls one by one and returns their ascending µs.
func eachOp(n int, fn func()) []float64 {
	fn() // warm
	out := make([]float64, n)
	for i := range out {
		t0 := time.Now()
		fn()
		out[i] = micros(time.Since(t0))
	}
	sort.Float64s(out)
	return out
}

// replyMessage is a gateway reply carrying per series samples each.
func replyMessage(data *seriesSet, per int) proto.Message {
	m := proto.Message{Type: proto.MsgQueryFetchReply, Version: proto.V3, From: gwHost, ID: 1 << 20, ReplyTo: 1 << 20}
	for i := 0; i < batchSeries; i++ {
		m.Results = append(m.Results, proto.SeriesResult{Series: data.names[i], Samples: data.window(i, 0, per)})
	}
	return m
}

func requestMessage(data *seriesSet, count int) proto.Message {
	m := proto.Message{Type: proto.MsgQueryFetch, Version: proto.V3, From: "client0", ID: 1 << 20}
	for i := 0; i < batchSeries; i++ {
		m.Queries = append(m.Queries, proto.SeriesRequest{Series: data.names[i], Count: count})
	}
	return m
}

// codecCost is the host time of the codec work on a message: encoding it
// into a reused buffer and decoding it again.
func codecCost(m proto.Message) (encNS, decNS float64) {
	buf := make([]byte, 0, 1<<16)
	encNS, _ = perOp(2000, func() { buf = proto.AppendEncode(buf[:0], &m) })
	decNS, _ = perOp(2000, func() {
		var out proto.Message
		proto.Decode(buf, &out)
	})
	return encNS, decNS
}

func probeCodec(r *result, data *seriesSet) {
	req, reply8, reply256 := requestMessage(data, 8), replyMessage(data, 8), replyMessage(data, 256)
	encReq, _ := codecCost(req)
	_, dec8 := codecCost(reply8)
	_, dec256 := codecCost(reply256)
	buf := make([]byte, 0, 1<<16)
	_, allocs := perOp(2000, func() {
		buf = proto.AppendEncode(buf[:0], &reply8)
		var out proto.Message
		proto.Decode(buf, &out)
	})
	r.set("proto.codec.encode_req20_ns", encReq)
	r.set("proto.codec.decode_reply20x8_ns", dec8)
	r.set("proto.codec.decode_reply20x256_ns", dec256)
	r.set("proto.codec.reply20x8_bytes", float64(proto.EncodedSize(&reply8)))
	r.set("proto.codec.reply20x256_bytes", float64(proto.EncodedSize(&reply256)))
	r.set("proto.codec.allocs_per_msg", allocs)
}

// tcpPair is a fresh transport with one client station: a quiet corner
// for probes that must not share sockets with the workload's stack.
type tcpPair struct {
	tr       *proto.TCPTransport
	client   *proto.Station
	stations []*proto.Station
}

func newTCPPair() (*tcpPair, error) {
	p := &tcpPair{tr: proto.NewTCPTransport()}
	var err error
	p.client, err = p.open("probe-client")
	return p, err
}

func (p *tcpPair) open(host string) (*proto.Station, error) {
	ep, err := p.tr.Open(host)
	if err != nil {
		return nil, err
	}
	st := proto.NewStation(p.tr.Runtime(), ep)
	p.stations = append(p.stations, st)
	return st, nil
}

func (p *tcpPair) close() {
	for _, st := range p.stations {
		st.Close()
	}
}

// probeWire measures the station and transport layers on an idle pair:
// a ping round-trip to a server doing nothing else, and the first Send to
// a host not yet dialed.
func probeWire(r *result) error {
	p, err := newTCPPair()
	if err != nil {
		return err
	}
	defer p.close()
	st, err := p.open("idle-ns")
	if err != nil {
		return err
	}
	go nameserver.New(st).Run()
	var callErr error
	rtt := eachOp(2000, func() {
		if _, err := p.client.Call("idle-ns", proto.Message{Type: proto.MsgPing}, 5*time.Second); err != nil {
			callErr = err
		}
	})
	if callErr != nil {
		return fmt.Errorf("ping: %w", callErr)
	}
	r.set("proto.station.call_rtt_us", quantile(rtt, 0.5))

	var dials []float64
	for i := 0; i < 32; i++ {
		host := fmt.Sprintf("dial%d", i)
		if _, err := p.open(host); err != nil {
			return err
		}
		t0 := time.Now()
		if err := p.client.Send(host, proto.Message{Type: proto.MsgPing}); err != nil {
			return fmt.Errorf("dial: %w", err)
		}
		dials = append(dials, micros(time.Since(t0)))
	}
	r.set("proto.tcptransport.dial_us", median(dials))
	return nil
}

// probeNameserver times the directory's three operations against a
// directory holding as many entries as the workload registered.
func probeNameserver(r *result, entries int) error {
	p, err := newTCPPair()
	if err != nil {
		return err
	}
	defer p.close()
	st, err := p.open(nsHost)
	if err != nil {
		return err
	}
	go nameserver.New(st).Run()
	nsc := nameserver.NewClient(p.client, nsHost)
	reg := func(i int) proto.Registration {
		return proto.Registration{Name: fmt.Sprintf("series.%06d", i), Kind: "series", Host: memHost(i % memServers), Owner: "memory." + memHost(i%memServers)}
	}
	for at := 0; at < entries; at += 1000 {
		var regs []proto.Registration
		for i := at; i < min(at+1000, entries); i++ {
			regs = append(regs, reg(i))
		}
		if _, err := nsc.RegisterBulk(regs); err != nil {
			return err
		}
	}
	var opErr error
	next := entries
	register := eachOp(300, func() {
		if err := nsc.Register(reg(next)); err != nil {
			opErr = err
		}
		next++
	})
	lookupName := eachOp(500, func() {
		if _, found, err := nsc.LookupName(reg(next % entries).Name); err != nil || !found {
			opErr = fmt.Errorf("lookup: found=%v err=%v", found, err)
		}
		next++
	})
	lookupKind := eachOp(20, func() {
		if regs, err := nsc.LookupKind("series", ""); err != nil || len(regs) < entries {
			opErr = fmt.Errorf("lookup kind: %d entries, err=%v", len(regs), err)
		}
	})
	if opErr != nil {
		return opErr
	}
	r.set("nameserver.register_us", quantile(register, 0.5))
	r.set("nameserver.lookup_name_us", quantile(lookupName, 0.5))
	r.set("nameserver.lookup_kind_us", quantile(lookupKind, 0.5))
	return nil
}

// probeMemory times a standalone memory server whose windows are at the
// retention cap, so every store takes the trim-and-copy path.
func probeMemory(r *result, data *seriesSet) error {
	p, err := newTCPPair()
	if err != nil {
		return err
	}
	defer p.close()
	st, err := p.open(memHost(0))
	if err != nil {
		return err
	}
	go memory.New(st, nil).Run()
	mc := memory.NewClient(p.client, memHost(0))
	for i := 0; i < batchSeries; i++ {
		if err := mc.Store(data.names[i], data.window(i, 0, memory.DefaultRetention)...); err != nil {
			return err
		}
	}
	var opErr error
	next := memory.DefaultRetention
	store := eachOp(1000, func() {
		if err := mc.Store(data.names[0], data.sample(0, next)); err != nil {
			opErr = err
		}
		next++
	})
	fetch := eachOp(1000, func() {
		if s, err := mc.Fetch(data.names[1], 8); err != nil || len(s) != 8 {
			opErr = fmt.Errorf("fetch: %d samples, err=%v", len(s), err)
		}
	})
	batchOf := func(count int) []float64 {
		reqs := requestMessage(data, count).Queries
		return eachOp(500, func() {
			if res, err := mc.BatchFetch(reqs); err != nil || len(res) != len(reqs) || len(res[0].Samples) != count {
				opErr = fmt.Errorf("batch fetch: %d results, err=%v", len(res), err)
			}
		})
	}
	b8, b256 := batchOf(8), batchOf(256)
	if opErr != nil {
		return opErr
	}
	r.set("memory.store1_us", quantile(store, 0.5))
	r.set("memory.fetch1_us", quantile(fetch, 0.5))
	r.set("memory.batchfetch20x8_us", quantile(b8, 0.5))
	r.set("memory.batchfetch20x256_us", quantile(b256, 0.5))
	return nil
}

// probePredict times the battery on a 256-sample window of the
// workload's data.
func probePredict(r *result, data *seriesSet) {
	values := make([]float64, 256)
	for n := range values {
		values[n] = data.sample(0, n).Value
	}
	ns, allocs := perOp(200, func() { predict.Run(values) })
	r.set("predict.run256_us", ns/1e3)
	r.set("predict.run256_allocs", allocs)
	b := predict.NewBattery()
	n := 0
	ns, _ = perOp(20000, func() { b.Update(values[n%len(values)]); n++ })
	r.set("predict.update_ns", ns)
}

// probeTelemetry times the registry's two instruments.
func probeTelemetry(r *result) {
	reg := telemetry.New(nil)
	c := reg.Counter("bench", "probe", nil)
	ns, _ := perOp(1_000_000, c.Inc)
	r.set("telemetry.counter_inc_ns", ns)
	ns, _ = perOp(20000, func() { reg.StartSpan("bench", "probe").End() })
	r.set("telemetry.span_ns", ns)
}

// probeSimulator times the simulator's own layers in host time: the
// event scheduler, a virtual channel hand-off, a flow through the
// fair-share engine and a Station.Call over the simulated transport.
func probeSimulator(r *result) error {
	const events = 100_000
	sim := vclock.New()
	t0 := time.Now()
	for i := 0; i < events; i++ {
		sim.After(time.Duration(i), func() {})
	}
	if err := sim.Run(); err != nil {
		return err
	}
	r.set("vclock.event_ns", float64(time.Since(t0))/events)

	const trips = 20_000
	sim = vclock.New()
	ping, pong := vclock.NewChan[int](sim, "ping"), vclock.NewChan[int](sim, "pong")
	sim.Go("echo", func() {
		for {
			v, ok := ping.Recv()
			if !ok {
				return
			}
			pong.Send(v)
		}
	})
	sim.Go("caller", func() {
		for i := 0; i < trips; i++ {
			ping.Send(i)
			pong.Recv()
		}
		ping.Close()
	})
	t0 = time.Now()
	if err := sim.Run(); err != nil {
		return err
	}
	r.set("vclock.chan_rtt_ns", float64(time.Since(t0))/trips)

	tp, _ := topo.SyntheticGrid(stormGrid)
	sim = vclock.New()
	net := simnet.NewNetwork(sim, tp)
	tr := proto.NewSimTransport(net)
	var stations []*proto.Station
	for _, h := range []string{stormNS, stormClient} {
		ep, err := tr.Open(h)
		if err != nil {
			return err
		}
		stations = append(stations, proto.NewStation(tr.Runtime(), ep))
	}
	sim.Go("ns", nameserver.New(stations[0]).Run)
	const transfers, calls = 2000, 5000
	var transferWall, callWall time.Duration
	var opErr error
	if err := drive(sim, "probe", func() {
		t0 := time.Now()
		for i := 0; i < transfers && opErr == nil; i++ {
			_, opErr = net.Transfer(stormClient, stormMem(1), 10_000, "")
		}
		transferWall = time.Since(t0)
		t0 = time.Now()
		for i := 0; i < calls && opErr == nil; i++ {
			_, opErr = stations[1].Call(stormNS, proto.Message{Type: proto.MsgPing}, time.Minute)
		}
		callWall = time.Since(t0)
	}); err != nil {
		return err
	}
	if opErr != nil {
		return opErr
	}
	r.set("simnet.transfer_wall_ns", float64(transferWall)/transfers)
	r.set("proto.simtransport.call_wall_ns", float64(callWall)/calls)
	return nil
}
