package forecast

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"nwsenv/internal/nws/memory"
	"nwsenv/internal/nws/nameserver"
	"nwsenv/internal/nws/predict"
	"nwsenv/internal/nws/proto"
	"nwsenv/internal/query"
	"nwsenv/internal/simnet"
	"nwsenv/internal/telemetry"
	"nwsenv/internal/vclock"
)

// staleRig is a forecaster in front of two memory servers, m1 and m2,
// that every series names as primary and replica in the directory. The
// memory servers are standalone (no directory client, no fan-out), so
// each window changes only by what the script sends it.
type staleRig struct {
	t    testing.TB
	sim  *vclock.Sim
	tr   *proto.SimTransport
	fc   *Server
	cli  *proto.Station
	mems map[string]*staleMem
	down map[string]bool
	// issued is every token a memory server has handed out, with the
	// server life that issued it.
	issued []issuedToken
}

// staleMem is the memory server on one host; life counts its starts
// and in-place restores.
type staleMem struct {
	st   *proto.Station
	srv  *memory.Server
	life int
}

type issuedToken struct {
	host   string
	life   int
	series string
	tok    proto.WindowToken
}

var (
	staleHosts  = []string{"m1", "m2"}
	staleSeries = []string{"a", "b", "c"}
	staleCounts = []int{0, 5, 40, 2000}
)

func newStaleRig(t testing.TB) *staleRig {
	topo := simnet.NewTopology()
	topo.AddSwitch("sw")
	for i, h := range []string{"ns", "fc", "cli", "m1", "m2"} {
		topo.AddHost(h, string(rune('1'+i)), h, "x")
		topo.Connect(h, "sw")
	}
	r := &staleRig{t: t, sim: vclock.New(), mems: map[string]*staleMem{}, down: map[string]bool{}}
	r.tr = proto.NewSimTransport(simnet.NewNetwork(r.sim, topo))
	stNS, stFc := r.open("ns"), r.open("fc")
	r.cli = r.open("cli")
	r.tr.Runtime().Go("ns", nameserver.New(stNS).Run)
	r.fc = NewServer(stFc, nameserver.NewClient(stFc, "ns"), 16)
	r.fc.SetTelemetry(telemetry.New(nil))
	r.tr.Runtime().Go("fc", r.fc.Run)
	for _, h := range staleHosts {
		r.restart(h, nil)
	}
	return r
}

func (r *staleRig) open(host string) *proto.Station {
	ep, err := r.tr.Open(host)
	if err != nil {
		r.t.Fatal(err)
	}
	return proto.NewStation(r.tr.Runtime(), ep)
}

// restart replaces host's memory server with a new one, empty or
// handed the records of from.
func (r *staleRig) restart(host string, from *memory.Server) {
	m := r.mems[host]
	if m == nil {
		m = &staleMem{}
		r.mems[host] = m
	} else {
		m.st.Close()
	}
	m.st = r.open(host)
	m.srv = memory.New(m.st, nil)
	m.life++
	if from != nil {
		from.HandOver(m.srv)
	}
	r.tr.Runtime().Go("mem:"+host, m.srv.Run)
}

// restore hands host's server over to itself: the same server and
// windows, every one under a new stamp.
func (r *staleRig) restore(host string) {
	m := r.mems[host]
	m.srv.HandOver(m.srv)
	m.life++
}

// samples makes n samples of series-local values from rng, including
// repeats, so windows that change can still be bit-equal.
func staleSamples(rng *rand.Rand, n int, at *time.Duration) []proto.Sample {
	out := make([]proto.Sample, n)
	for k := range out {
		*at += time.Second
		out[k] = proto.Sample{At: *at, Value: float64(rng.Intn(4))}
		if rng.Intn(8) == 0 {
			out[k].Value = scriptValues[rng.Intn(len(scriptValues))]
		}
	}
	return out
}

// step applies one random mutation, outage or restart.
func (r *staleRig) step(rng *rand.Rand, at *time.Duration) string {
	host := staleHosts[rng.Intn(len(staleHosts))]
	series := staleSeries[rng.Intn(len(staleSeries))]
	call := func(m proto.Message) {
		if r.down[host] {
			return // the message would vanish; skip the timeout
		}
		if _, err := r.cli.Call(host, m, 10*time.Second); err != nil {
			r.t.Fatalf("%v to %s: %v", m.Type, host, err)
		}
	}
	switch p := rng.Intn(100); {
	case p < 30:
		n := 1 + rng.Intn(3)
		if rng.Intn(10) == 0 {
			n = memory.DefaultRetention + rng.Intn(40) // trims the window
		}
		call(proto.Message{Type: proto.MsgStore, Series: series, Samples: staleSamples(rng, n, at)})
		return fmt.Sprintf("store %d to %s/%s", n, host, series)
	case p < 45:
		n := 1 + rng.Intn(3)
		call(proto.Message{Type: proto.MsgReplStore, Results: []proto.SeriesResult{
			{Series: series, Samples: staleSamples(rng, n, at), Lag: int64(rng.Intn(2000))}}})
		return fmt.Sprintf("repl store %d to %s/%s", n, host, series)
	case p < 55:
		n := rng.Intn(60)
		call(proto.Message{Type: proto.MsgReplWindow, Series: series, Samples: staleSamples(rng, n, at), Total: int64(n)})
		return fmt.Sprintf("repl window %d to %s/%s", n, host, series)
	case p < 62:
		survivor := staleHosts[rng.Intn(len(staleHosts))]
		if r.down[survivor] {
			return "skip repair"
		}
		call(proto.Message{Type: proto.MsgReplRepair, Reg: proto.Registration{Name: "cli", Host: survivor}})
		return fmt.Sprintf("repair on %s from %s", host, survivor)
	case p < 70:
		r.restore(host)
		return "self-handover " + host
	case p < 76:
		var from *memory.Server
		if rng.Intn(2) == 0 {
			from = r.mems[host].srv
		}
		r.restart(host, from)
		return fmt.Sprintf("restart %s (handed over: %v)", host, from != nil)
	case p < 88:
		if r.down[host] || r.down[staleHosts[0]] || r.down[staleHosts[1]] {
			r.down[host] = false
			r.tr.Network().RestoreHost(host)
			return "up " + host
		}
		r.down[host] = true
		r.tr.Network().CrashHost(host)
		return "down " + host
	default:
		return "idle"
	}
}

// check forecasts a random set of series through the forecaster and
// holds each answer, bit for bit, to predict.Run over an untokened
// fetch of the same series by the forecaster's own query client — the
// same server bindings and failover state, no token and no memo.
func (r *staleRig) check(rng *rand.Rand) error {
	var reqs []proto.SeriesRequest
	for _, s := range staleSeries {
		if rng.Intn(3) > 0 {
			reqs = append(reqs, proto.SeriesRequest{Series: s, Count: staleCounts[rng.Intn(len(staleCounts))]})
		}
	}
	if len(reqs) == 0 {
		return nil
	}
	fc := NewClient(r.cli, "fc")
	fc.Timeout = time.Minute // a fetch from a down primary times out before failing over
	got, err := fc.BatchForecast(reqs)
	if err != nil || len(got) != len(reqs) {
		return fmt.Errorf("batch forecast: %v, %d results", err, len(got))
	}
	plain := make([]proto.SeriesRequest, len(reqs))
	for i, q := range reqs {
		plain[i] = proto.SeriesRequest{Series: q.Series, Count: r.fc.boundedCount(q.Count)}
	}
	for i, fr := range r.fc.qc.FetchMany(plain) {
		g := got[i]
		if fr.Err != nil && !errors.Is(fr.Err, query.ErrDegraded) {
			if g.Error == "" {
				return fmt.Errorf("%s: oracle fetch failed (%v), forecaster answered %+v", fr.Series, fr.Err, g)
			}
			continue
		}
		values := make([]float64, len(fr.Samples))
		for k, sm := range fr.Samples {
			values[k] = sm.Value
		}
		want, ok := predict.Run(values)
		if !ok {
			if g.Error == "" {
				return fmt.Errorf("%s: %d samples, no prediction, forecaster answered %+v", fr.Series, len(values), g)
			}
			continue
		}
		if g.Error != "" && g.Code != proto.CodeDegraded {
			continue // a forecast that failed (its backend went down) is not stale
		}
		if (g.Code == proto.CodeDegraded) != (fr.Err != nil) ||
			math.Float64bits(g.Value) != math.Float64bits(want.Value) ||
			math.Float64bits(g.MAE) != math.Float64bits(want.MAE) ||
			math.Float64bits(g.MSE) != math.Float64bits(want.MSE) ||
			g.Method != want.Method || g.Count != len(values) {
			return fmt.Errorf("%s count %d: forecaster answered %+v, predict.Run over the %d samples fetched without a token gives %+v (fetch error %v)",
				fr.Series, reqs[i].Count, g, len(values), want, fr.Err)
		}
	}
	return nil
}

// foreign collects every live server's current tokens, then offers
// each server every token another server or an earlier life of its own
// issued for the same series: none may come back "unchanged".
func (r *staleRig) foreign() error {
	for _, h := range staleHosts {
		if r.down[h] {
			continue
		}
		qs := make([]proto.SeriesRequest, len(staleSeries))
		for i, s := range staleSeries {
			qs[i] = proto.SeriesRequest{Series: s, Token: proto.AskToken}
		}
		toks, err := r.tokens(h, qs)
		if err != nil {
			return fmt.Errorf("token fetch from %s: %v", h, err)
		}
		for i, tok := range toks {
			if tok != 0 {
				r.issued = append(r.issued, issuedToken{host: h, life: r.mems[h].life, series: qs[i].Series, tok: tok})
			}
		}
	}
	for _, h := range staleHosts {
		if r.down[h] {
			continue
		}
		var qs []proto.SeriesRequest
		for _, it := range r.issued {
			if it.host != h || it.life != r.mems[h].life {
				qs = append(qs, proto.SeriesRequest{Series: it.series, Token: it.tok})
			}
		}
		if len(qs) == 0 {
			continue
		}
		toks, err := r.tokens(h, qs)
		if err != nil {
			return fmt.Errorf("foreign fetch from %s: %v", h, err)
		}
		for i, tok := range toks {
			if tok == qs[i].Token {
				return fmt.Errorf("%s (life %d) matched the foreign token %+v for %s", h, r.mems[h].life, qs[i].Token, qs[i].Series)
			}
		}
	}
	return nil
}

// tokens sends qs to the memory server on host as one batch fetch and
// returns the tokens of its answer, one per query.
func (r *staleRig) tokens(host string, qs []proto.SeriesRequest) ([]proto.WindowToken, error) {
	reply, err := r.cli.Call(host, proto.Message{Type: proto.MsgBatchFetch, Version: proto.V3, Queries: qs}, 10*time.Second)
	if err != nil {
		return nil, err
	}
	if len(reply.ResultTokens) != len(qs) {
		return nil, fmt.Errorf("%d tokens for %d queries", len(reply.ResultTokens), len(qs))
	}
	return reply.ResultTokens, nil
}

// runStaleScript plays one seeded interleaving of steps, checking the
// forecaster and the foreign tokens after each.
func runStaleScript(t *testing.T, seed int64, steps int) {
	rng := rand.New(rand.NewSource(seed))
	r := newStaleRig(t)
	var log []string
	at := time.Duration(0)
	drive(t, r.sim, func() {
		for _, s := range staleSeries {
			if err := nameserver.NewClient(r.cli, "ns").Register(proto.Registration{
				Name: s, Kind: "series", Host: "m1", Owner: "memory.m1", Replicas: []string{"m2"},
			}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < steps; i++ {
			log = append(log, r.step(rng, &at))
			if err := r.check(rng); err != nil {
				t.Fatalf("seed %d after %v: %v", seed, log, err)
			}
			if err := r.foreign(); err != nil {
				t.Fatalf("seed %d after %v: %v", seed, log, err)
			}
		}
		for _, m := range r.mems {
			m.st.Close()
		}
	})
}

// TestTokenedMemoNeverStale: 500 seeded interleavings of stores (some
// trimming at retention), fan-out appends and windows, repair
// adoptions, self-handovers, restarts with and without a handover, and
// primary outages with failover to the replica. After every step each
// forecast is predict.Run over the window an untokened fetch returns,
// bit for bit, and no server answers "unchanged" to a token another
// server or another life of its own issued.
func TestTokenedMemoNeverStale(t *testing.T) {
	seeds := int64(500)
	if testing.Short() {
		seeds = 50
	}
	for seed := int64(1); seed <= seeds; seed++ {
		runStaleScript(t, seed, 12)
	}
}
