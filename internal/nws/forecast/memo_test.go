package forecast

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nwsenv/internal/nws/memory"
	"nwsenv/internal/nws/nameserver"
	"nwsenv/internal/nws/predict"
	"nwsenv/internal/nws/proto"
	"nwsenv/internal/simnet"
	"nwsenv/internal/telemetry"
	"nwsenv/internal/vclock"
)

// stack is a name server, a memory server and an instrumented
// forecaster on hosts "ns", "mem" and "fc" of any transport, with client
// stations on "cli" and "cli2".
type stack struct {
	tr        proto.Transport
	srv       *Server
	reg       *telemetry.Registry
	mem       *proto.Station
	memSrv    *memory.Server
	cli, cli2 *proto.Station
	opened    []*proto.Station
	// windowBytes counts what the memory server's batch-fetch replies
	// spend on their results; see resultPort.
	windowBytes atomic.Int64
}

// resultPort is a memory server's port that adds to *bytes, for every
// batch-fetch reply it sends, the frame bytes of the reply's results:
// windows, tokens and the per-series fields. The frame around them is
// left out, because its message IDs are varints that lengthen as a run
// goes on; what is left depends only on what the windows hold.
type resultPort struct {
	*proto.Station
	bytes *atomic.Int64
}

func (p resultPort) Reply(req *proto.Message, m proto.Message) error {
	if m.Type == proto.MsgBatchFetchReply {
		bare := m
		bare.Results = nil
		p.bytes.Add(m.WireSize() - bare.WireSize())
	}
	return p.Station.Reply(req, m)
}

var stackHosts = []string{"ns", "mem", "fc", "cli", "cli2"}

func newStack(t testing.TB, tr proto.Transport, history int) *stack {
	t.Helper()
	s := &stack{tr: tr, reg: telemetry.New(nil)}
	stNS, stFc := s.open(t, "ns"), s.open(t, "fc")
	s.cli, s.cli2 = s.open(t, "cli"), s.open(t, "cli2")
	tr.Runtime().Go("ns", nameserver.New(stNS).Run)
	s.startMemory(t)
	s.srv = NewServer(stFc, nameserver.NewClient(stFc, "ns"), history)
	s.srv.SetTelemetry(s.reg)
	tr.Runtime().Go("fc", s.srv.Run)
	return s
}

func (s *stack) open(t testing.TB, host string) *proto.Station {
	t.Helper()
	ep, err := s.tr.Open(host)
	if err != nil {
		t.Fatal(err)
	}
	st := proto.NewStation(s.tr.Runtime(), ep)
	s.opened = append(s.opened, st)
	return st
}

// startMemory starts a fresh, empty memory server on "mem", closing the
// one before it: a restart that loses every series.
func (s *stack) startMemory(t testing.TB) {
	if s.mem != nil {
		s.mem.Close()
	}
	s.mem = s.open(t, "mem")
	s.memSrv = memory.New(resultPort{s.mem, &s.windowBytes}, nameserver.NewClient(s.mem, "ns"))
	s.tr.Runtime().Go("mem", s.memSrv.Run)
}

// counter reads one of the forecaster's forecast/memo_* counters.
func (s *stack) counter(name string) int64 {
	return s.reg.Counter("forecast", name, nil).Value()
}

// simStack is a stack on a one-switch simulated LAN.
func simStack(t testing.TB, history int) (*vclock.Sim, *stack) {
	t.Helper()
	topo := simnet.NewTopology()
	topo.AddSwitch("sw")
	for i, h := range stackHosts {
		topo.AddHost(h, string(rune('1'+i)), h, "x")
		topo.Connect(h, "sw")
	}
	sim := vclock.New()
	return sim, newStack(t, proto.NewSimTransport(simnet.NewNetwork(sim, topo)), history)
}

// drive runs fn as a simulation process to completion.
func drive(t testing.TB, sim *vclock.Sim, fn func()) {
	t.Helper()
	done := false
	sim.Go("test", func() { fn(); done = true })
	if err := sim.RunUntil(sim.Now() + time.Hour); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("test process stuck")
	}
}

// oracleDiff asks the forecaster for reqs and reports the first result
// that is not, bit for bit, predict.Run over the window the memory
// server returns for the same count — the oracle shares no code with
// the forecaster's memo. history is the forecaster's default count. A
// series the forecaster's query client holds a negative directory entry
// for fails before the memo is reached and is skipped.
func oracleDiff(cli *proto.Station, history int, reqs []proto.SeriesRequest) error {
	got, err := NewClient(cli, "fc").BatchForecast(reqs)
	if err != nil {
		return fmt.Errorf("batch forecast: %v", err)
	}
	if len(got) != len(reqs) {
		return fmt.Errorf("%d results for %d requests", len(got), len(reqs))
	}
	mc := memory.NewClient(cli, "mem")
	for i, q := range reqs {
		n := q.Count
		if n <= 0 {
			n = history
		}
		samples, err := mc.Fetch(q.Series, n)
		if err != nil {
			return fmt.Errorf("fetch %s: %v", q.Series, err)
		}
		values := make([]float64, len(samples))
		for k, sm := range samples {
			values[k] = sm.Value
		}
		want, ok := predict.Run(values)
		g := got[i]
		if g.Code == proto.CodeUnknownSeries {
			continue
		}
		if !ok {
			if g.Error == "" {
				return fmt.Errorf("%s count %d: no history, forecaster answered %+v", q.Series, q.Count, g)
			}
			continue
		}
		if g.Error != "" || g.Code != "" || g.Replica || g.Lag != 0 ||
			math.Float64bits(g.Value) != math.Float64bits(want.Value) ||
			math.Float64bits(g.MAE) != math.Float64bits(want.MAE) ||
			math.Float64bits(g.MSE) != math.Float64bits(want.MSE) ||
			g.Method != want.Method || g.Count != len(values) || g.Series != q.Series {
			return fmt.Errorf("%s count %d: forecaster answered %+v, predict.Run over the %d fetched samples gives %+v",
				q.Series, q.Count, g, len(values), want)
		}
	}
	return nil
}

func checkAgainstOracle(t testing.TB, cli *proto.Station, history int, reqs []proto.SeriesRequest) {
	t.Helper()
	if err := oracleDiff(cli, history, reqs); err != nil {
		t.Fatal(err)
	}
}

var (
	scriptSeries = []string{"a", "b", "c", "d", "e"}
	scriptCounts = []int{0, 5, 8, 256, 2000}
	// scriptValues: the values where "equal" and "bit-equal" part ways,
	// beside ordinary ones.
	scriptValues = []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		math.Float64frombits(0x7FF8000000000001), math.Float64frombits(0x7FF8000000000002),
		math.Float64frombits(0xFFF8000000000001), 1, -1, 0.5, 42, 1e300, 5e-324,
	}
)

// runMemoScript interprets data as an interleaving of stores, batch
// forecasts, memory-server handovers to itself (same windows, new
// tokens) and restarts against a forecaster whose memo
// holds 600 samples — less than three 256-sample windows, so eviction is
// part of what must stay invisible — checking every batch against the
// oracle.
func runMemoScript(t testing.TB, data []byte) {
	const history = 64
	sim, st := simStack(t, history)
	st.srv.memo.max = 600
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	at := time.Duration(0)
	drive(t, sim, func() {
		for len(data) > 0 {
			switch op := next(); {
			case op < 120: // store 1 sample, or 300 (varied, or all alike)
				series := scriptSeries[op%len(scriptSeries)]
				n, v, step := 1, next(), 1
				if op%4 == 0 {
					n, step = 300, op/4%2
				}
				samples := make([]proto.Sample, n)
				for k := range samples {
					at += time.Second
					samples[k] = proto.Sample{At: at, Value: scriptValues[(v+step*k*k)%len(scriptValues)]}
					if v >= 128 {
						samples[k].Value = float64(v*7+step*k*k) / 8
					}
				}
				if err := memory.NewClient(st.cli, "mem").Store(series, samples...); err != nil {
					t.Fatalf("store %s: %v", series, err)
				}
			case op < 250: // forecast the series of a bitmask
				mask, c := next()|1<<(op%len(scriptSeries)), next()
				var reqs []proto.SeriesRequest
				for i, series := range scriptSeries {
					if mask&(1<<i) != 0 {
						reqs = append(reqs, proto.SeriesRequest{Series: series, Count: scriptCounts[(c+i)%len(scriptCounts)]})
					}
				}
				checkAgainstOracle(t, st.cli, history, reqs)
				if got := st.srv.memo.samples; got > st.srv.memo.max {
					t.Fatalf("memo retains %d samples, bound %d", got, st.srv.memo.max)
				}
			case op < 255: // the memory server hands over to itself
				st.memSrv.HandOver(st.memSrv)
			default: // the memory server restarts empty
				st.startMemory(t)
			}
		}
	})
}

// randomMemoScript draws a script that re-asks unchanged series often
// enough for the memo to matter.
func randomMemoScript(rng *rand.Rand, ops int) []byte {
	var data []byte
	for i := 0; i < ops; i++ {
		switch p := rng.Intn(100); {
		case p < 35:
			data = append(data, byte(rng.Intn(120)), byte(rng.Intn(256)))
		case p < 98:
			data = append(data, byte(120+rng.Intn(130)), byte(rng.Intn(32)), byte(rng.Intn(5)))
		case p < 99:
			data = append(data, byte(250+rng.Intn(5)))
		default:
			data = append(data, 255)
		}
	}
	return data
}

func TestMemoTransparentSeeded(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		runMemoScript(t, randomMemoScript(rand.New(rand.NewSource(seed)), 150))
	}
}

func FuzzMemoTransparent(f *testing.F) {
	f.Add(randomMemoScript(rand.New(rand.NewSource(99)), 60))
	// One series: filled, asked at every count twice, slid by one sample,
	// lost in a restart, re-created shorter, asked again.
	f.Add([]byte{20, 200, 120, 0, 0, 120, 0, 0, 120, 0, 3, 120, 0, 3, 5, 4, 120, 0, 3, 255, 120, 0, 3, 5, 4, 120, 0, 3})
	// A level window whose newest sample alone changes.
	f.Add([]byte{40, 7, 120, 0, 1, 5, 8, 120, 0, 1, 120, 0, 0, 5, 9, 120, 0, 0})
	// Windows equal by == but not by bits: five +0 then five -0, five NaNs
	// of one payload then five of another.
	f.Add([]byte{40, 0, 120, 0, 1, 5, 1, 5, 1, 5, 1, 5, 1, 5, 1, 120, 0, 1})
	f.Add([]byte{40, 4, 120, 0, 1, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 120, 0, 1})
	// Tokens: one series asked three times unchanged (a token hit), its
	// server handed over to itself (new tokens, equal windows),
	// asked again, slid by one sample, asked again.
	f.Add([]byte{20, 200, 120, 0, 0, 120, 0, 0, 120, 0, 0, 250, 120, 0, 0, 5, 4, 120, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			data = data[:256]
		}
		runMemoScript(t, data)
	})
}

// sampleValue is sample k of series i in storeWindows: noise in [0, 1),
// the same on every run.
func sampleValue(i, k int) float64 {
	return float64(uint32(i*7919+k)*2654435761>>8) / (1 << 24)
}

// windowStart is the timestamp of a stored window's first sample. Every
// timestamp from it up to 78 hours on zigzag-encodes in 7 bytes, so a
// window's frame length does not depend on how far it has slid.
const windowStart = 2200 * time.Second

// storeWindows stores n samples to each series, one a second from
// windowStart.
func storeWindows(t testing.TB, cli *proto.Station, series []string, n int) {
	t.Helper()
	mc := memory.NewClient(cli, "mem")
	for i, name := range series {
		samples := make([]proto.Sample, n)
		for k := range samples {
			samples[k] = proto.Sample{At: windowStart + time.Duration(k)*time.Second, Value: sampleValue(i, k)}
		}
		if err := mc.Store(name, samples...); err != nil {
			t.Fatalf("store %s: %v", name, err)
		}
	}
}

func seriesNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("s%03d", i)
	}
	return names
}

func requestsFor(series []string) []proto.SeriesRequest {
	reqs := make([]proto.SeriesRequest, len(series))
	for i, name := range series {
		reqs[i] = proto.SeriesRequest{Series: name}
	}
	return reqs
}

// TestUnchangedWindowIsNotReplayed: a batch asked twice with nothing
// stored in between is answered from the memo the second time, and the
// hit path allocates nothing.
func TestUnchangedWindowIsNotReplayed(t *testing.T) {
	const history = 64
	sim, st := simStack(t, history)
	series := seriesNames(20)
	drive(t, sim, func() {
		storeWindows(t, st.cli, series, 100)
		checkAgainstOracle(t, st.cli, history, requestsFor(series))
		if h, m := st.counter("memo_hits"), st.counter("memo_misses"); h != 0 || m != 20 {
			t.Fatalf("first batch: %d hits, %d misses, want 0 and 20", h, m)
		}
		checkAgainstOracle(t, st.cli, history, requestsFor(series))
		if h, m := st.counter("memo_hits"), st.counter("memo_misses"); h != 20 || m != 20 {
			t.Fatalf("second batch: %d hits, %d misses, want 20 and 20", h, m)
		}
	})
	if e, s := st.reg.Gauge("forecast", "memo_entries", nil).Value(), st.reg.Gauge("forecast", "memo_samples", nil).Value(); e != 20 || s != 20*history {
		t.Fatalf("memo_entries %v, memo_samples %v, want 20 and %d", e, s, 20*history)
	}

	window := make([]proto.Sample, history)
	for k := range window {
		window[k].Value = sampleValue(0, 100-history+k) // s000's newest 64
	}
	var res proto.ForecastResult
	allocs := testing.AllocsPerRun(100, func() { res = st.srv.memo.forecast("s000", history, 0, window) })
	if allocs != 0 || res.Count != history || st.counter("memo_misses") != 20 {
		t.Fatalf("hit path: %v allocs/series, result %+v, %d misses", allocs, res, st.counter("memo_misses"))
	}
}

// TestMemoBound: a cyclic scan over more windows than the memo may hold
// never retains more than the bound, evicts, keeps some of its hits (an
// LRU would keep none), still answers exactly — and does all of it the
// same way twice.
func TestMemoBound(t *testing.T) {
	const history, nSeries, batch = 32, 30, 5
	const bound = 24 * history
	run := func() (trace []string) {
		sim, st := simStack(t, history)
		st.srv.memo.max = bound
		series := seriesNames(nSeries)
		samples := st.reg.Gauge("forecast", "memo_samples", nil)
		drive(t, sim, func() {
			storeWindows(t, st.cli, series, history)
			for cycle := 0; cycle < 6; cycle++ {
				for at := 0; at < nSeries; at += batch {
					checkAgainstOracle(t, st.cli, history, requestsFor(series[at:at+batch]))
					if st.srv.memo.samples > bound || samples.Value() != float64(st.srv.memo.samples) {
						t.Fatalf("memo retains %d samples (gauge %v), bound %d", st.srv.memo.samples, samples.Value(), bound)
					}
					held := make([]string, len(st.srv.memo.entries))
					for i, e := range st.srv.memo.entries {
						held[i] = e.result.Series
					}
					trace = append(trace, fmt.Sprintf("%s hits=%d misses=%d evictions=%d", strings.Join(held, ","),
						st.counter("memo_hits"), st.counter("memo_misses"), st.counter("memo_evictions")))
				}
			}
		})
		if samples.Max() > bound {
			t.Fatalf("memo_samples peaked at %v, bound %d", samples.Max(), bound)
		}
		if h, e := st.counter("memo_hits"), st.counter("memo_evictions"); h == 0 || e == 0 {
			t.Fatalf("cyclic scan of %d windows over a memo of 24: %d hits, %d evictions, want both > 0", nSeries, h, e)
		}
		return trace
	}
	first, second := run(), run()
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("step %d differs between two runs:\n%s\n%s", i, first[i], second[i])
		}
	}
}

// TestDegradedOverlayIsNotRemembered: one window served by a lagging
// replica, then by the primary, then by the replica again. The
// prediction is remembered across all three; Replica, Lag, Code and
// Error come from each fetch alone.
func TestDegradedOverlayIsNotRemembered(t *testing.T) {
	sim, st := simStack(t, 64)
	window := make([]proto.Sample, 40)
	values := make([]float64, len(window))
	for k := range window {
		values[k] = float64(k % 5)
		window[k] = proto.Sample{At: time.Duration(k) * time.Second, Value: values[k]}
	}
	want, _ := predict.Run(values)

	// A scripted backend in the memory server's place: it owns series
	// "s" and marks its answers as the script says.
	st.mem.Close()
	backend := st.open(t, "mem")
	lags := []int64{3, 0, 7}
	sim.Go("backend", func() {
		for _, lag := range lags {
			req, ok := backend.Recv()
			if !ok {
				return
			}
			backend.Reply(req, proto.Message{Type: proto.MsgBatchFetchReply, Version: proto.V3, Results: []proto.SeriesResult{
				{Series: "s", Samples: window, Replica: lag > 0, Lag: lag},
			}})
		}
	})
	drive(t, sim, func() {
		if err := nameserver.NewClient(st.cli, "ns").Register(proto.Registration{Name: "s", Kind: "series", Host: "mem"}); err != nil {
			t.Fatal(err)
		}
		for i, lag := range lags {
			res, err := NewClient(st.cli, "fc").BatchForecast([]proto.SeriesRequest{{Series: "s"}})
			if err != nil || len(res) != 1 {
				t.Fatalf("ask %d: %v, %d results", i, err, len(res))
			}
			g := res[0]
			if math.Float64bits(g.Value) != math.Float64bits(want.Value) || g.Method != want.Method || g.Count != len(window) {
				t.Fatalf("ask %d: prediction %+v, want %+v", i, g, want)
			}
			degraded := lag > 0
			if g.Replica != degraded || g.Lag != lag || (g.Code == proto.CodeDegraded) != degraded || (g.Error != "") != degraded {
				t.Fatalf("ask %d (lag %d): overlay %+v", i, lag, g)
			}
			if degraded && !strings.Contains(g.Error, fmt.Sprintf("lag %d ", lag)) {
				t.Fatalf("ask %d: error %q does not carry this fetch's lag %d", i, g.Error, lag)
			}
		}
	})
	if h, m := st.counter("memo_hits"), st.counter("memo_misses"); h != 2 || m != 1 {
		t.Fatalf("%d hits, %d misses, want 2 and 1", h, m)
	}
}

// TestMemoOnTCPRuntime: two clients on real sockets store to their own
// series and forecast them beside shared ones at the same time. The
// memo has no lock because the server loop alone touches it; the race
// detector holds it to that.
func TestMemoOnTCPRuntime(t *testing.T) {
	const history = 64
	st := newStack(t, proto.NewTCPTransport(), history)
	shared := seriesNames(6)
	storeWindows(t, st.cli, shared, 100)
	var wg sync.WaitGroup
	for i, cli := range []*proto.Station{st.cli, st.cli2} {
		wg.Add(1)
		go func(own string, cli *proto.Station) {
			defer wg.Done()
			reqs := append(requestsFor(shared), proto.SeriesRequest{Series: own, Count: 8})
			mc := memory.NewClient(cli, "mem")
			for k := 0; k < 40; k++ {
				if err := mc.Store(own, proto.Sample{At: time.Duration(k) * time.Second, Value: float64(k % 3)}); err != nil {
					t.Errorf("store %s: %v", own, err)
					return
				}
				if err := oracleDiff(cli, history, reqs); err != nil {
					t.Errorf("%s, round %d: %v", own, k, err)
					return
				}
			}
		}(fmt.Sprintf("own%d", i), cli)
	}
	wg.Wait()
	if h := st.counter("memo_hits"); h < 2*39*int64(len(shared)) {
		t.Errorf("%d memo hits, want at least %d: the shared windows never change", h, 2*39*len(shared))
	}
	for _, s := range st.opened {
		s.Close()
	}
}
