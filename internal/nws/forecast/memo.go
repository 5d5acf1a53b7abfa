package forecast

import (
	"math"

	"nwsenv/internal/nws/predict"
	"nwsenv/internal/nws/proto"
	"nwsenv/internal/telemetry"
)

// maxMemoSamples bounds the float64 values the forecast memo retains:
// 32 MiB, 16,384 windows of the default 256 samples.
const maxMemoSamples = 4 << 20

// memoEntry is one remembered forecast: the window's values in the
// entry's own buffer, the clean result predict.Run gave for them, and
// the Count and memory-server token they were fetched under.
type memoEntry struct {
	values []float64
	result proto.ForecastResult
	count  int
	token  proto.WindowToken
}

// memo is the forecaster's per-series forecast memo; see Server.
type memo struct {
	index   map[string]int // series -> position in entries
	entries []memoEntry    // dense; eviction swaps the last entry in
	samples int            // values retained across entries, <= max
	max     int
	rng     uint64 // xorshift64 state choosing eviction victims

	hits, misses, evictions *telemetry.Counter
	entriesG, samplesG      *telemetry.Gauge
}

// sameWindow reports whether samples carry exactly the remembered
// values. Newest first: a window that slid by one sample differs in its
// last word.
func sameWindow(values []float64, samples []proto.Sample) bool {
	if len(values) != len(samples) {
		return false
	}
	for i := len(values) - 1; i >= 0; i-- {
		if math.Float64bits(values[i]) != math.Float64bits(samples[i].Value) {
			return false
		}
	}
	return true
}

// remove drops entry i, keeping the slice dense, and returns its buffer
// for reuse.
func (m *memo) remove(i int) []float64 {
	e := m.entries[i]
	delete(m.index, e.result.Series)
	m.samples -= len(e.values)
	last := len(m.entries) - 1
	if i != last {
		m.entries[i] = m.entries[last]
		m.index[m.entries[i].result.Series] = i
	}
	m.entries[last] = memoEntry{}
	m.entries = m.entries[:last]
	return e.values
}

// token is what a fetch of series at count sends: the token of the
// remembered window when it was fetched at that count under one, else
// proto.AskToken. Never zero, so a reply's token equals it only when
// the memory server stamped the reply.
func (m *memo) token(series string, count int) proto.WindowToken {
	if i, ok := m.index[series]; ok {
		if e := &m.entries[i]; e.count == count && e.token != 0 {
			return e.token
		}
	}
	return proto.AskToken
}

// held answers a fetch the memory server found unchanged: the result
// remembered under tok, or false when no entry holds it.
func (m *memo) held(series string, count int, tok proto.WindowToken) (proto.ForecastResult, bool) {
	i, ok := m.index[series]
	if !ok || m.entries[i].count != count || m.entries[i].token != tok {
		return proto.ForecastResult{}, false
	}
	m.hits.Inc()
	return m.entries[i].result, true
}

// forecast answers one window fetched at count under tok: the
// remembered result when the window is the one last replayed for the
// series (which then takes count and tok as its own), otherwise
// predict.Run over it, remembered in its place (Error set, and nothing
// remembered, on empty or insufficient history).
func (m *memo) forecast(series string, count int, tok proto.WindowToken, samples []proto.Sample) proto.ForecastResult {
	if len(samples) == 0 {
		return proto.ForecastResult{Series: series, Error: "series " + series + " is empty"}
	}
	var values []float64
	if i, ok := m.index[series]; ok {
		if e := &m.entries[i]; sameWindow(e.values, samples) {
			m.hits.Inc()
			e.count, e.token = count, tok
			return e.result
		}
		values = m.remove(i)[:0]
	}
	m.misses.Inc()
	if cap(values) < len(samples) {
		values = make([]float64, 0, len(samples))
	}
	for _, sm := range samples {
		values = append(values, sm.Value)
	}
	pred, ok := predict.Run(values)
	if !ok {
		return proto.ForecastResult{Series: series, Error: "insufficient history for " + series}
	}
	res := proto.ForecastResult{
		Series: series, Value: pred.Value, MAE: pred.MAE, MSE: pred.MSE,
		Method: pred.Method, Count: len(values),
	}
	if len(values) > m.max {
		return res // one window over the whole bound: answered, not remembered
	}
	for m.samples+len(values) > m.max {
		m.rng ^= m.rng << 13
		m.rng ^= m.rng >> 7
		m.rng ^= m.rng << 17
		m.remove(int(m.rng % uint64(len(m.entries))))
		m.evictions.Inc()
	}
	m.index[series] = len(m.entries)
	m.entries = append(m.entries, memoEntry{values: values, result: res, count: count, token: tok})
	m.samples += len(values)
	return res
}
