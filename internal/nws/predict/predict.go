// Package predict is the NWS statistical forecasting core: a battery of
// simple predictors run in parallel over each measurement series, with
// the predictor that has accumulated the lowest error chosen to produce
// the next forecast (Wolski et al., "The Network Weather Service", FGCS
// 1999 — the forecasting machinery §2.1 of the reproduced paper relies
// on).
//
// predict is a leaf package: it depends on nothing but the standard
// library, so every layer of the system — the forecaster role
// (nws/forecast), the query-plane facade (query), the gateway, tools —
// can share the Prediction vocabulary without import cycles. The
// deployable forecaster server lives in nws/forecast; this package is
// pure computation.
package predict

import "math"

// Predictor produces one-step-ahead forecasts from a stream of values.
type Predictor interface {
	// Name identifies the method in reports.
	Name() string
	// Predict returns the forecast for the next value; ok is false while
	// the method has insufficient history.
	Predict() (v float64, ok bool)
	// Observe feeds the actual next value.
	Observe(v float64)
}

// ---- Individual predictors ----

type lastValue struct {
	v   float64
	has bool
}

func (p *lastValue) Name() string { return "last" }
func (p *lastValue) Predict() (float64, bool) {
	return p.v, p.has
}
func (p *lastValue) Observe(v float64) { p.v, p.has = v, true }

type runningMean struct {
	sum float64
	n   int
}

func (p *runningMean) Name() string { return "run_mean" }
func (p *runningMean) Predict() (float64, bool) {
	if p.n == 0 {
		return 0, false
	}
	return p.sum / float64(p.n), true
}
func (p *runningMean) Observe(v float64) { p.sum += v; p.n++ }

// window is a fixed-capacity ring holding the most recent values in
// arrival order.
type window struct {
	name string
	buf  []float64 // grows to its capacity, then wraps
	head int       // index of the oldest value once full
}

func newWindow(name string, size int) window {
	return window{name: name, buf: make([]float64, 0, size)}
}

func (w *window) Name() string { return w.name }

// push stores v, returning the value it evicted once the ring is full.
func (w *window) push(v float64) (old float64, evicted bool) {
	if len(w.buf) < cap(w.buf) {
		w.buf = append(w.buf, v)
		return 0, false
	}
	old = w.buf[w.head]
	w.buf[w.head] = v
	if w.head++; w.head == len(w.buf) {
		w.head = 0
	}
	return old, true
}

type slidingMean struct{ window }

func (p *slidingMean) Predict() (float64, bool) {
	if len(p.buf) == 0 {
		return 0, false
	}
	// Summed oldest to newest, not kept as a running sum: the rounding of
	// every forecast depends on this order.
	var s float64
	for _, v := range p.buf[p.head:] {
		s += v
	}
	for _, v := range p.buf[:p.head] {
		s += v
	}
	return s / float64(len(p.buf)), true
}
func (p *slidingMean) Observe(v float64) { p.push(v) }

// sortedWindow is a window that also keeps its values in the order
// sort.Float64s would give them (ascending, NaNs first), maintained by
// one insertion and one removal per sample, so order statistics are read
// off without copying or sorting.
type sortedWindow struct {
	window
	sorted []float64
}

func newSortedWindow(name string, size int) sortedWindow {
	return sortedWindow{window: newWindow(name, size), sorted: make([]float64, 0, size)}
}

// lowerBound returns the first index of ascending s whose value does not
// order before v; s[i] is v's equal (or both are NaN) when v is in s.
func lowerBound(s []float64, v float64) int {
	if v != v {
		return 0
	}
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] >= v {
			hi = mid
		} else { // smaller, or a NaN
			lo = mid + 1
		}
	}
	return lo
}

func (w *sortedWindow) Observe(v float64) {
	s := w.sorted
	i := lowerBound(s, v)
	old, evicted := w.push(v)
	if !evicted {
		s = append(s, 0)
		copy(s[i+1:], s[i:])
		s[i] = v
		w.sorted = s
		return
	}
	// Close the evicted value's slot and open v's in one shift of the
	// values between them.
	if r := lowerBound(s, old); r < i {
		copy(s[r:], s[r+1:i])
		s[i-1] = v
	} else {
		copy(s[i+1:r+1], s[i:r])
		s[i] = v
	}
}

type slidingMedian struct{ sortedWindow }

func (p *slidingMedian) Predict() (float64, bool) {
	n := len(p.sorted)
	if n == 0 {
		return 0, false
	}
	if n%2 == 1 {
		return p.sorted[n/2], true
	}
	return (p.sorted[n/2-1] + p.sorted[n/2]) / 2, true
}

type trimmedMean struct {
	sortedWindow
	trim float64 // fraction trimmed at each end
}

func (p *trimmedMean) Predict() (float64, bool) {
	n := len(p.sorted)
	if n == 0 {
		return 0, false
	}
	k := int(float64(n) * p.trim)
	kept := p.sorted[k : n-k]
	if len(kept) == 0 {
		return 0, false
	}
	var s float64
	for _, v := range kept {
		s += v
	}
	return s / float64(len(kept)), true
}

type expSmooth struct {
	name string
	gain float64
	v    float64
	has  bool
}

func (p *expSmooth) Name() string { return p.name }
func (p *expSmooth) Predict() (float64, bool) {
	return p.v, p.has
}
func (p *expSmooth) Observe(v float64) {
	if !p.has {
		p.v, p.has = v, true
		return
	}
	p.v = p.gain*v + (1-p.gain)*p.v
}

// ar1 is an online first-order autoregressive model x_t ≈ a·x_{t-1} + b,
// fit by accumulating least-squares sums.
type ar1 struct {
	prev          float64
	hasPrev       bool
	n             float64
	sx, sy        float64
	sxx, sxy      float64
	lastGoodSlope float64
}

func (p *ar1) Name() string { return "ar1" }
func (p *ar1) Predict() (float64, bool) {
	if p.n < 2 {
		return 0, false
	}
	den := p.n*p.sxx - p.sx*p.sx
	var a, b float64
	if math.Abs(den) < 1e-12 {
		a, b = 0, p.sy/p.n
	} else {
		a = (p.n*p.sxy - p.sx*p.sy) / den
		b = (p.sy - a*p.sx) / p.n
	}
	// Clamp runaway slopes: AR(1) on short noisy series can explode.
	if a > 2 || a < -2 {
		a = p.lastGoodSlope
		b = p.sy/p.n - a*p.sx/p.n
	}
	return a*p.prev + b, true
}
func (p *ar1) Observe(v float64) {
	if p.hasPrev {
		p.n++
		p.sx += p.prev
		p.sy += v
		p.sxx += p.prev * p.prev
		p.sxy += p.prev * v
	}
	p.prev, p.hasPrev = v, true
}

// ---- Battery ----

// Prediction is the battery's answer for the next value of a series.
type Prediction struct {
	Value float64
	// Method is the predictor that produced Value (lowest cumulative MAE).
	Method string
	// MAE and MSE are the chosen method's cumulative error statistics.
	MAE float64
	MSE float64
	// N is the number of observations scored so far.
	N int
}

type member struct {
	p        Predictor
	absErr   float64
	sqErr    float64
	nsamples int
}

// Battery runs the full NWS predictor set in parallel and forecasts with
// the historically most accurate member.
type Battery struct {
	members []*member
	n       int
}

// NewBattery assembles the standard predictor set: last value, running
// mean, sliding means/medians over several windows, a trimmed mean,
// exponential smoothing at several gains, and AR(1).
func NewBattery() *Battery {
	ps := []Predictor{
		&lastValue{},
		&runningMean{},
		&slidingMean{newWindow("mean5", 5)},
		&slidingMean{newWindow("mean10", 10)},
		&slidingMean{newWindow("mean21", 21)},
		&slidingMean{newWindow("mean51", 51)},
		&slidingMedian{newSortedWindow("median5", 5)},
		&slidingMedian{newSortedWindow("median21", 21)},
		&slidingMedian{newSortedWindow("median51", 51)},
		&trimmedMean{sortedWindow: newSortedWindow("trim31", 31), trim: 0.1},
		&expSmooth{name: "exp0.05", gain: 0.05},
		&expSmooth{name: "exp0.10", gain: 0.1},
		&expSmooth{name: "exp0.30", gain: 0.3},
		&expSmooth{name: "exp0.50", gain: 0.5},
		&expSmooth{name: "exp0.90", gain: 0.9},
		&ar1{},
	}
	b := &Battery{}
	for _, p := range ps {
		b.members = append(b.members, &member{p: p})
	}
	return b
}

// Update scores every predictor against the actual value v, then feeds v
// to all of them.
func (b *Battery) Update(v float64) {
	for _, m := range b.members {
		if pred, ok := m.p.Predict(); ok {
			e := pred - v
			m.absErr += math.Abs(e)
			m.sqErr += e * e
			m.nsamples++
		}
		m.p.Observe(v)
	}
	b.n++
}

// N returns the number of observations consumed.
func (b *Battery) N() int { return b.n }

// Forecast returns the prediction of the member with the lowest mean
// absolute error so far. ok is false until at least one member can
// predict.
func (b *Battery) Forecast() (Prediction, bool) {
	var best *member
	var bestMAE float64
	for _, m := range b.members {
		if _, can := m.p.Predict(); !can {
			continue
		}
		mae := math.Inf(1)
		if m.nsamples > 0 {
			mae = m.absErr / float64(m.nsamples)
		}
		if best == nil || mae < bestMAE {
			best, bestMAE = m, mae
		}
	}
	if best == nil {
		return Prediction{}, false
	}
	v, _ := best.p.Predict()
	pred := Prediction{Value: v, Method: best.p.Name(), N: best.nsamples}
	if best.nsamples > 0 {
		pred.MAE = best.absErr / float64(best.nsamples)
		pred.MSE = best.sqErr / float64(best.nsamples)
	}
	return pred, true
}

// MethodError returns the cumulative MAE of a named member (for tests
// and the forecaster-accuracy experiment); ok is false for unknown names
// or unscored members.
func (b *Battery) MethodError(name string) (mae float64, ok bool) {
	for _, m := range b.members {
		if m.p.Name() == name && m.nsamples > 0 {
			return m.absErr / float64(m.nsamples), true
		}
	}
	return 0, false
}

// Methods lists member names in battery order.
func (b *Battery) Methods() []string {
	out := make([]string, 0, len(b.members))
	for _, m := range b.members {
		out = append(out, m.p.Name())
	}
	return out
}

// Run replays a whole series through a fresh battery and returns the
// final one-step forecast; convenient for request/reply forecasters that
// fetch history from a memory server.
func Run(values []float64) (Prediction, bool) {
	b := NewBattery()
	for _, v := range values {
		b.Update(v)
	}
	return b.Forecast()
}
