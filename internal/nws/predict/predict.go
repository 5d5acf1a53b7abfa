// Package predict is the NWS statistical forecasting core: a battery of
// simple predictors run in parallel over each measurement series, with
// the predictor that has accumulated the lowest error chosen to produce
// the next forecast (Wolski et al., "The Network Weather Service", FGCS
// 1999 — the forecasting machinery §2.1 of the reproduced paper relies
// on).
//
// A Battery is fed one sample at a time: Update scores every member
// against the sample, then shows it to every member. Run answers the
// same question for a whole window at once, member-major: it replays
// the window through one member at a time and applies Forecast's
// selection to the final scores. Per member the arithmetic is the same
// operations in the same order, so Run's Prediction is bit-identical to
// a Battery fed the window, and it allocates nothing.
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

// maxWindow is the widest window a member keeps.
const maxWindow = 51

// window is a fixed-capacity ring holding the most recent values in
// arrival order.
type window struct {
	name string
	buf  [maxWindow]float64
	size int // capacity, at most maxWindow
	n    int // values held; grows to size, then stays
	head int // slot of the oldest value once full
}

func newWindow(name string, size int) window {
	return window{name: name, size: size}
}

func (w *window) Name() string { return w.name }

// push stores v and returns its slot, and whether it overwrote the
// oldest value there.
func (w *window) push(v float64) (slot int, evicted bool) {
	if w.n < w.size {
		w.buf[w.n] = v
		w.n++
		return w.n - 1, false
	}
	slot = w.head
	w.buf[slot] = v
	if w.head++; w.head == w.size {
		w.head = 0
	}
	return slot, true
}

type slidingMean struct{ window }

func (p *slidingMean) Predict() (float64, bool) {
	if p.n == 0 {
		return 0, false
	}
	// Summed oldest to newest, not kept as a running sum: the rounding of
	// every forecast depends on this order.
	var s float64
	for _, v := range p.buf[p.head:p.n] {
		s += v
	}
	for _, v := range p.buf[:p.head] {
		s += v
	}
	return s / float64(p.n), true
}
func (p *slidingMean) Observe(v float64) { p.push(v) }

// replayMean scores a fresh sliding mean of the given size over values
// as Update would, and returns its next forecast. The sums are
// Predict's, bit for bit: while the window fills they are prefix sums,
// kept running; once it is full each is summed oldest to newest from
// zero, four consecutive windows at a time in independent accumulators
// so that their dependent adds overlap.
func replayMean(size int, values []float64) (sc score, next float64, ok bool) {
	n := len(values)
	if n == 0 {
		return sc, 0, false
	}
	var prefix float64
	i := 1 // the sample being predicted, from values[:i]
	for ; i <= size; i++ {
		prefix += values[i-1]
		if i == n {
			return sc, prefix / float64(i), true
		}
		sc.add(prefix/float64(i), values[i])
	}
	d := float64(size)
	for ; i+3 < n; i += 4 {
		w := values[i-size : i+3]
		var s0, s1, s2, s3 float64
		for j := 0; j < size; j++ {
			s0 += w[j]
			s1 += w[j+1]
			s2 += w[j+2]
			s3 += w[j+3]
		}
		sc.add(s0/d, values[i])
		sc.add(s1/d, values[i+1])
		sc.add(s2/d, values[i+2])
		sc.add(s3/d, values[i+3])
	}
	for ; ; i++ {
		var s float64
		for _, v := range values[i-size : i] {
			s += v
		}
		if i == n {
			return sc, s / d, true
		}
		sc.add(s/d, values[i])
	}
}

// sortedWindow is a window that also keeps its values in the order
// sort.Float64s would give them (ascending, NaNs first), so order
// statistics are read off without copying or sorting. Each sorted value
// knows its ring slot and each slot its sorted index, so the value a
// push evicts is found without a search; the new value takes its index
// and steps to its place past the values between them.
type sortedWindow struct {
	window
	sorted [maxWindow]float64 // sorted[:n] is the ring's values in order
	slotOf [maxWindow]uint8   // ring slot of each sorted value
	rankOf [maxWindow]uint8   // sorted index of each ring slot's value
}

func newSortedWindow(name string, size int) sortedWindow {
	return sortedWindow{window: newWindow(name, size)}
}

// before is the order of sort.Float64s: ascending, NaNs first.
func before(a, b float64) bool { return a < b || a != a && b == b }

func (w *sortedWindow) Observe(v float64) {
	slot, evicted := w.push(v)
	i := w.n - 1 // a new value enters at the top
	if evicted {
		i = int(w.rankOf[slot])
	}
	for i > 0 && before(v, w.sorted[i-1]) {
		w.place(i, w.sorted[i-1], w.slotOf[i-1])
		i--
	}
	for i < w.n-1 && before(w.sorted[i+1], v) {
		w.place(i, w.sorted[i+1], w.slotOf[i+1])
		i++
	}
	w.place(i, v, uint8(slot))
}

// place puts the value of ring slot slot at sorted index i.
func (w *sortedWindow) place(i int, v float64, slot uint8) {
	w.sorted[i], w.slotOf[i], w.rankOf[slot] = v, slot, uint8(i)
}

type slidingMedian struct{ sortedWindow }

func (p *slidingMedian) Predict() (float64, bool) {
	n := p.n
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
	n := p.n
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

// score is one member's cumulative error.
type score struct {
	absErr, sqErr float64
	n             int
}

// add scores the forecast pred against the actual value v.
func (s *score) add(pred, v float64) {
	e := pred - v
	s.absErr += math.Abs(e)
	s.sqErr += e * e
	s.n++
}

// choice is the selection rule Forecast and Run share: of the members
// that can predict, offered in battery order, the first with the lowest
// mean absolute error (an unscored member's is +Inf).
type choice struct {
	p     Predictor
	value float64
	sc    score
	mae   float64
}

func (c *choice) offer(p Predictor, value float64, can bool, sc score) {
	if !can {
		return
	}
	mae := math.Inf(1)
	if sc.n > 0 {
		mae = sc.absErr / float64(sc.n)
	}
	if c.p == nil || mae < c.mae {
		*c = choice{p: p, value: value, sc: sc, mae: mae}
	}
}

func (c *choice) prediction() (Prediction, bool) {
	if c.p == nil {
		return Prediction{}, false
	}
	pred := Prediction{Value: c.value, Method: c.p.Name(), N: c.sc.n}
	if c.sc.n > 0 {
		pred.MAE = c.sc.absErr / float64(c.sc.n)
		pred.MSE = c.sc.sqErr / float64(c.sc.n)
	}
	return pred, true
}

type member struct {
	p Predictor
	score
}

// Battery runs the full NWS predictor set in parallel and forecasts with
// the historically most accurate member.
type Battery struct {
	members []*member
	n       int
}

// standard is the predictor set in battery order: last value, running
// mean, sliding means/medians over several windows, a trimmed mean,
// exponential smoothing at several gains, and AR(1).
func standard() []Predictor {
	return []Predictor{
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
}

// NewBattery assembles the standard predictor set.
func NewBattery() *Battery {
	b := &Battery{}
	for _, p := range standard() {
		b.members = append(b.members, &member{p: p})
	}
	return b
}

// Update scores every predictor against the actual value v, then feeds v
// to all of them.
func (b *Battery) Update(v float64) {
	for _, m := range b.members {
		if pred, ok := m.p.Predict(); ok {
			m.add(pred, v)
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
	var c choice
	for _, m := range b.members {
		v, can := m.p.Predict()
		c.offer(m.p, v, can, m.score)
	}
	return c.prediction()
}

// MethodError returns the cumulative MAE of a named member (for tests
// and the forecaster-accuracy experiment); ok is false for unknown names
// or unscored members.
func (b *Battery) MethodError(name string) (mae float64, ok bool) {
	for _, m := range b.members {
		if m.p.Name() == name && m.n > 0 {
			return m.absErr / float64(m.n), true
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

// fresh is the standard set, never fed: Run copies each member's
// initial state from it.
var fresh = standard()

// Run replays a whole series through a fresh battery and returns the
// final one-step forecast; convenient for request/reply forecasters that
// fetch history from a memory server. It equals a NewBattery fed values
// by Update, bit for bit, but replays member by member, each on its
// concrete type.
func Run(values []float64) (Prediction, bool) {
	var c choice
	for _, initial := range fresh {
		var sc score
		var next float64
		var can bool
		// Each case spells the loop out on its own type so that Predict
		// and Observe inline; a generic or interface loop would make an
		// indirect call per sample.
		switch p := initial.(type) {
		case *lastValue:
			q := *p
			for _, v := range values {
				if pred, ok := q.Predict(); ok {
					sc.add(pred, v)
				}
				q.Observe(v)
			}
			next, can = q.Predict()
		case *runningMean: // a sliding mean whose window never fills
			sc, next, can = replayMean(len(values)+1, values)
		case *slidingMean:
			sc, next, can = replayMean(p.size, values)
		case *slidingMedian:
			q := *p
			for _, v := range values {
				if pred, ok := q.Predict(); ok {
					sc.add(pred, v)
				}
				q.Observe(v)
			}
			next, can = q.Predict()
		case *trimmedMean:
			q := *p
			for _, v := range values {
				if pred, ok := q.Predict(); ok {
					sc.add(pred, v)
				}
				q.Observe(v)
			}
			next, can = q.Predict()
		case *expSmooth:
			q := *p
			for _, v := range values {
				if pred, ok := q.Predict(); ok {
					sc.add(pred, v)
				}
				q.Observe(v)
			}
			next, can = q.Predict()
		case *ar1:
			q := *p
			for _, v := range values {
				if pred, ok := q.Predict(); ok {
					sc.add(pred, v)
				}
				q.Observe(v)
			}
			next, can = q.Predict()
		}
		c.offer(initial, next, can, sc)
	}
	return c.prediction()
}
