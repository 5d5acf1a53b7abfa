package predict

import (
	"fmt"
	"sort"
)

// The copy-and-sort predictors as they stood before the windows became
// rings with an incrementally sorted view, kept word for word (type names
// aside) as the reference the differential test and fuzz target compare
// the battery against. Test-only: production has one implementation.

type refWindow struct {
	buf  []float64
	size int
}

func (w *refWindow) push(v float64) {
	w.buf = append(w.buf, v)
	if len(w.buf) > w.size {
		w.buf = w.buf[1:]
	}
}

type refSlidingMean struct{ refWindow }

func (p *refSlidingMean) Name() string { return fmt.Sprintf("mean%d", p.size) }
func (p *refSlidingMean) Predict() (float64, bool) {
	if len(p.buf) == 0 {
		return 0, false
	}
	var s float64
	for _, v := range p.buf {
		s += v
	}
	return s / float64(len(p.buf)), true
}
func (p *refSlidingMean) Observe(v float64) { p.push(v) }

type refSlidingMedian struct{ refWindow }

func (p *refSlidingMedian) Name() string { return fmt.Sprintf("median%d", p.size) }
func (p *refSlidingMedian) Predict() (float64, bool) {
	n := len(p.buf)
	if n == 0 {
		return 0, false
	}
	tmp := append([]float64(nil), p.buf...)
	sort.Float64s(tmp)
	if n%2 == 1 {
		return tmp[n/2], true
	}
	return (tmp[n/2-1] + tmp[n/2]) / 2, true
}
func (p *refSlidingMedian) Observe(v float64) { p.push(v) }

type refTrimmedMean struct {
	refWindow
	trim float64 // fraction trimmed at each end
}

func (p *refTrimmedMean) Name() string { return fmt.Sprintf("trim%d", p.size) }
func (p *refTrimmedMean) Predict() (float64, bool) {
	n := len(p.buf)
	if n == 0 {
		return 0, false
	}
	tmp := append([]float64(nil), p.buf...)
	sort.Float64s(tmp)
	k := int(float64(n) * p.trim)
	tmp = tmp[k : n-k]
	if len(tmp) == 0 {
		return 0, false
	}
	var s float64
	for _, v := range tmp {
		s += v
	}
	return s / float64(len(tmp)), true
}
func (p *refTrimmedMean) Observe(v float64) { p.push(v) }

type refExpSmooth struct {
	gain float64
	v    float64
	has  bool
}

func (p *refExpSmooth) Name() string { return fmt.Sprintf("exp%.2f", p.gain) }
func (p *refExpSmooth) Predict() (float64, bool) {
	return p.v, p.has
}
func (p *refExpSmooth) Observe(v float64) {
	if !p.has {
		p.v, p.has = v, true
		return
	}
	p.v = p.gain*v + (1-p.gain)*p.v
}

// newRefBattery is NewBattery with the reference predictors in the
// windowed and named slots; scoring and selection are the battery's own.
func newRefBattery() *Battery {
	ps := []Predictor{
		&lastValue{},
		&runningMean{},
		&refSlidingMean{refWindow{size: 5}},
		&refSlidingMean{refWindow{size: 10}},
		&refSlidingMean{refWindow{size: 21}},
		&refSlidingMean{refWindow{size: 51}},
		&refSlidingMedian{refWindow{size: 5}},
		&refSlidingMedian{refWindow{size: 21}},
		&refSlidingMedian{refWindow{size: 51}},
		&refTrimmedMean{refWindow: refWindow{size: 31}, trim: 0.1},
		&refExpSmooth{gain: 0.05},
		&refExpSmooth{gain: 0.1},
		&refExpSmooth{gain: 0.3},
		&refExpSmooth{gain: 0.5},
		&refExpSmooth{gain: 0.9},
		&ar1{},
	}
	b := &Battery{}
	for _, p := range ps {
		b.members = append(b.members, &member{p: p})
	}
	return b
}
