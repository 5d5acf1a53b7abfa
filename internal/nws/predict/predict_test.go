package predict

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLastValuePerfectOnConstantSeries(t *testing.T) {
	b := NewBattery()
	for i := 0; i < 50; i++ {
		b.Update(42)
	}
	p, ok := b.Forecast()
	if !ok {
		t.Fatal("no forecast")
	}
	if p.Value != 42 {
		t.Fatalf("value %v", p.Value)
	}
	if p.MAE != 0 {
		t.Fatalf("MAE %v on constant series", p.MAE)
	}
}

func TestMeanBeatsLastOnNoise(t *testing.T) {
	// White noise around a level: a mean-based method must accumulate
	// lower error than last-value.
	rng := rand.New(rand.NewSource(1))
	b := NewBattery()
	for i := 0; i < 2000; i++ {
		b.Update(100 + rng.NormFloat64()*10)
	}
	last, _ := b.MethodError("last")
	p, _ := b.Forecast()
	if p.MAE >= last {
		t.Fatalf("battery MAE %.3f not better than last-value %.3f", p.MAE, last)
	}
	if p.Method == "last" {
		t.Fatalf("battery chose last-value on white noise")
	}
}

func TestLastBeatsMeanOnRandomWalk(t *testing.T) {
	// On a random walk the last value is the best simple predictor; the
	// battery should not be much worse than it and should select a
	// recency-weighted method.
	rng := rand.New(rand.NewSource(2))
	b := NewBattery()
	v := 100.0
	for i := 0; i < 2000; i++ {
		v += rng.NormFloat64()
		b.Update(v)
	}
	last, _ := b.MethodError("last")
	mean51, _ := b.MethodError("mean51")
	if last >= mean51 {
		t.Fatalf("sanity: last %.3f should beat mean51 %.3f on a walk", last, mean51)
	}
	p, _ := b.Forecast()
	if p.MAE > last*1.05 {
		t.Fatalf("battery MAE %.3f much worse than best member %.3f", p.MAE, last)
	}
}

func TestAR1TracksAutoregressive(t *testing.T) {
	// x_t = 0.8 x_{t-1} + noise: AR(1) should be among the best members.
	rng := rand.New(rand.NewSource(3))
	b := NewBattery()
	v := 0.0
	for i := 0; i < 5000; i++ {
		v = 0.8*v + rng.NormFloat64()
		b.Update(v)
	}
	ar, ok := b.MethodError("ar1")
	if !ok {
		t.Fatal("ar1 not scored")
	}
	mean5, _ := b.MethodError("mean5")
	if ar >= mean5 {
		t.Fatalf("ar1 %.4f should beat mean5 %.4f on an AR process", ar, mean5)
	}
}

func TestMedianRobustToSpikes(t *testing.T) {
	// Level series with occasional huge spikes: median windows beat means.
	rng := rand.New(rand.NewSource(4))
	b := NewBattery()
	for i := 0; i < 3000; i++ {
		v := 50.0 + rng.NormFloat64()
		if rng.Intn(20) == 0 {
			v += 500
		}
		b.Update(v)
	}
	med, _ := b.MethodError("median21")
	mean, _ := b.MethodError("mean21")
	if med >= mean {
		t.Fatalf("median21 %.3f should beat mean21 %.3f under spikes", med, mean)
	}
}

func TestForecastBeforeData(t *testing.T) {
	b := NewBattery()
	if _, ok := b.Forecast(); ok {
		t.Fatal("forecast with no data")
	}
	b.Update(1)
	if _, ok := b.Forecast(); !ok {
		t.Fatal("no forecast after first sample")
	}
}

// TestRunHelperMatchesBattery: Run replays a window member by member,
// so on every window it must give what a NewBattery fed the window
// gives, on every field. The windows span every member's fill phase and
// the mean replay's blocks of four (lengths 0-299), in shapes that
// stress the sorted ring: ties, huge magnitudes, NaNs, infinities and
// zeros of both signs.
func TestRunHelperMatchesBattery(t *testing.T) {
	shapes := map[string]func(rng *rand.Rand, i int) float64{
		"uniform":  func(rng *rand.Rand, _ int) float64 { return rng.Float64() * 100 },
		"ties":     func(rng *rand.Rand, _ int) float64 { return float64(rng.Intn(5)) },
		"gaussian": func(rng *rand.Rand, _ int) float64 { return rng.NormFloat64() * 1e6 },
		"sinusoid": func(rng *rand.Rand, i int) float64 { return 50 + 20*math.Sin(float64(i)/7) + rng.NormFloat64() },
		"nonfinite": func(rng *rand.Rand, _ int) float64 {
			switch rng.Intn(10) {
			case 0:
				return math.NaN()
			case 1:
				return math.Inf(1)
			case 2:
				return math.Inf(-1)
			case 3:
				return math.Copysign(0, -1)
			case 4:
				return 0
			}
			return rng.Float64()*10 - 5
		},
	}
	for name, next := range shapes {
		rng := rand.New(rand.NewSource(1))
		for k := 0; k < 500; k++ {
			w := make([]float64, rng.Intn(300))
			for i := range w {
				w[i] = next(rng, i)
			}
			b := NewBattery()
			for _, v := range w {
				b.Update(v)
			}
			rp, rok := Run(w)
			bp, bok := b.Forecast()
			if err := samePrediction(rp, rok, bp, bok); err != nil {
				t.Fatalf("%s window %d (%d samples): Run vs battery: %v", name, k, len(w), err)
			}
		}
	}
}

func TestMethodsStable(t *testing.T) {
	m1 := NewBattery().Methods()
	m2 := NewBattery().Methods()
	if len(m1) < 10 {
		t.Fatalf("battery too small: %v", m1)
	}
	for i := range m1 {
		if m1[i] != m2[i] {
			t.Fatal("method order unstable")
		}
	}
}

// TestPropertyBatteryPicksHindsightBest: the chosen method's cumulative
// MAE equals the minimum across members, by construction.
func TestPropertyBatteryPicksHindsightBest(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := NewBattery()
		n := 20 + rng.Intn(200)
		for i := 0; i < n; i++ {
			b.Update(rng.Float64() * 100)
		}
		p, ok := b.Forecast()
		if !ok {
			return false
		}
		for _, name := range b.Methods() {
			if mae, scored := b.MethodError(name); scored && mae < p.MAE-1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyFiniteOutputs: forecasts stay finite on bounded inputs.
func TestPropertyFiniteOutputs(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := NewBattery()
		for i := 0; i < 100; i++ {
			b.Update(rng.Float64()*1e6 - 5e5)
			if p, ok := b.Forecast(); ok {
				if math.IsNaN(p.Value) || math.IsInf(p.Value, 0) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBatteryUpdate(b *testing.B) {
	bt := NewBattery()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < b.N; i++ {
		bt.Update(rng.Float64())
	}
}
