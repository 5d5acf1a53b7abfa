package predict

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// same is bit equality for everything sort.Float64s orders strictly:
// two NaNs agree whatever their payloads, and -0 equals +0, because the
// reference's sort leaves the order inside either group unspecified.
func same(a, b float64) bool { return a == b || (a != a && b != b) }

// checkSortedWindows verifies the invariant the order-statistic members
// rest on: the sorted view holds exactly the ring's values, in
// sort.Float64s order, and each sorted value and its ring slot point at
// each other.
func checkSortedWindows(b *Battery) error {
	for _, m := range b.members {
		var w *sortedWindow
		switch p := m.p.(type) {
		case *slidingMedian:
			w = &p.sortedWindow
		case *trimmedMean:
			w = &p.sortedWindow
		default:
			continue
		}
		ring, sorted := w.buf[:w.n], w.sorted[:w.n]
		ref := append([]float64(nil), ring...)
		sort.Float64s(ref)
		for i := range ref {
			if !same(ref[i], sorted[i]) {
				return fmt.Errorf("%s: sorted view %v, ring sorts to %v", w.name, sorted, ref)
			}
		}
		for i, slot := range w.slotOf[:w.n] {
			if int(slot) >= w.n || int(w.rankOf[slot]) != i ||
				math.Float64bits(ring[slot]) != math.Float64bits(sorted[i]) {
				return fmt.Errorf("%s: sorted index %d names slot %d, whose rank is %d", w.name, i, slot, w.rankOf[slot])
			}
		}
	}
	return nil
}

// samePrediction compares two forecasts on every field under same.
func samePrediction(got Prediction, gok bool, want Prediction, wok bool) error {
	if gok != wok || got.Method != want.Method || got.N != want.N ||
		!same(got.Value, want.Value) || !same(got.MAE, want.MAE) || !same(got.MSE, want.MSE) {
		return fmt.Errorf("forecast %+v (ok %v), reference %+v (ok %v)", got, gok, want, wok)
	}
	return nil
}

// diffStep feeds v to both batteries and compares everything a caller
// can observe.
func diffStep(got, want *Battery, v float64) error {
	got.Update(v)
	want.Update(v)
	gp, gok := got.Forecast()
	wp, wok := want.Forecast()
	if err := samePrediction(gp, gok, wp, wok); err != nil {
		return err
	}
	for _, name := range want.Methods() {
		ge, gok := got.MethodError(name)
		we, wok := want.MethodError(name)
		if gok != wok || !same(ge, we) {
			return fmt.Errorf("MethodError(%s) = %v, %v; reference %v, %v", name, ge, gok, we, wok)
		}
	}
	return checkSortedWindows(got)
}

func TestMethodNamesMatchReference(t *testing.T) {
	got, want := NewBattery().Methods(), newRefBattery().Methods()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("methods %v, reference %v", got, want)
	}
}

// TestDifferentialAgainstCopyAndSort replays seeded series through the
// battery and the copy-and-sort reference and requires them to agree at
// every prefix.
func TestDifferentialAgainstCopyAndSort(t *testing.T) {
	const n = 400
	gen := map[string]func(rng *rand.Rand, i int) float64{
		"random":     func(rng *rand.Rand, _ int) float64 { return rng.NormFloat64() * 1e3 },
		"duplicates": func(rng *rand.Rand, _ int) float64 { return float64(rng.Intn(4)) },
		"increasing": func(_ *rand.Rand, i int) float64 { return float64(i) * 0.1 },
		"decreasing": func(_ *rand.Rand, i int) float64 { return 1e6 - float64(i*i) },
		"constant":   func(*rand.Rand, int) float64 { return 42.5 },
		"zeros": func(rng *rand.Rand, _ int) float64 {
			return []float64{0, math.Copysign(0, -1), 1, -1}[rng.Intn(4)]
		},
		"nonfinite": func(rng *rand.Rand, _ int) float64 {
			switch rng.Intn(12) {
			case 0:
				return math.NaN()
			case 1:
				return math.Inf(1)
			case 2:
				return math.Inf(-1)
			}
			return float64(rng.Intn(8)) - 3.5
		},
		// A burst of NaNs longer than the widest window, then recovery:
		// every sorted view fills with NaNs and drains again.
		"nanburst": func(rng *rand.Rand, i int) float64 {
			if i >= 100 && i < 160 {
				return math.NaN()
			}
			return rng.Float64()
		},
	}
	for name, next := range gen {
		for seed := int64(1); seed <= 5; seed++ {
			rng := rand.New(rand.NewSource(seed))
			got, want := NewBattery(), newRefBattery()
			for i := 0; i < n; i++ {
				if err := diffStep(got, want, next(rng, i)); err != nil {
					t.Fatalf("%s seed %d, prefix %d: %v", name, seed, i+1, err)
				}
			}
		}
	}
}

// fuzzTable is what one input byte decodes to in the fuzz target's dense
// mode: few distinct values, so windows fill with duplicates, NaNs,
// infinities and zeros of both signs.
var fuzzTable = [16]float64{
	0, math.Copysign(0, -1), 1, -1, 2, 2.5, 3, 1e300,
	-1e300, math.Inf(1), math.Inf(-1), math.NaN(), 5e-324, 0.1, 7, 100,
}

// fuzzStream turns fuzz bytes into samples. The first byte picks the
// decoding: odd reads raw little-endian float64s, even maps each byte to
// fuzzTable, which reaches long duplicate-heavy streams from few bytes.
func fuzzStream(data []byte) []float64 {
	const maxSamples = 2048
	if len(data) == 0 {
		return nil
	}
	mode, data := data[0], data[1:]
	var out []float64
	if mode&1 == 1 {
		for ; len(data) >= 8 && len(out) < maxSamples; data = data[8:] {
			out = append(out, math.Float64frombits(binary.LittleEndian.Uint64(data)))
		}
		return out
	}
	for _, c := range data {
		if len(out) == maxSamples {
			break
		}
		out = append(out, fuzzTable[c%16])
	}
	return out
}

// FuzzBatteryDifferential: on any sample stream the battery must not
// panic, must agree with the copy-and-sort reference at every prefix, and
// must keep each sorted view consistent with its ring; Run must agree
// with the reference on the whole stream and on every short prefix
// (each member's fill phase and the mean replay's blocks of four).
func FuzzBatteryDifferential(f *testing.F) {
	// Both decodings have longer seeds under testdata/fuzz.
	f.Add([]byte{})
	f.Add([]byte{0, 0, 1, 0, 1, 11, 11, 9, 10, 2, 3, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		const runPrefixes = 2*maxWindow + 8
		values := fuzzStream(data)
		got, want := NewBattery(), newRefBattery()
		checkRun := func(n int) {
			rp, rok := Run(values[:n])
			wp, wok := want.Forecast()
			if err := samePrediction(rp, rok, wp, wok); err != nil {
				t.Fatalf("Run over %d samples: %v", n, err)
			}
		}
		checkRun(0)
		for i, v := range values {
			if err := diffStep(got, want, v); err != nil {
				t.Fatalf("prefix %d (value %v): %v", i+1, v, err)
			}
			if i < runPrefixes || i == len(values)-1 {
				checkRun(i + 1)
			}
		}
	})
}
