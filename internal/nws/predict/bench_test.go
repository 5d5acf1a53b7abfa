package predict

import (
	"math/rand"
	"testing"
)

var sinkPrediction Prediction

// BenchmarkRun256 is what the forecaster pays per series: a fresh battery
// over a 256-sample window. The values are random on purpose (sorted
// input would flatter any predictor that orders its window), and every
// iteration replays a different window, as a forecaster serving many
// series does: one window repeated lets the branch predictor learn the
// binary searches and reads about a third cheaper.
func BenchmarkRun256(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	windows := make([][]float64, 64)
	for i := range windows {
		windows[i] = make([]float64, 256)
		for j := range windows[i] {
			windows[i][j] = rng.Float64() * 100
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkPrediction, _ = Run(windows[i%len(windows)])
	}
}
