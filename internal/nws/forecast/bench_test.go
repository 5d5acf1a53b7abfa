package forecast

import (
	"testing"
	"time"

	"nwsenv/internal/nws/memory"
	"nwsenv/internal/nws/proto"
)

// BenchmarkForecastBatch20 is one batch of 20 forecasts over 256-sample
// windows against a simulated stack, by how many of the 20 windows
// changed since the forecaster last answered for them: every one
// (cold), none (unchanged), or 2 — the tcp_forecast workload's mix. The
// stores that change a window happen off the timer. It reports
// replays/op, the predictor replays (memo misses) per batch, which CI
// holds to exactly 20, 0 and 2, and window-bytes/op, what the memory
// server's replies spend on their results per batch (see resultPort),
// which CI holds exactly: an unchanged window crosses as a token, not
// 256 samples. CI keeps unchanged's allocs/op under a ceiling.
func BenchmarkForecastBatch20(b *testing.B) {
	for _, bc := range []struct {
		name    string
		changed int
	}{{"cold", 20}, {"unchanged", 0}, {"two-of-twenty-changed", 2}} {
		b.Run(bc.name, func(b *testing.B) {
			const history = 256
			sim, st := simStack(b, history)
			series := seriesNames(20)
			reqs := requestsFor(series)
			fc := NewClient(st.cli, "fc")
			mc := memory.NewClient(st.cli, "mem")
			var misses, bytes int64
			drive(b, sim, func() {
				storeWindows(b, st.cli, series, history)
				fc.BatchForecast(reqs)
				misses, bytes = st.counter("memo_misses"), st.windowBytes.Load()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if bc.changed > 0 {
						b.StopTimer()
						for k := 0; k < bc.changed; k++ {
							// A different 2 each batch, as the workload's cycle does.
							name := series[(i*bc.changed+k)%len(series)]
							if err := mc.Store(name, proto.Sample{At: windowStart + time.Duration(history+i)*time.Second, Value: sampleValue(k, history+i)}); err != nil {
								b.Fatal(err)
							}
						}
						b.StartTimer()
					}
					res, err := fc.BatchForecast(reqs)
					if err != nil || len(res) != len(reqs) || res[0].Error != "" {
						b.Fatalf("batch: %v, %d results", err, len(res))
					}
				}
				b.StopTimer()
			})
			b.ReportMetric(float64(st.counter("memo_misses")-misses)/float64(b.N), "replays/op")
			b.ReportMetric(float64(st.windowBytes.Load()-bytes)/float64(b.N), "window-bytes/op")
		})
	}
}
