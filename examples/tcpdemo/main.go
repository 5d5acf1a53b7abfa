// TCP demo: the complete deployment pipeline — Map, Plan, Apply — over
// real loopback TCP sockets on the wall clock, no simulator involved.
// The TCPPlatform supplies a static segment view for mapping and a
// canned prober (loopback has no interesting bandwidth), but every
// registry, storage, token-ring and forecasting message of the deployed
// system is a real codec-framed TCP exchange, driven by the exact same
// pipeline code path the simulator uses.
//
//	go run ./examples/tcpdemo
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"nwsenv/internal/core"
	"nwsenv/internal/nws/proto"
	"nwsenv/internal/nws/sensor"
	"nwsenv/internal/platform"
	"nwsenv/internal/query"
)

// demoProber fakes the measurements with a slowly drifting bandwidth so
// the forecaster has something to predict.
type demoProber struct{ start time.Time }

func (p demoProber) Latency(from, to string, bytes int64) (time.Duration, error) {
	return 1500 * time.Microsecond, nil
}
func (p demoProber) Bandwidth(from, to string, bytes int64, tag string) (float64, error) {
	t := time.Since(p.start).Seconds()
	return (90 + 5*osc(t/3)) * 1e6, nil
}
func (p demoProber) ConnectTime(from, to string) (time.Duration, error) {
	return 2 * time.Millisecond, nil
}

func osc(x float64) float64 {
	x = x - float64(int64(x))
	if x < 0.5 {
		return 4*x - 1
	}
	return 3 - 4*x
}

func main() {
	hosts := []string{"alpha", "beta", "gamma"}
	plat := platform.NewTCPPlatform(hosts,
		platform.WithTCPProber(demoProber{start: time.Now()}))

	pl := core.NewPipeline(plat,
		core.WithGridLabel("loopback"),
		core.WithTokenGap(50*time.Millisecond),
		core.WithObserver(func(e core.Event) {
			fmt.Printf("[%s] %s\n", e.Phase, e.Detail)
		}),
	)

	ctx := context.Background()
	m, err := pl.Map(ctx, core.MapRun{Master: "alpha", Hosts: hosts})
	if err != nil {
		log.Fatal(err)
	}
	pr, err := pl.Plan(m)
	if err != nil {
		log.Fatal(err)
	}
	dep, err := pl.Apply(ctx, pr)
	if err != nil {
		log.Fatal(err)
	}
	defer dep.Stop()

	fmt.Println("NWS running over loopback TCP; letting the token circulate for 3 s ...")
	time.Sleep(3 * time.Second)

	ep, err := plat.Transport().Open("client")
	if err != nil {
		log.Fatal(err)
	}
	client := proto.NewStation(plat.Runtime(), ep)
	defer client.Close()

	// One query-plane client answers both questions: the fetch and the
	// forecast each cost one batched round-trip, with discovery
	// (which memory server owns the series? which forecaster is up?)
	// cached behind the facade.
	qc := query.New(client, m.Resolve[pr.Plan.NameServer])
	series := sensor.BandwidthSeries("alpha", "beta")
	samples, err := qc.Fetch(series, 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("last %d samples of %s:\n", len(samples), series)
	for _, s := range samples {
		fmt.Printf("  t=%8v  %.2f Mbps\n", s.At.Round(time.Millisecond), s.Value)
	}

	pred, err := qc.Forecast(series, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("forecast: %.2f Mbps (method %s over %d samples, MAE %.3f)\n",
		pred.Value, pred.Method, pred.N, pred.MAE)
	fmt.Println("done: every exchange above was a real TCP message.")
}
