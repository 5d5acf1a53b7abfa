package deploy

import (
	"errors"
	"strings"
	"testing"
	"time"

	"nwsenv/internal/env"
	"nwsenv/internal/nws/proto"
	"nwsenv/internal/nws/sensor"
	"nwsenv/internal/query"
	"nwsenv/internal/simnet"
	"nwsenv/internal/vclock"
)

// TestDeploymentSurvivesMemberDeath: killing a monitored host (not a
// server host) stalls only its cliques briefly; the rest of the system
// keeps measuring and the dead host's series simply stop growing.
func TestDeploymentSurvivesMemberDeath(t *testing.T) {
	_, net, p, resolve := planEnsLyon(t)
	tr := proto.NewSimTransport(net)
	dep := applyTorn(t, tr, env.SimSubstrate{Net: net}, p, resolve, ApplyOptions{})
	sim := net.Sim()
	base := sim.Now()
	if err := sim.RunUntil(base + time.Minute); err != nil {
		t.Fatal(err)
	}
	// Kill sci4 (a switch clique member with no server roles).
	victim := "sci4.popc.private"
	dep.Agents[victim].Stop()
	tr.Network().CrashHost(resolve[victim])
	killAt := sim.Now()
	// Survivor pairs in the sci clique still measure after the death +
	// recovery window.
	survivor := func(row simnet.TrafficRow) bool {
		return row.Tag != "" && strings.HasPrefix(row.Src, "sci") &&
			!strings.Contains(row.Src, "sci4") && !strings.Contains(row.Dst, "sci4")
	}
	if err := sim.RunUntil(killAt + 90*time.Second); err != nil {
		t.Fatal(err)
	}
	recovered := completed(net, survivor)
	if err := sim.RunUntil(base + 5*time.Minute); err != nil {
		t.Fatal(err)
	}
	if completed(net, survivor) == recovered {
		t.Fatalf("sci clique stalled after member death: no survivor measurement after %v (killed at %v)", killAt+90*time.Second, killAt)
	}
}

// completed sums the Done counts of the traffic-table rows keep selects.
func completed(net *simnet.Network, keep func(simnet.TrafficRow) bool) int {
	n := 0
	for _, row := range net.Traffic() {
		if keep(row) {
			n += row.Done
		}
	}
	return n
}

// TestDeploymentMemoryDeathDegradesOnlyItsSite: killing the private
// site's memory server (the gateway popc0) stops storage for that site,
// but the public site keeps storing and the system stays alive.
func TestDeploymentMemoryDeathDegradesOnlyItsSite(t *testing.T) {
	_, net, p, resolve := planEnsLyon(t)
	tr := proto.NewSimTransport(net)
	dep := applyTorn(t, tr, env.SimSubstrate{Net: net}, p, resolve, ApplyOptions{})
	sim := net.Sim()
	base := sim.Now()
	if err := sim.RunUntil(base + time.Minute); err != nil {
		t.Fatal(err)
	}
	// The private site's memory server is the popc gateway.
	memHost := p.MemoryOf["sci3.popc.private"]
	dep.Agents[memHost].Stop()
	tr.Network().CrashHost(resolve[memHost])
	if err := sim.RunUntil(base + 4*time.Minute); err != nil {
		t.Fatal(err)
	}
	// Public-side storage is still reachable: fetch from the master's
	// memory through a surviving agent.
	var publicSamples int
	var privateErr error
	sim.Go("query", func() {
		master := dep.Agents[p.Master]
		data := liveData(dep, master.Station())
		if _, _, ok := data("canaria.ens-lyon.fr", "moby.cri2000.ens-lyon.fr"); ok {
			publicSamples++
		}
		_, _, ok := data("sci1.popc.private", "sci2.popc.private")
		if ok {
			privateErr = nil
		} else {
			privateErr = errPrivateDown
		}
	})
	if err := sim.RunUntil(base + 6*time.Minute); err != nil {
		t.Fatal(err)
	}
	if publicSamples == 0 {
		t.Fatal("public site lost storage though only the private memory died")
	}
	if privateErr == nil {
		t.Fatal("private site's data should be unavailable after its memory died")
	}
}

var errPrivateDown = &privateDownError{}

type privateDownError struct{}

func (*privateDownError) Error() string { return "private memory down" }

// TestEstimatesTrackLoadDynamics: a background flow saturating the
// bottleneck lowers the cliques' bandwidth readings, and composed
// estimates follow — monitoring reflects current conditions, which is
// the whole point of deploying NWS (§1).
func TestEstimatesTrackLoadDynamics(t *testing.T) {
	_, net, p, resolve := planEnsLyon(t)
	tr := proto.NewSimTransport(net)
	dep := applyTorn(t, tr, env.SimSubstrate{Net: net}, p, resolve, ApplyOptions{})
	sim := net.Sim()
	base := sim.Now()
	if err := sim.RunUntil(base + 2*time.Minute); err != nil {
		t.Fatal(err)
	}
	var idleBW float64
	sim.Go("q1", func() {
		est := NewEstimator(dep.Plan, liveData(dep, dep.Agents[p.Master].Station()))
		le, err := est.Estimate("myri1.popc.private", "myri2.popc.private")
		if err == nil {
			idleBW = le.BandwidthMbps
		}
	})
	if err := sim.RunUntil(base + 3*time.Minute); err != nil {
		t.Fatal(err)
	}
	// Saturate hub3 with background traffic, let the clique re-measure.
	loadUntil := sim.Now() + 4*time.Minute
	simnetLoad(net, "myri1", "myri2", loadUntil)
	if err := sim.RunUntil(base + 6*time.Minute); err != nil {
		t.Fatal(err)
	}
	var loadedBW float64
	sim.Go("q2", func() {
		est := NewEstimator(dep.Plan, liveData(dep, dep.Agents[p.Master].Station()))
		le, err := est.Estimate("myri1.popc.private", "myri2.popc.private")
		if err == nil {
			loadedBW = le.BandwidthMbps
		}
	})
	if err := sim.RunUntil(base + 7*time.Minute); err != nil {
		t.Fatal(err)
	}
	if idleBW < 90 {
		t.Fatalf("idle estimate %.1f Mbps, want ~100", idleBW)
	}
	if loadedBW > idleBW*0.8 {
		t.Fatalf("loaded estimate %.1f Mbps did not drop from idle %.1f", loadedBW, idleBW)
	}
}

// simnetLoad keeps hub3 busy with back-to-back transfers until the
// deadline.
func simnetLoad(net interface {
	Sim() *vclock.Sim
	Transfer(src, dst string, bytes int64, tag string) (simnet.TransferStats, error)
}, src, dst string, until time.Duration) {
	sim := net.Sim()
	sim.Go("bg", func() {
		for sim.Now() < until {
			net.Transfer(src, dst, 4_000_000, "")
		}
	})
}

// forecastData is a PairData backed by the deployment's forecasters
// instead of raw last samples: composed queries then answer "what will
// the path look like next". Both predictions of a pair travel in one
// batched round-trip; a degraded prediction (computed from a
// replica-served history) is usable, as in PairDataVia.
func forecastData(d *Deployment, port proto.Port) PairData {
	qc := d.QueryClient(port)
	return func(from, to string) (float64, float64, bool) {
		src, ok1 := d.Resolve[from]
		dst, ok2 := d.Resolve[to]
		if !ok1 || !ok2 {
			return 0, 0, false
		}
		res := qc.ForecastMany([]proto.SeriesRequest{
			{Series: sensor.LatencySeries(src, dst)},
			{Series: sensor.BandwidthSeries(src, dst)},
		})
		for _, r := range res {
			if r.Err != nil && !errors.Is(r.Err, query.ErrDegraded) {
				return 0, 0, false
			}
		}
		return res[0].Prediction.Value, res[1].Prediction.Value, true
	}
}

// TestForecastEstimatorComposesPredictions: composed queries can be
// answered from forecasts instead of raw last samples — §2.1's
// statistical predictions feeding §2.3's aggregation.
func TestForecastEstimatorComposesPredictions(t *testing.T) {
	_, net, p, resolve := planEnsLyon(t)
	tr := proto.NewSimTransport(net)
	dep := applyTorn(t, tr, env.SimSubstrate{Net: net}, p, resolve, ApplyOptions{})
	sim := net.Sim()
	base := sim.Now()
	if err := sim.RunUntil(base + 3*time.Minute); err != nil {
		t.Fatal(err)
	}
	var est LinkEstimate
	var eerr error
	sim.Go("query", func() {
		master := dep.Agents[p.Master]
		fe := NewEstimator(dep.Plan, forecastData(dep, master.Station()))
		est, eerr = fe.Estimate("moby.cri2000.ens-lyon.fr", "sci3.popc.private")
	})
	if err := sim.RunUntil(base + 5*time.Minute); err != nil {
		t.Fatal(err)
	}
	if eerr != nil {
		t.Fatal(eerr)
	}
	if est.Direct {
		t.Fatal("moby->sci3 must be composed")
	}
	// The forecast-composed bandwidth still finds the 10 Mbps bottleneck.
	if est.BandwidthMbps < 8 || est.BandwidthMbps > 12 {
		t.Fatalf("forecast-composed bw %.1f Mbps, want ~10", est.BandwidthMbps)
	}
	if est.LatencyMS <= 0 {
		t.Fatalf("latency %v", est.LatencyMS)
	}
}
