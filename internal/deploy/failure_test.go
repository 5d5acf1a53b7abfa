package deploy

import (
	"strings"
	"testing"
	"time"

	"nwsenv/internal/nws/proto"
	"nwsenv/internal/nws/sensor"
	"nwsenv/internal/simnet"
	"nwsenv/internal/vclock"
)

// TestDeploymentSurvivesMemberDeath: killing a monitored host (not a
// server host) stalls only its cliques briefly; the rest of the system
// keeps measuring and the dead host's series simply stop growing.
func TestDeploymentSurvivesMemberDeath(t *testing.T) {
	_, net, p, resolve := planEnsLyon(t)
	tr := proto.NewSimTransport(net)
	dep := applyTorn(t, tr, sensor.SimProber{Net: net}, p, resolve, ApplyOptions{TokenGap: time.Second})
	sim := net.Sim()
	base := sim.Now()
	if err := sim.RunUntil(base + time.Minute); err != nil {
		t.Fatal(err)
	}
	// Kill sci4 (a switch clique member with no server roles).
	victim := "sci4.popc.private"
	dep.Agents[victim].Stop()
	tr.SetDown(resolve[victim], true)
	killAt := sim.Now()
	if err := sim.RunUntil(base + 5*time.Minute); err != nil {
		t.Fatal(err)
	}
	// Survivor pairs in the sci clique still measured after the death +
	// recovery window.
	var lastSurvivor time.Duration
	for _, rec := range net.Records() {
		if rec.Tag == "" || strings.Contains(rec.Src, "sci4") || strings.Contains(rec.Dst, "sci4") {
			continue
		}
		if strings.HasPrefix(rec.Src, "sci") && rec.End > lastSurvivor {
			lastSurvivor = rec.End
		}
	}
	if lastSurvivor < killAt+90*time.Second {
		t.Fatalf("sci clique stalled after member death: last survivor measurement %v (killed at %v)", lastSurvivor, killAt)
	}
}

// TestDeploymentMemoryDeathDegradesOnlyItsSite: killing the private
// site's memory server (the gateway popc0) stops storage for that site,
// but the public site keeps storing and the system stays alive.
func TestDeploymentMemoryDeathDegradesOnlyItsSite(t *testing.T) {
	_, net, p, resolve := planEnsLyon(t)
	tr := proto.NewSimTransport(net)
	dep := applyTorn(t, tr, sensor.SimProber{Net: net}, p, resolve, ApplyOptions{TokenGap: time.Second})
	sim := net.Sim()
	base := sim.Now()
	if err := sim.RunUntil(base + time.Minute); err != nil {
		t.Fatal(err)
	}
	// The private site's memory server is the popc gateway.
	memHost := p.MemoryOf["sci3.popc.private"]
	dep.Agents[memHost].Stop()
	tr.SetDown(resolve[memHost], true)
	if err := sim.RunUntil(base + 4*time.Minute); err != nil {
		t.Fatal(err)
	}
	// Public-side storage is still reachable: fetch from the master's
	// memory through a surviving agent.
	var publicSamples int
	var privateErr error
	sim.Go("query", func() {
		master := dep.Agents[p.Master]
		data := dep.LiveData(master.Station())
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
	dep := applyTorn(t, tr, sensor.SimProber{Net: net}, p, resolve, ApplyOptions{TokenGap: time.Second})
	sim := net.Sim()
	base := sim.Now()
	if err := sim.RunUntil(base + 2*time.Minute); err != nil {
		t.Fatal(err)
	}
	var idleBW float64
	sim.Go("q1", func() {
		est := dep.Estimator(dep.Agents[p.Master].Station())
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
		est := dep.Estimator(dep.Agents[p.Master].Station())
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

// TestForecastEstimatorComposesPredictions: composed queries can be
// answered from forecasts instead of raw last samples — §2.1's
// statistical predictions feeding §2.3's aggregation.
func TestForecastEstimatorComposesPredictions(t *testing.T) {
	_, net, p, resolve := planEnsLyon(t)
	tr := proto.NewSimTransport(net)
	dep := applyTorn(t, tr, sensor.SimProber{Net: net}, p, resolve, ApplyOptions{TokenGap: time.Second})
	sim := net.Sim()
	base := sim.Now()
	if err := sim.RunUntil(base + 3*time.Minute); err != nil {
		t.Fatal(err)
	}
	var est LinkEstimate
	var eerr error
	sim.Go("query", func() {
		master := dep.Agents[p.Master]
		fe := dep.ForecastEstimator(master.Station())
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
