// Query-plane benchmarks: the client-facing cost of answering many
// series against a serving NWS stack on SyntheticGrid platforms of
// 100/500/1000 hosts. Each size runs two variants over the same stack:
//
//   - QuerySeq is the pre-query-plane client behavior — a fresh
//     directory lookup plus one blocking batch-of-one fetch per
//     series, strictly sequential.
//   - QueryBatch is query.Client.FetchMany — one bulk directory
//     round-trip, then one batched fetch per owning memory server,
//     fanned out concurrently.
//
// `benchjson query` regenerates BENCH_query.json; the rows of its entry
// in bench-gates.json fail on ns/op regressions against the committed
// baseline and hold the machine-independent acceptance gate on
// Seq/Batch at the 500-host grid.
package nwsenv

import (
	"fmt"
	"testing"
	"time"

	"nwsenv/internal/nws/forecast"
	"nwsenv/internal/nws/memory"
	"nwsenv/internal/nws/nameserver"
	"nwsenv/internal/nws/proto"
	"nwsenv/internal/query"
	"nwsenv/internal/simnet"
	"nwsenv/internal/topo"
	"nwsenv/internal/vclock"
)

// queryGridConfigs maps a host count to its grid shape (hosts = sites ×
// switches × 10), matching the scale benchmarks' shapes.
var queryGridConfigs = map[int]topo.GridConfig{
	100:  {Sites: 2, SwitchesPerSite: 5, HostsPerSwitch: 10, Seed: 42},
	500:  {Sites: 5, SwitchesPerSite: 10, HostsPerSwitch: 10, Seed: 42},
	1000: {Sites: 10, SwitchesPerSite: 10, HostsPerSwitch: 10, Seed: 42},
}

// querySweep is the number of series one benchmark op answers: spread
// round-robin across the sites so every memory server owns a share.
const querySweep = 100

// queryStack is a hand-placed serving stack on a synthetic grid: the
// name server on h0-0-0, one memory server per site (on h<s>-0-1), a
// forecaster on h0-0-2, and a client station on h0-0-3.
type queryStack struct {
	sim    *vclock.Sim
	tr     *proto.SimTransport
	client *proto.Station
	nsHost string
	series []string // the querySweep series, site-round-robin
}

func newQueryStack(b *testing.B, hosts int, samplesPerSeries int) *queryStack {
	cfg, ok := queryGridConfigs[hosts]
	if !ok {
		b.Fatalf("no grid config for %d hosts", hosts)
	}
	tp, _ := topo.SyntheticGrid(cfg)
	sim := vclock.New()
	net := simnet.NewNetwork(sim, tp)
	tr := proto.NewSimTransport(net)
	rt := tr.Runtime()
	open := func(h string) *proto.Station {
		ep, err := tr.Open(h)
		if err != nil {
			b.Fatal(err)
		}
		return proto.NewStation(rt, ep)
	}

	st := &queryStack{sim: sim, tr: tr, nsHost: "h0-0-0"}
	sim.Go("ns", nameserver.New(open(st.nsHost)).Run)
	memOf := map[int]string{} // site -> memory host
	for s := 0; s < cfg.Sites; s++ {
		h := fmt.Sprintf("h%d-0-1", s)
		memOf[s] = h
		stM := open(h)
		sim.Go("mem:"+h, memory.New(stM, nameserver.NewClient(stM, st.nsHost)).Run)
	}
	stFC := open("h0-0-2")
	sim.Go("fc", forecast.NewServer(stFC, nameserver.NewClient(stFC, st.nsHost), 0).Run)
	st.client = open("h0-0-3")

	// One monitored series per sweep slot, owned by its site's memory
	// server: cpu.<host> for hosts taken round-robin across sites.
	groups := topo.GridHostGroups(cfg)
	perSite := cfg.SwitchesPerSite // groups per site
	for i := 0; i < querySweep; i++ {
		site := i % cfg.Sites
		group := groups[site*perSite+(i/cfg.Sites)%perSite]
		st.series = append(st.series, "cpu."+group[i%len(group)])
	}

	// Seed the samples from a simulation process (the data plane is not
	// under measurement).
	st.drive(b, func() {
		for s := 0; s < cfg.Sites; s++ {
			mc := memory.NewClient(st.client, memOf[s])
			for i, name := range st.series {
				if i%cfg.Sites != s {
					continue
				}
				samples := make([]proto.Sample, samplesPerSeries)
				for k := range samples {
					samples[k] = proto.Sample{At: time.Duration(k) * time.Second, Value: float64(50+k) / 100}
				}
				if err := mc.Store(name, samples...); err != nil {
					b.Error(err)
					return
				}
			}
		}
	})
	return st
}

// drive runs fn as a simulation process and advances virtual time until
// it returns.
func (s *queryStack) drive(b *testing.B, fn func()) {
	b.Helper()
	done := false
	s.sim.Go("op", func() { fn(); done = true })
	deadline := s.sim.Now() + time.Hour
	for at := s.sim.Now() + time.Second; !done; at += time.Second {
		if at > deadline {
			b.Fatal("benchmark op stuck")
		}
		if err := s.sim.RunUntil(at); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQuerySeq: the old client surface — per series, one directory
// lookup then one blocking single-series fetch, sequentially.
func BenchmarkQuerySeq(b *testing.B) {
	for _, hosts := range []int{100, 500, 1000} {
		b.Run(fmt.Sprintf("hosts=%d", hosts), func(b *testing.B) {
			st := newQueryStack(b, hosts, 4)
			nsc := nameserver.NewClient(st.client, st.nsHost)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st.drive(b, func() {
					for _, name := range st.series {
						reg, found, err := nsc.LookupName(name)
						if err != nil || !found {
							b.Errorf("lookup %s: %v found=%v", name, err, found)
							return
						}
						samples, err := memory.NewClient(st.client, reg.Host).Fetch(name, 1)
						if err != nil || len(samples) == 0 {
							b.Errorf("fetch %s: %v", name, err)
							return
						}
					}
				})
			}
			b.StopTimer()
			b.ReportMetric(float64(querySweep*b.N)/b.Elapsed().Seconds(), "queries/s")
		})
	}
}

// BenchmarkQueryBatch: the query plane — a cold query.Client resolves
// the whole sweep with one bulk lookup and issues one batched fetch
// per memory server, concurrently.
func BenchmarkQueryBatch(b *testing.B) {
	for _, hosts := range []int{100, 500, 1000} {
		b.Run(fmt.Sprintf("hosts=%d", hosts), func(b *testing.B) {
			st := newQueryStack(b, hosts, 4)
			reqs := make([]proto.SeriesRequest, len(st.series))
			for i, name := range st.series {
				reqs[i] = proto.SeriesRequest{Series: name, Count: 1}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st.drive(b, func() {
					// A fresh client per op: the measured cost includes
					// cold discovery, like the sequential baseline's.
					qc := query.New(st.client, st.nsHost)
					for _, r := range qc.FetchMany(reqs) {
						if r.Err != nil || len(r.Samples) == 0 {
							b.Errorf("series %s: %v", r.Series, r.Err)
							return
						}
					}
				})
			}
			b.StopTimer()
			b.ReportMetric(float64(querySweep*b.N)/b.Elapsed().Seconds(), "queries/s")
		})
	}
}

// BenchmarkQueryForecastBatch: ForecastMany over the sweep — one
// round-trip to the forecaster, which groups its history fetches into
// one batched fetch per memory server. The client is fresh each op but
// the forecaster is not: from the second op on it is re-asked unchanged
// series, so this prices its memo's hit path (fetch, compare, answer);
// forecast.BenchmarkForecastBatch20/cold prices the replay.
func BenchmarkQueryForecastBatch(b *testing.B) {
	st := newQueryStack(b, 100, 16)
	reqs := make([]proto.SeriesRequest, len(st.series))
	for i, name := range st.series {
		reqs[i] = proto.SeriesRequest{Series: name}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.drive(b, func() {
			qc := query.New(st.client, st.nsHost, query.WithForecastTTL(0))
			for _, r := range qc.ForecastMany(reqs) {
				if r.Err != nil {
					b.Errorf("forecast %s: %v", r.Series, r.Err)
					return
				}
			}
		})
	}
	b.StopTimer()
	b.ReportMetric(float64(querySweep*b.N)/b.Elapsed().Seconds(), "forecasts/s")
}
