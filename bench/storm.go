package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"nwsenv/internal/nws/forecast"
	"nwsenv/internal/nws/gateway"
	"nwsenv/internal/nws/memory"
	"nwsenv/internal/nws/nameserver"
	"nwsenv/internal/nws/proto"
	"nwsenv/internal/query"
	"nwsenv/internal/simnet"
	"nwsenv/internal/telemetry"
	"nwsenv/internal/topo"
	"nwsenv/internal/vclock"
)

// The storm's platform and admission settings are those of the committed
// BENCH_gateway.json sweep at two replicas: a 100-host grid, one memory
// server per site, gateways shrunk to 4 admitted / 16 waiting so that a
// benchmark-sized storm saturates them.
var (
	stormGrid     = topo.GridConfig{Sites: 2, SwitchesPerSite: 5, HostsPerSwitch: 10, Seed: 42}
	stormGateways = []string{"h0-1-0", "h1-1-0"}
)

const (
	stormNS       = "h0-0-0"
	stormFC       = "h0-0-2"
	stormClient   = "h0-0-3"
	stormSeries   = 100
	stormAdmit    = 4
	stormShedAt   = 16
	stormPhaseLen = 10 * time.Second // virtual
)

// stormPhases are the two open-loop phases: below and above the two
// gateways' admission capacity.
var stormPhases = []struct {
	name string
	rate int // batches per virtual second
}{{"under", 200}, {"over", 500}}

// phaseStats is one phase's outcome, all on the virtual clock.
type phaseStats struct {
	injected, answered, shed, wrong int
	lat                             []time.Duration // due time -> validated reply
	lateness                        time.Duration   // worst start after due time
	elapsed                         time.Duration   // first due time -> last completion
}

// stormStack is the hand-placed serving stack on the simulated grid.
type stormStack struct {
	sim    *vclock.Sim
	net    *simnet.Network
	tr     *proto.SimTransport
	reg    *telemetry.Registry
	client *proto.Station
	gwc    *gateway.Client
	data   *seriesSet

	stations map[string]*proto.Station
}

// close detaches every station and lets the server loops return, so a
// finished repetition does not leave its processes parked.
func (s *stormStack) close() {
	for _, st := range s.stations {
		st.Close()
	}
	s.sim.RunUntil(s.sim.Now() + time.Second)
}

// drive runs fn as a simulation process and advances virtual time in
// one-second steps until it returns.
func drive(sim *vclock.Sim, name string, fn func()) error {
	done := false
	sim.Go(name, func() { fn(); done = true })
	deadline := sim.Now() + time.Hour
	for at := sim.Now() + time.Second; !done; at += time.Second {
		if at > deadline {
			return fmt.Errorf("%s: stuck after a virtual hour", name)
		}
		if err := sim.RunUntil(at); err != nil {
			return err
		}
	}
	return nil
}

func newStormStack(seed int64, traced bool) (*stormStack, error) {
	cfg := stormGrid
	tp, _ := topo.SyntheticGrid(cfg)
	s := &stormStack{sim: vclock.New(), data: newSeriesSet(seed, stormSeries)}
	s.net = simnet.NewNetwork(s.sim, tp)
	s.tr = proto.NewSimTransport(s.net)
	if traced {
		s.reg = telemetry.New(s.sim.Now)
		s.tr.SetTelemetry(s.reg)
		simnet.RegisterTelemetry(s.reg, s.net)
	}
	stations := map[string]*proto.Station{}
	s.stations = stations
	for _, h := range append([]string{stormNS, stormMem(0), stormMem(1), stormFC, stormClient}, stormGateways...) {
		ep, err := s.tr.Open(h)
		if err != nil {
			return nil, err
		}
		stations[h] = proto.NewStation(s.tr.Runtime(), ep)
	}
	s.sim.Go("ns", nameserver.New(stations[stormNS]).Run)
	for site := 0; site < cfg.Sites; site++ {
		st := stations[stormMem(site)]
		s.sim.Go("mem", memory.New(st, nameserver.NewClient(st, stormNS), memory.WithTelemetry(s.reg)).Run)
	}
	s.sim.Go("fc", forecast.NewServer(stations[stormFC], nameserver.NewClient(stations[stormFC], stormNS), 0).Run)
	for _, h := range stormGateways {
		g := gateway.New(stations[h], stormNS)
		g.SetAdmission(stormAdmit, stormShedAt)
		if traced {
			g.SetTelemetry(s.reg)
		}
		s.sim.Go("gw:"+h, g.Run)
	}
	s.client = stations[stormClient]

	var err error
	if derr := drive(s.sim, "storm-setup", func() {
		for i, name := range s.data.names {
			mc := memory.NewClient(s.client, stormMem(i%cfg.Sites))
			if err = mc.Store(name, s.data.window(i, 0, 4)...); err != nil {
				return
			}
		}
		// Let the gateways' directory registrations land, then discover
		// the whole pool once: the storm shares one balanced client.
		s.client.Runtime().Sleep(2 * time.Second)
		if s.gwc, err = gateway.Connect(s.client, stormNS); err == nil && len(s.gwc.Hosts()) != len(stormGateways) {
			err = fmt.Errorf("discovered %d gateways, want %d", len(s.gwc.Hosts()), len(stormGateways))
		}
	}); derr != nil {
		return nil, derr
	}
	return s, err
}

func stormMem(site int) string { return fmt.Sprintf("h%d-0-1", site) }

// phase injects rate batches per virtual second for stormPhaseLen, each
// on its own process so completions never pace the next send, and drains.
// A batch is timed from the moment it was due.
func (s *stormStack) phase(rate int, batches []batch) (phaseStats, error) {
	var st phaseStats
	every := time.Second / time.Duration(rate)
	start := s.sim.Now()
	inflight, injecting := 0, true
	s.sim.Go("inject", func() {
		rt := s.client.Runtime()
		for k := 0; ; k++ {
			due := start + time.Duration(k)*every
			if due-start >= stormPhaseLen {
				break
			}
			rt.Sleep(due - s.sim.Now())
			st.lateness = max(st.lateness, s.sim.Now()-due)
			st.injected++
			inflight++
			b := batches[k%len(batches)]
			s.sim.Go("batch", func() {
				defer func() { inflight-- }()
				res, err := s.gwc.FetchMany(b.reqs)
				switch {
				case errors.Is(err, query.ErrOverloaded):
					st.shed++
				case err == nil && s.answeredRight(b, res):
					st.answered++
					st.lat = append(st.lat, s.sim.Now()-due)
				default:
					st.wrong++
				}
			})
		}
		injecting = false
	})
	deadline := start + stormPhaseLen + time.Hour
	for at := s.sim.Now() + time.Second; injecting || inflight > 0; at += time.Second {
		if at > deadline {
			return st, fmt.Errorf("storm stuck: %d batches in flight", inflight)
		}
		if err := s.sim.RunUntil(at); err != nil {
			return st, err
		}
	}
	st.elapsed = s.sim.Now() - start
	sort.Slice(st.lat, func(i, j int) bool { return st.lat[i] < st.lat[j] })
	return st, nil
}

func (s *stormStack) answeredRight(b batch, res []query.Result) bool {
	if len(res) != len(b.reqs) {
		return false
	}
	for k, r := range res {
		if r.Err != nil || len(r.Samples) != 1 {
			return false
		}
		if n, ok := s.data.stored(b.idx[k], r.Samples[0]); !ok || n != 3 {
			return false
		}
	}
	return true
}

// stormOutcome is one repetition: both phases' virtual-time results, the
// host time they took to simulate, and the host time of the set-up.
type stormOutcome struct {
	phases       []phaseStats
	setup, wall  time.Duration
	stack        *stormStack
	virtualPrint string // every virtual number, for the repeat-exactly check
}

func stormOnce(seed int64, traced bool) (*stormOutcome, error) {
	t0 := time.Now()
	s, err := newStormStack(seed, traced)
	if err != nil {
		return nil, err
	}
	out := &stormOutcome{setup: time.Since(t0), stack: s}
	batches := s.data.batches(rand.New(rand.NewSource(seed)), batchSeries, 1, false)
	for _, p := range stormPhases {
		t1 := time.Now()
		ps, err := s.phase(p.rate, batches)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
		out.wall += time.Since(t1)
		out.phases = append(out.phases, ps)
		out.virtualPrint += fmt.Sprintf("%s %d %d %d %d %v %v %v;", p.name, ps.injected, ps.answered, ps.shed, ps.wrong, ps.lat, ps.lateness, ps.elapsed)
	}
	return out, nil
}

// repeatFor calls once, a fixed amount of simulated work that returns the
// host seconds it took, until budget host seconds are used up — at least
// twice, so that the virtual results can be compared — and returns the
// times in ascending order.
func repeatFor(budget float64, once func() (float64, error)) ([]float64, error) {
	var walls []float64
	for spent := 0.0; len(walls) < 2 || spent+walls[len(walls)-1] <= budget; {
		wall, err := once()
		if err != nil {
			return nil, err
		}
		walls = append(walls, wall)
		spent += wall
	}
	sort.Float64s(walls)
	return walls, nil
}

// reportRepeats sets a simulated workload's end-to-end metrics: work per
// host second over all repetitions, and the repetitions' host time.
func reportRepeats(r *result, walls []float64, work float64) {
	var sum float64
	for _, w := range walls {
		sum += w
	}
	r.set("work_per_s", work/sum)
	r.set("latency_p50_ms", quantile(walls, 0.5)*1e3)
	r.set("latency_p90_ms", quantile(walls, 0.9)*1e3)
	r.set("client.samples", float64(len(walls)))
}

// runStorm repeats the storm on fresh stacks until the measured host time
// is used up (at least twice: the virtual numbers must repeat exactly).
func runStorm(p params) (*result, error) {
	seed, seconds, traced := p.seed, p.seconds, p.traced
	r := newResult("sim_storm", traced)
	var first, last *stormOutcome
	var setups []float64
	identical := true
	before := readRuntime()
	walls, err := repeatFor(seconds, func() (float64, error) {
		if last != nil {
			last.stack.close()
		}
		runtime.GC()
		o, err := stormOnce(seed, traced)
		if err != nil {
			return 0, err
		}
		if first == nil {
			first = o
		}
		identical = identical && o.virtualPrint == first.virtualPrint
		setups = append(setups, o.setup.Seconds())
		last = o
		return o.wall.Seconds(), nil
	})
	if err != nil {
		return nil, fmt.Errorf("sim_storm: %w", err)
	}
	defer last.stack.close()
	reps := len(walls)
	under, over := first.phases[0], first.phases[1]
	answered := 0
	for _, p := range first.phases {
		r.Attempted += p.injected * reps
		r.Failed += p.wrong * reps
		answered += p.answered
	}
	r.Failed += under.shed * reps // below capacity nothing may be refused
	readRuntime().since(before).report(r, r.Attempted)
	r.set("setup_s", median(setups))
	reportRepeats(r, walls, float64(answered*reps*batchSeries))

	r.set("gateway.storm_v_qps", float64(over.answered*batchSeries)/over.elapsed.Seconds())
	r.set("gateway.storm_v_p50_ms", quantile(millis(under.lat), 0.50))
	r.set("gateway.storm_v_p99_ms", quantile(millis(under.lat), 0.99))
	r.set("gateway.storm_v_shed_share", float64(over.shed)/float64(over.injected))
	r.set("gateway.storm_v_lateness_ms", float64(max(under.lateness, over.lateness))/1e6)

	for i, p := range first.phases {
		name := stormPhases[i].name
		r.check(name+"_accounted", p.answered+p.shed == p.injected && p.wrong == 0,
			"%d answered + %d shed != %d injected (%d wrong)", p.answered, p.shed, p.injected, p.wrong)
	}
	r.check("under_not_shed", under.shed == 0, "%d batches shed below capacity", under.shed)
	r.check("over_sheds", over.shed > 0, "the overload phase shed nothing: it no longer exceeds capacity")
	r.check("virtual_results_repeat", identical, "virtual-time results differ between repetitions of one seed")
	if traced {
		if err := harvestStorm(r, last); err != nil {
			return nil, fmt.Errorf("sim_storm: %w", err)
		}
	}
	return r, nil
}
