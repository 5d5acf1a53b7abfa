package clique

import (
	"time"

	"nwsenv/internal/nws/proto"
	"nwsenv/internal/nws/sensor"
)

// PairwiseScheduler implements the relaxation discussed in the paper's
// conclusion: on a switched network, experiments between disjoint host
// pairs cannot collide, so locking whole networks (one token) wastes
// measurement frequency. The scheduler runs rounds of a round-robin
// tournament over the member set: each round is a maximal matching of
// disjoint pairs measured concurrently, and over n-1 rounds (n even;
// n rounds with a bye for odd n) every unordered pair is scheduled.
//
// It must only be used on networks the mapper classified as switched;
// on shared networks concurrent pairs do collide, which experiment E6
// demonstrates.
type PairwiseScheduler struct {
	Cfg  Config
	Port proto.Port
	// Rounds bounds the number of tournament rounds (0 = run forever).
	Rounds int

	roundsRun int
}

// tournamentPairs returns the matching for round r of a round-robin
// tournament over members (the classic circle method): member 0 is
// fixed, the others rotate.
func tournamentPairs(members []string, r int) [][2]string {
	n := len(members)
	if n < 2 {
		return nil
	}
	odd := n%2 == 1
	m := append([]string(nil), members...)
	if odd {
		m = append(m, "") // bye slot
		n++
	}
	rot := r % (n - 1)
	// rotate all but the first element.
	rest := append([]string(nil), m[1:]...)
	k := len(rest)
	rotated := make([]string, k)
	for i := range rest {
		rotated[(i+rot)%k] = rest[i]
	}
	arranged := append([]string{m[0]}, rotated...)
	var pairs [][2]string
	for i := 0; i < n/2; i++ {
		a, b := arranged[i], arranged[n-1-i]
		if a == "" || b == "" {
			continue
		}
		pairs = append(pairs, [2]string{a, b})
	}
	return pairs
}

// Run drives the tournament. Each round it commands every pair's first
// host to probe its partner, waits for completions (with a timeout), and
// rests TokenGap; it ends when its station closes.
func (s *PairwiseScheduler) Run() {
	cfg := s.Cfg.withDefaults()
	for round := 0; s.Rounds == 0 || round < s.Rounds; round++ {
		pairs := tournamentPairs(cfg.Members, round)
		// Alternate direction every full cycle so both directions of
		// each pair get measured over time.
		cycle := round / max(1, len(cfg.Members)-1)
		sent := 0
		for _, p := range pairs {
			src, dst := p[0], p[1]
			if cycle%2 == 1 {
				src, dst = dst, src
			}
			err := s.Port.Send(src, proto.Message{
				Type: proto.MsgProbeCmd, Clique: cfg.Name, Name: dst, Epoch: int64(round),
			})
			if err == nil {
				sent++
			}
		}
		// Collect completions.
		deadline := s.Port.Runtime().Now() + cfg.AckTimeout + 10*time.Second
		for done := 0; done < sent; {
			remaining := deadline - s.Port.Runtime().Now()
			if remaining <= 0 {
				break
			}
			msg, ok := s.Port.RecvTimeout(remaining)
			if !ok {
				break
			}
			if msg.Type == proto.MsgProbeDone && msg.Clique == cfg.Name {
				done++
			}
		}
		s.roundsRun++
		if !s.Port.Wait(cfg.TokenGap) {
			return // the station closed: the scheduler's host was stopped
		}
	}
}

// ProbeAgent executes probe commands on a member host for the pairwise
// scheduler.
type ProbeAgent struct {
	Port      proto.Port
	Prober    sensor.Prober
	Store     StoreFn
	Scheduler string // scheduler host to report completions to
	Clique    string
}

// Run serves probe commands until the port closes.
func (a *ProbeAgent) Run() {
	store := a.Store
	if store == nil {
		store = func(sensor.Measurement) {}
	}
	for {
		msg, ok := a.Port.Recv()
		if !ok {
			return
		}
		if msg.Type != proto.MsgProbeCmd || msg.Clique != a.Clique {
			continue
		}
		ms, err := sensor.LinkExperiments(a.Prober, a.Port.Runtime().Now, a.Port.Host(), msg.Name, "pairwise:"+a.Clique)
		reply := proto.Message{Type: proto.MsgProbeDone, Clique: a.Clique, Name: msg.Name, Epoch: msg.Epoch}
		if err != nil {
			reply.Error = err.Error()
		} else {
			for _, m := range ms {
				store(m)
			}
		}
		a.Port.Send(a.Scheduler, reply)
	}
}
