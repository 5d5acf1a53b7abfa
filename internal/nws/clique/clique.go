// Package clique implements NWS measurement cliques (§2.3, after Wolski
// et al. "Synchronizing network probes to avoid measurement intrusiveness
// with the Network Weather Service", HPDC 2000): groups of hosts whose
// network experiments are mutually excluded by a circulating token, so
// that two probes never compete for a link and halve each other's
// readings.
//
// The protocol is one pure function, ring.step: a member's state and
// one event (a token, an ack, an election call or answer, a coordinator
// announcement, a timer, the end of a hold) give the next state and the
// effects to carry out (send, arm the timer, hold, count). Member.Run,
// the ring's only receive loop, drives it over a port; a hold runs the
// §2.2 experiments towards every other member, stores the results and
// rests TokenGap before the token moves on.
//
//   - Every pass is acknowledged; a member that does not answer in
//     time is skipped. A passer whose ack timed out fences its retry: it
//     passes in the next epoch it alone may mint (one congruent to its
//     ring index), so the token it believed lost is stale wherever it
//     landed and never holds in the epoch of the one passed on.
//   - A watchdog starts a bully election (§2.3 "mechanisms to handle
//     network errors and leader elections") after a silence; the live
//     member of lowest index regenerates the token in its own epoch.
//   - Stale tokens (an older epoch, or a sequence at or below the
//     watermark) are acked and dropped, so of two tokens that meet
//     mid-pass only the higher survives. A member rebuilt into a running
//     ring (Config.Join) bootstraps none.
//
// A HoldLog records holds, so a run can check that no two holds of one
// epoch overlap; check_test.go checks it over every interleaving of
// rings of two and three members. The package also provides the
// pairwise scheduler of the paper's conclusion ("a possibility to lock
// hosts (and not networks) is still needed"): on a switched network,
// disjoint host pairs measure concurrently, in the rounds of a
// round-robin tournament, and each probe is a hold of its round.
package clique

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"nwsenv/internal/nws/proto"
	"nwsenv/internal/nws/sensor"
	"nwsenv/internal/telemetry"
)

// Config parameterizes one measurement clique.
type Config struct {
	// Name identifies the clique; tokens carry it.
	Name string
	// Members lists host names in ring order; index 0 bootstraps the
	// token and has the highest election priority.
	Members []string
	// TokenGap is how long the holder rests after its experiments before
	// passing the token (sets the measurement frequency).
	TokenGap time.Duration
	// AckTimeout bounds the wait for a token acknowledgment.
	AckTimeout time.Duration
	// TokenTimeout is the watchdog: silence longer than this triggers an
	// election. Defaults to 4× the expected full-ring time.
	TokenTimeout time.Duration
	// ElectTimeout bounds the wait for higher-priority election answers.
	ElectTimeout time.Duration
	// StartDelay postpones member 0's token bootstrap; deployments
	// stagger their cliques with it to de-synchronize rings.
	StartDelay time.Duration
	// Epoch is the initial token epoch. A deployment that rebuilds a
	// clique with new members hands it a strictly higher one, so tokens
	// of the previous incarnation (say, held by a partitioned ex-member)
	// are stale instead of racing the new ring.
	Epoch int64
	// Join starts member 0 without bootstrapping a token, for a ring that
	// kept running without it (its host's agent was rebuilt, its clique
	// was not). A lost token is still regenerated by an election.
	Join bool
	// Holds, when set, receives every token hold of the member (see
	// HoldLog). Like Telemetry it never rebuilds a ring.
	Holds *HoldLog
	// Telemetry, when set, mirrors the member's Stats onto the
	// process-wide registry, labeled by clique name. Excluded from the
	// deployment's role signatures: wiring telemetry never rebuilds a
	// ring.
	Telemetry *telemetry.Registry
}

func (c Config) withDefaults() Config {
	if c.TokenGap <= 0 {
		c.TokenGap = time.Second
	}
	if c.AckTimeout <= 0 {
		c.AckTimeout = 2 * time.Second
	}
	if c.TokenTimeout <= 0 {
		per := c.TokenGap + 2*time.Second
		c.TokenTimeout = 4 * time.Duration(len(c.Members)) * per
		if c.TokenTimeout < 10*time.Second {
			c.TokenTimeout = 10 * time.Second
		}
	}
	if c.ElectTimeout <= 0 {
		c.ElectTimeout = 2 * time.Second
	}
	return c
}

// StoreFn receives every measurement a member produces (typically bound
// to a memory server client).
type StoreFn func(m sensor.Measurement)

// Stats counts protocol activity for one member.
type Stats struct {
	TokensHeld     int
	ExperimentsRun int
	ProbeErrors    int
	AcksTimedOut   int
	Elections      int
	Coordinations  int
	StaleTokens    int
}

// Hold is one token holding as its member saw it: the token's epoch and
// sequence, from the moment the member took it to the moment it sent it
// on (or stopped). Within one epoch of a clique, holds never overlap
// while the ring keeps its one token. In a pairwise clique a hold is one
// probe from Host to Partner, its epoch the scheduler's round: holds of
// one round overlap only when their pairs share no host.
type Hold struct {
	Clique, Host string
	Partner      string // the probed host of a pairwise hold; empty in a ring
	Epoch, Seq   int64
	From, To     time.Duration
}

// HoldLog collects the token holds of every member configured with it,
// until its reader takes them: a checker that reads it regularly, since
// nothing else bounds it. A nil log records nothing.
type HoldLog struct {
	mu    sync.Mutex
	holds []Hold
}

func (l *HoldLog) add(h Hold) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.holds = append(l.holds, h)
	l.mu.Unlock()
}

// Take returns the holds recorded since the last Take, in the order
// they ended, and forgets them.
func (l *HoldLog) Take() []Hold {
	l.mu.Lock()
	defer l.mu.Unlock()
	h := l.holds
	l.holds = nil
	return h
}

// Watchdog is the token silence after which a member of c starts an
// election: TokenTimeout, or its default for c's size and gap.
func (c Config) Watchdog() time.Duration { return c.withDefaults().TokenTimeout }

// Member is one clique participant running on a host: the driver of
// ring.step over its port.
type Member struct {
	cfg    Config
	port   proto.Port
	prober sensor.Prober
	store  StoreFn
	ring   ring
	tag    string        // the probes' collision tag
	links  []sensor.Link // by member index: the link from this host to it

	stopped atomic.Bool
	mu      sync.Mutex
	epoch   int64 // as of the last event, for readers outside Run
	counts  [nCounters]int
	mirrors [nCounters]*telemetry.Counter // registry mirrors (nil no-ops)
}

// NewMember builds the participant for the host behind port. The host
// must appear in cfg.Members.
func NewMember(cfg Config, port proto.Port, prober sensor.Prober, store StoreFn) *Member {
	cfg = cfg.withDefaults()
	idx := slices.Index(cfg.Members, port.Host())
	if idx < 0 {
		panic("clique: host " + port.Host() + " not a member of " + cfg.Name)
	}
	if store == nil {
		store = func(sensor.Measurement) {}
	}
	m := &Member{cfg: cfg, port: port, prober: prober, store: store, tag: "clique:" + cfg.Name, epoch: cfg.Epoch,
		ring:  ring{n: len(cfg.Members), idx: idx, watchdog: cfg.TokenTimeout, ackWait: cfg.AckTimeout, vote: cfg.ElectTimeout},
		links: make([]sensor.Link, len(cfg.Members))}
	for i, to := range cfg.Members {
		m.links[i] = sensor.NewLink(port.Host(), to)
	}
	labels := map[string]string{"clique": cfg.Name}
	for c, name := range map[counter]string{cHeld: "token_passes", cStale: "stale_tokens",
		cElection: "elections", cEpochBump: "epoch_bumps", cProbeError: "probe_errors"} {
		m.mirrors[c] = cfg.Telemetry.Counter("clique", name, labels)
	}
	return m
}

// Stats returns a snapshot of the member's counters.
func (m *Member) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	c := &m.counts
	return Stats{TokensHeld: c[cHeld], ExperimentsRun: c[cExperiment], ProbeErrors: c[cProbeError],
		AcksTimedOut: c[cAckTimeout], Elections: c[cElection], Coordinations: c[cCoordination], StaleTokens: c[cStale]}
}

// count feeds Stats and its registry mirror.
func (m *Member) count(c counter) {
	m.mu.Lock()
	m.counts[c]++
	m.mu.Unlock()
	m.mirrors[c].Inc()
}

// Stop makes Run return at its next event.
func (m *Member) Stop() { m.stopped.Store(true) }

// Run executes the member until Stop: it waits for the next message or
// the armed timer, feeds it to ring.step and carries out the effects.
func (m *Member) Run() {
	rt := m.port.Runtime()
	s, fx := m.ring.boot(m.cfg.Epoch, m.cfg.Join, m.ring.effects())
	if s.phase == holding && m.cfg.StartDelay > 0 {
		rt.Sleep(m.cfg.StartDelay)
	}
	var deadline time.Duration
	for {
		ev, next := m.apply(s, fx, &deadline)
		for !next && !m.stopped.Load() {
			if wait := deadline - rt.Now(); wait <= 0 {
				ev, next = event{kind: evTimer}, true
			} else if msg, ok := m.port.RecvTimeout(wait); !ok {
				ev, next = event{kind: evTimer}, true
			} else {
				// Messages from outside the ring are ignored.
				ev.kind, next = evKinds[msg.Type]
				ev.from, ev.epoch, ev.seq = slices.Index(m.cfg.Members, msg.From), msg.Epoch, msg.TokenSeq
				next = next && ev.from >= 0
				m.port.Drop(msg)
			}
		}
		if m.stopped.Load() {
			return
		}
		s, fx = m.ring.step(s, ev, fx[:0])
	}
}

// apply carries out fx in order and returns the event it produced, if
// any: the end of a hold, or a token its transport refused.
func (m *Member) apply(s state, fx []effect, deadline *time.Duration) (ev event, ok bool) {
	m.mu.Lock()
	m.epoch = s.epoch
	m.mu.Unlock()
	for _, f := range fx {
		switch f.kind {
		case fxSend:
			err := m.port.Send(m.cfg.Members[f.to], proto.Message{Type: f.msg, Clique: m.cfg.Name, Epoch: f.epoch, TokenSeq: f.seq})
			if err != nil && f.msg == proto.MsgToken {
				ev, ok = event{kind: evRefused}, true // e.g. firewalled
			}
		case fxArm:
			*deadline = m.port.Runtime().Now() + f.wait
		case fxHold:
			m.hold(f.epoch, f.seq)
			ev, ok = event{kind: evHoldDone}, true
		case fxCount:
			m.count(f.count)
		}
	}
	return ev, ok
}

// hold runs the experiment set towards every other member, stores the
// results, rests TokenGap and logs the hold; a Stop cuts it short.
func (m *Member) hold(epoch, seq int64) {
	rt := m.port.Runtime()
	h := Hold{Clique: m.cfg.Name, Host: m.port.Host(), Epoch: epoch, Seq: seq, From: rt.Now()}
	i := 1
	for ; i < m.ring.n && !m.stopped.Load(); i++ {
		ms, err := sensor.LinkExperiments(m.prober, rt.Now, &m.links[m.ring.at(i)], m.tag)
		if err != nil {
			m.count(cProbeError)
			continue
		}
		m.count(cExperiment)
		for _, meas := range ms {
			m.store(meas)
		}
	}
	if i == m.ring.n { // not cut short
		rt.Sleep(m.cfg.TokenGap)
	}
	h.To = rt.Now()
	m.cfg.Holds.add(h)
}
