// Package clique implements NWS measurement cliques (§2.3, after Wolski
// et al. "Synchronizing network probes to avoid measurement intrusiveness
// with the Network Weather Service", HPDC 2000): groups of hosts whose
// network experiments are mutually excluded by a circulating token, so
// that two probes never compete for a link and halve each other's
// readings.
//
// The protocol implemented:
//
//   - A token (clique name, epoch, sequence) circulates along the member
//     ring. The holder runs the §2.2 experiment set towards every other
//     member, stores the results, waits a configurable gap, and passes
//     the token on.
//   - Token passing is acknowledged; unacknowledged members are skipped
//     (network errors / dead hosts).
//   - Every member runs a watchdog. When no token has been seen for too
//     long, a bully-style election (§2.3 "mechanisms to handle network
//     errors and leader elections") designates the live member with the
//     lowest ring index as coordinator; it regenerates the token in a
//     fresh epoch that only it may mint (nextEpoch). Stale-epoch and stale-sequence tokens are dropped, and
//     a member that receives a token while passing its own acks it and
//     keeps only the higher of the two, so duplicated tokens die out
//     where they meet instead of chasing each other round the ring.
//   - A member rebuilt into a ring that kept running (Config.Join) does
//     not bootstrap a token beside the ring's own. Members given a
//     HoldLog record their holds in it, so a run can check that no two
//     holds of one epoch overlap.
//
// The package also provides the pairwise scheduler discussed in the
// paper's conclusion ("a possibility to lock hosts (and not networks) is
// still needed"): on a switched network, disjoint host pairs may measure
// concurrently; a coordinator drives rounds of a round-robin tournament
// so every ordered pair is still measured, at a higher aggregate
// frequency than a token ring allows.
package clique

import (
	"sync"
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
	// Epoch is the initial token epoch. Membership repair relies on it:
	// when a deployment rebuilds a clique with new members, it hands the
	// new incarnation a strictly higher epoch, so tokens still floating
	// around from the previous incarnation (e.g. held by a partitioned
	// ex-member) are recognized as stale and dropped instead of racing
	// the new ring.
	Epoch int64
	// Join starts member 0 without bootstrapping a token: the member is
	// rejoining a ring that kept running without it (its host's agent
	// was rebuilt, its clique was not), and a bootstrapped token would
	// circulate beside the ring's own. A lost token is still regenerated
	// by the watchdog's election.
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
// while the ring keeps its one token.
type Hold struct {
	Clique, Host string
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

// Member is one clique participant running on a host.
type Member struct {
	cfg    Config
	port   proto.Port
	prober sensor.Prober
	store  StoreFn
	idx    int

	mu      sync.Mutex
	lastSeq int64
	epoch   int64
	stopped bool
	stats   Stats

	// Registry mirrors of the Stats counters (nil instruments no-op).
	tTokens     *telemetry.Counter
	tStale      *telemetry.Counter
	tElections  *telemetry.Counter
	tEpochBumps *telemetry.Counter
	tProbeErrs  *telemetry.Counter

	backlog []proto.Message
}

// NewMember builds the participant for the host behind port. The host
// must appear in cfg.Members.
func NewMember(cfg Config, port proto.Port, prober sensor.Prober, store StoreFn) *Member {
	cfg = cfg.withDefaults()
	idx := -1
	for i, m := range cfg.Members {
		if m == port.Host() {
			idx = i
			break
		}
	}
	if idx < 0 {
		panic("clique: host " + port.Host() + " not a member of " + cfg.Name)
	}
	if store == nil {
		store = func(sensor.Measurement) {}
	}
	m := &Member{cfg: cfg, port: port, prober: prober, store: store, idx: idx, epoch: cfg.Epoch}
	labels := map[string]string{"clique": cfg.Name}
	m.tTokens = cfg.Telemetry.Counter("clique", "token_passes", labels)
	m.tStale = cfg.Telemetry.Counter("clique", "stale_tokens", labels)
	m.tElections = cfg.Telemetry.Counter("clique", "elections", labels)
	m.tEpochBumps = cfg.Telemetry.Counter("clique", "epoch_bumps", labels)
	m.tProbeErrs = cfg.Telemetry.Counter("clique", "probe_errors", labels)
	return m
}

// Stats returns a snapshot of the member's counters.
func (m *Member) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// Stop makes Run return at the next loop turn.
func (m *Member) Stop() {
	m.mu.Lock()
	m.stopped = true
	m.mu.Unlock()
}

func (m *Member) isStopped() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stopped
}

// Run executes the member until Stop or port closure. Member 0
// bootstraps the token unless it joins a running ring.
func (m *Member) Run() {
	if m.idx == 0 && !m.cfg.Join {
		if m.cfg.StartDelay > 0 {
			m.port.Runtime().Sleep(m.cfg.StartDelay)
		}
		m.mu.Lock()
		m.lastSeq = 1
		m.mu.Unlock()
		m.holdToken()
	}
	for !m.isStopped() {
		msg, ok := m.nextMessage(m.cfg.TokenTimeout)
		if m.isStopped() {
			return
		}
		if !ok {
			// Watchdog fired: no token traffic for TokenTimeout.
			m.runElection()
			continue
		}
		m.dispatch(msg)
	}
}

// nextMessage drains the backlog before reading from the port.
func (m *Member) nextMessage(timeout time.Duration) (proto.Message, bool) {
	if len(m.backlog) > 0 {
		msg := m.backlog[0]
		m.backlog = m.backlog[1:]
		return msg, true
	}
	return m.port.RecvTimeout(timeout)
}

func (m *Member) dispatch(msg proto.Message) {
	switch msg.Type {
	case proto.MsgToken:
		m.handleToken(msg)
	case proto.MsgElection:
		m.handleElection(msg)
	case proto.MsgCoordinator:
		m.mu.Lock()
		if msg.Epoch > m.epoch {
			m.epoch = msg.Epoch
			m.tEpochBumps.Inc()
			// Sequence numbers restart with the epoch: a coordinator
			// elected after a member rebuild issues tokens from a low
			// sequence, which must not look stale against the watermark
			// of the previous incarnation.
			m.lastSeq = 0
		}
		m.mu.Unlock()
	case proto.MsgTokenAck, proto.MsgElectionOK:
		// Stale answer outside a wait window: ignore.
	}
}

func (m *Member) handleToken(tok proto.Message) {
	// Always acknowledge so the sender stops retrying, even for stale
	// tokens.
	m.port.Send(tok.From, proto.Message{
		Type: proto.MsgTokenAck, Clique: m.cfg.Name, TokenSeq: tok.TokenSeq, Epoch: tok.Epoch,
	})
	m.mu.Lock()
	if tok.Epoch > m.epoch {
		// A token from a newer incarnation: its sequence space starts
		// over, so the previous incarnation's watermark must not make it
		// look stale (a member rebuilt in place restarts near sequence 1
		// while survivors may sit hundreds of passes in).
		m.epoch = tok.Epoch
		m.lastSeq = 0
		m.tEpochBumps.Inc()
	}
	if tok.Epoch < m.epoch || tok.TokenSeq <= m.lastSeq {
		m.stats.StaleTokens++
		m.tStale.Inc()
		m.mu.Unlock()
		return
	}
	m.lastSeq = tok.TokenSeq
	m.mu.Unlock()
	m.holdToken()
}

// holdToken runs the experiment round and forwards the token.
func (m *Member) holdToken() {
	now := m.port.Runtime().Now
	m.mu.Lock()
	m.stats.TokensHeld++
	me := m.port.Host()
	h := Hold{Clique: m.cfg.Name, Host: me, Epoch: m.epoch, Seq: m.lastSeq, From: now()}
	m.mu.Unlock()
	m.tTokens.Inc()

	for i := 1; i < len(m.cfg.Members); i++ {
		if m.isStopped() {
			h.To = now()
			m.cfg.Holds.add(h)
			return
		}
		peer := m.cfg.Members[(m.idx+i)%len(m.cfg.Members)]
		ms, err := sensor.LinkExperiments(m.prober, m.port.Runtime().Now, me, peer, "clique:"+m.cfg.Name)
		m.mu.Lock()
		if err != nil {
			m.stats.ProbeErrors++
			m.mu.Unlock()
			m.tProbeErrs.Inc()
			continue
		}
		m.stats.ExperimentsRun++
		m.mu.Unlock()
		for _, meas := range ms {
			m.store(meas)
		}
	}
	m.port.Runtime().Sleep(m.cfg.TokenGap)
	h.To = now()
	m.cfg.Holds.add(h)
	if !m.isStopped() {
		m.passToken()
	}
}

// passToken forwards the token to the next live member, skipping members
// that do not acknowledge.
func (m *Member) passToken() {
	m.mu.Lock()
	seq := m.lastSeq + 1
	epoch := m.epoch
	m.mu.Unlock()

	n := len(m.cfg.Members)
	for i := 1; i < n; i++ {
		peer := m.cfg.Members[(m.idx+i)%n]
		err := m.port.Send(peer, proto.Message{
			Type: proto.MsgToken, Clique: m.cfg.Name, TokenSeq: seq, Epoch: epoch,
		})
		if err != nil {
			// Unreachable peer (e.g. firewall): skip without burning the
			// ack timeout.
			continue
		}
		if m.awaitAck(seq) {
			return
		}
		m.mu.Lock()
		m.stats.AcksTimedOut++
		m.mu.Unlock()
	}
	// Nobody else is alive: keep the token ourselves and schedule the
	// next round by re-sending it to ourselves through the port (keeps
	// the main loop as the only holder entry point).
	m.mu.Lock()
	m.lastSeq = seq
	m.mu.Unlock()
	m.port.Send(m.port.Host(), proto.Message{
		Type: proto.MsgToken, Clique: m.cfg.Name, TokenSeq: seq + 1, Epoch: epoch,
	})
}

// awaitAck waits for the acknowledgment of seq, stashing unrelated
// messages in the backlog.
func (m *Member) awaitAck(seq int64) bool {
	deadline := m.port.Runtime().Now() + m.cfg.AckTimeout
	for {
		remaining := deadline - m.port.Runtime().Now()
		if remaining <= 0 {
			return false
		}
		msg, ok := m.port.RecvTimeout(remaining)
		if !ok {
			return false
		}
		if msg.Type == proto.MsgTokenAck && msg.TokenSeq == seq {
			return true
		}
		// Another token reached us while ours is in flight: two tokens
		// meet here. Ack it, so its sender does not keep it for want of
		// an answer, and keep it only if it outranks ours; both ends
		// apply the same order, so one of the two survives.
		if msg.Type == proto.MsgToken {
			m.port.Send(msg.From, proto.Message{
				Type: proto.MsgTokenAck, Clique: m.cfg.Name, TokenSeq: msg.TokenSeq, Epoch: msg.Epoch,
			})
			if m.outranks(msg, seq) {
				m.backlog = append(m.backlog, msg)
			} else {
				m.mu.Lock()
				m.stats.StaleTokens++
				m.mu.Unlock()
				m.tStale.Inc()
			}
			continue
		}
		// Elections must be answered promptly even mid-pass.
		if msg.Type == proto.MsgElection {
			m.handleElection(msg)
			continue
		}
		m.backlog = append(m.backlog, msg)
	}
}

// outranks orders a token met mid-pass against the one this member is
// passing as seq: by epoch, then sequence, then the lower ring index of
// its sender.
func (m *Member) outranks(tok proto.Message, seq int64) bool {
	m.mu.Lock()
	epoch := m.epoch
	m.mu.Unlock()
	if tok.Epoch != epoch {
		return tok.Epoch > epoch
	}
	if tok.TokenSeq != seq {
		return tok.TokenSeq > seq
	}
	return m.indexOf(tok.From) < m.idx
}

// handleElection answers a lower-priority member's election call: we are
// alive and rank higher, so we take over the election ourselves.
func (m *Member) handleElection(msg proto.Message) {
	fromIdx := m.indexOf(msg.From)
	if fromIdx < 0 || fromIdx <= m.idx {
		// From a higher-priority member: they outrank us, nothing to do;
		// their own election proceeds.
		return
	}
	m.port.Send(msg.From, proto.Message{Type: proto.MsgElectionOK, Clique: m.cfg.Name, Epoch: msg.Epoch})
	m.runElection()
}

func (m *Member) indexOf(host string) int {
	for i, h := range m.cfg.Members {
		if h == host {
			return i
		}
	}
	return -1
}

// nextEpoch is the smallest epoch above the member's that it alone may
// mint: one congruent to its ring index modulo the ring size. Two
// members that elect themselves at once — across a partition, or beside
// a member whose host crashed under it — then regenerate the token in
// two epochs, not two tokens in one. m.mu must be held.
func (m *Member) nextEpoch() int64 {
	n := int64(len(m.cfg.Members))
	e := m.epoch + 1
	return e + ((int64(m.idx)-e)%n+n)%n
}

// runElection runs one bully round: challenge all higher-priority
// members; silence means we coordinate and regenerate the token.
func (m *Member) runElection() {
	m.mu.Lock()
	m.stats.Elections++
	newEpoch := m.nextEpoch()
	m.mu.Unlock()
	m.tElections.Inc()

	anyHigher := false
	for i := 0; i < m.idx; i++ {
		m.port.Send(m.cfg.Members[i], proto.Message{
			Type: proto.MsgElection, Clique: m.cfg.Name, Epoch: newEpoch,
		})
	}
	if m.idx > 0 {
		deadline := m.port.Runtime().Now() + m.cfg.ElectTimeout
		for {
			remaining := deadline - m.port.Runtime().Now()
			if remaining <= 0 {
				break
			}
			msg, ok := m.port.RecvTimeout(remaining)
			if !ok {
				break
			}
			if msg.Type == proto.MsgElectionOK {
				anyHigher = true
				break
			}
			if msg.Type == proto.MsgToken {
				// The ring recovered by itself.
				m.handleToken(msg)
				return
			}
			m.backlog = append(m.backlog, msg)
		}
	}
	if anyHigher {
		// A higher-priority member is alive; it will coordinate.
		return
	}
	// We are the highest-priority live member: coordinate.
	m.mu.Lock()
	m.stats.Coordinations++
	m.epoch = newEpoch
	m.lastSeq++
	m.mu.Unlock()
	m.tEpochBumps.Inc()
	for i, peer := range m.cfg.Members {
		if i == m.idx {
			continue
		}
		m.port.Send(peer, proto.Message{Type: proto.MsgCoordinator, Clique: m.cfg.Name, Epoch: newEpoch})
	}
	m.holdToken()
}
