package clique

import (
	"time"

	"nwsenv/internal/nws/proto"
)

// ring is what step, the whole token-ring protocol, knows of the
// configuration. Nothing in this file blocks, reads a clock or touches
// the network, so a test can run every interleaving of a small ring.
type ring struct {
	n, idx                  int           // ring size, and this member's index (0 ranks highest)
	watchdog, ackWait, vote time.Duration // Config's TokenTimeout, AckTimeout, ElectTimeout
}

type phase uint8

const (
	idle     phase = iota // waiting for a token; the watchdog is armed
	holding               // running the experiments; no timer is armed
	passing               // waiting for the ack of the token sent to peer
	electing              // waiting for a higher member to answer
)

// state is one member's protocol state.
type state struct {
	phase          phase
	epoch, lastSeq int64 // the ring incarnation, and the watermark: the last sequence taken or passed in it
	peer           int   // passing: the ring offset of the member the token went to
	mint           int64 // electing: the epoch this member coordinates in
}

type evKind uint8

const (
	evToken evKind = iota
	evAck
	evElection
	evElectionOK
	evCoordinator
	evTimer    // the armed timer fired
	evHoldDone // the hold's experiments and rest are over
	evRefused  // the transport refused the token at once
)

// evKinds maps the clique messages to their events.
var evKinds = map[proto.MsgType]evKind{proto.MsgToken: evToken, proto.MsgTokenAck: evAck,
	proto.MsgElection: evElection, proto.MsgElectionOK: evElectionOK, proto.MsgCoordinator: evCoordinator}

type event struct {
	kind       evKind
	from       int // the sender's ring index
	epoch, seq int64
}

type fxKind uint8

const (
	fxSend  fxKind = iota // send msg (epoch, seq) to member to
	fxArm                 // arm a timer of wait, replacing the armed one
	fxHold                // hold token (epoch, seq), then report evHoldDone
	fxCount               // count c
)

// counter names a Stats counter.
type counter uint8

const (
	cHeld counter = iota
	cExperiment
	cProbeError
	cAckTimeout
	cElection
	cCoordination
	cStale
	cEpochBump
	nCounters
)

type effect struct {
	kind       fxKind
	msg        proto.MsgType
	to         int
	epoch, seq int64
	wait       time.Duration
	count      counter
}

func send(msg proto.MsgType, to int, epoch, seq int64) effect {
	return effect{kind: fxSend, msg: msg, to: to, epoch: epoch, seq: seq}
}

func count(c counter) effect { return effect{kind: fxCount, count: c} }

// effects is a slice no one step outgrows: reused, no event allocates.
func (r ring) effects() []effect { return make([]effect, 0, 2*r.n+4) }

// boot is the state a member starts in. Member 0 bootstraps the ring
// by holding the epoch's first token, unless it joins a ring that kept
// running without it (Config.Join) and would circulate a second token.
func (r ring) boot(epoch int64, join bool, fx []effect) (state, []effect) {
	s := state{epoch: epoch}
	if r.idx == 0 && !join {
		s.lastSeq = 1
		return r.hold(s, fx)
	}
	return r.idle(s, fx)
}

// step applies ev to s, appending the effects it asks for to fx.
func (r ring) step(s state, ev event, fx []effect) (state, []effect) {
	switch ev.kind {
	case evToken:
		// Always acknowledge, so the sender never retries a token that
		// landed, even one dropped here.
		fx = append(fx, send(proto.MsgTokenAck, ev.from, ev.epoch, ev.seq))
		if ev.epoch > s.epoch {
			s = adopt(s, ev.epoch)
			fx = append(fx, count(cEpochBump))
		}
		if ev.epoch < s.epoch || ev.seq <= s.lastSeq {
			// Stale. The watermark covers a token this member is
			// passing, so where two tokens meet mid-pass each end keeps
			// only the higher, and one of the two survives.
			fx = append(fx, count(cStale))
			if s.phase == passing {
				return s, fx
			}
			return r.idle(s, fx)
		}
		s.lastSeq = ev.seq
		return r.hold(s, fx)
	case evAck:
		if s.phase == passing && ev.from == r.at(s.peer) && ev.epoch == s.epoch && ev.seq == s.lastSeq {
			return r.idle(s, fx)
		}
	case evElection:
		if ev.from <= r.idx {
			break // a higher member's election proceeds without us
		}
		// A lower member calls one: we are alive and rank higher. An
		// idle member takes the election over; one passing the token or
		// electing has the ring in hand already.
		fx = append(fx, send(proto.MsgElectionOK, ev.from, ev.epoch, 0))
		if s.phase == idle {
			return r.elect(s, fx)
		}
	case evElectionOK:
		if s.phase == electing {
			return r.idle(s, fx) // the higher member coordinates
		}
	case evCoordinator:
		// A newer token exists, and an election under way is moot. A
		// pass under way goes on: its token is stale wherever the
		// announcement landed first, and the new token brings the epoch.
		if ev.epoch > s.epoch && s.phase != passing {
			return r.idle(adopt(s, ev.epoch), append(fx, count(cEpochBump)))
		}
	case evTimer:
		switch s.phase {
		case idle:
			return r.elect(s, fx)
		case electing:
			return r.coordinate(s, fx)
		case passing:
			// The token may have landed with only its ack late: fence it.
			// The retry goes out in an epoch only this member mints, so
			// the token it believed lost is stale wherever it is held.
			s.epoch = r.nextEpoch(s)
			return r.passOn(s, append(fx, count(cAckTimeout), count(cEpochBump)))
		}
	case evRefused:
		if s.phase == passing {
			return r.passOn(s, fx) // nothing landed: no ack to wait for
		}
	case evHoldDone:
		s.lastSeq++
		s.peer = 0
		return r.passOn(s, fx)
	}
	if s.phase == idle {
		return r.idle(s, fx) // any message restarts the watchdog
	}
	return s, fx
}

// at is the member at ring offset k from this one.
func (r ring) at(k int) int { return (r.idx + k) % r.n }

func (r ring) idle(s state, fx []effect) (state, []effect) {
	s.phase = idle
	return s, append(fx, effect{kind: fxArm, wait: r.watchdog})
}

func (r ring) hold(s state, fx []effect) (state, []effect) {
	s.phase = holding
	return s, append(fx, count(cHeld), effect{kind: fxHold, epoch: s.epoch, seq: s.lastSeq})
}

// adopt moves s to a newer epoch. Sequences restart with it: a rebuilt
// ring's tokens start near 1, and the old epoch's watermark must not
// make them look stale.
func adopt(s state, epoch int64) state {
	s.epoch, s.lastSeq = epoch, 0
	return s
}

// passOn sends the token to the member after the last one tried, or,
// once every other member was tried, keeps it: it sends the next token
// to itself, which a host cut off from the network cannot.
func (r ring) passOn(s state, fx []effect) (state, []effect) {
	s.peer++
	if s.peer < r.n {
		s.phase = passing
		return s, append(fx, send(proto.MsgToken, r.at(s.peer), s.epoch, s.lastSeq), effect{kind: fxArm, wait: r.ackWait})
	}
	return r.idle(s, append(fx, send(proto.MsgToken, r.idx, s.epoch, s.lastSeq+1)))
}

// nextEpoch is the smallest epoch above s's that this member alone may
// mint: one congruent to its ring index modulo the ring size. Two
// members that mint at once — across a partition, or beside a member
// whose host crashed under it — then do so in two epochs, never one.
func (r ring) nextEpoch(s state) int64 {
	n := int64(r.n)
	e := s.epoch + 1
	return e + ((int64(r.idx)-e)%n+n)%n
}

// elect runs one bully round: challenge every higher member, and
// coordinate unless one answers before the election timer fires.
func (r ring) elect(s state, fx []effect) (state, []effect) {
	fx = append(fx, count(cElection))
	s.mint = r.nextEpoch(s)
	for i := 0; i < r.idx; i++ {
		fx = append(fx, send(proto.MsgElection, i, s.mint, 0))
	}
	if r.idx == 0 {
		return r.coordinate(s, fx)
	}
	s.phase = electing
	return s, append(fx, effect{kind: fxArm, wait: r.vote})
}

// coordinate regenerates the token in the epoch the election minted.
func (r ring) coordinate(s state, fx []effect) (state, []effect) {
	fx = append(fx, count(cCoordination), count(cEpochBump))
	s.epoch = s.mint
	s.lastSeq++
	for i := 0; i < r.n; i++ {
		if i != r.idx {
			fx = append(fx, send(proto.MsgCoordinator, i, s.epoch, 0))
		}
	}
	return r.hold(s, fx)
}
