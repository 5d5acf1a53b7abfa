package clique

import (
	"fmt"
	"hash/maphash"
	"slices"
	"strings"
	"testing"
	"time"

	"nwsenv/internal/nws/proto"
)

// The exhaustive checker runs ring.step, the protocol every Member
// drives, through every interleaving of a ring of two and of three
// members, breadth first over hashed states, up to a stated depth. A
// move is one of:
//
//   - deliver a message in flight, in any order (a holding member takes
//     messages only once its hold is over, as its driver does);
//   - lose one, or deliver one twice;
//   - end a hold;
//   - fire a member's armed timer. An ack or election timer fires at
//     once if nothing it waits for is in flight, or as a fault (the
//     answer is late) if something is. A watchdog fires only while the
//     ring is quiescent — every member idle or down and nothing in
//     flight — which is the model's way of saying that the watchdog
//     outlasts any hold, pass or election, as Config's default (four
//     full-ring times) does;
//   - crash a member, losing its state and what it has in flight, and
//     later restart it with Config.Join.
//
// Faults (loss, duplicate, late answer, crash, restart) are budgeted.
// In every state reached: no two members hold in one epoch; every
// token delivered was acknowledged, so no passer retries a token that
// landed unless its answer was late; and once the faults stop, a hold
// follows within two watchdogs.

// wire is a message in flight. The checker's epochs and sequences stay
// small, so it keeps them in 16 bits: the frontier is mostly wires.
type wire struct {
	kind       evKind
	from, to   int8
	epoch, seq int16
}

func narrow(x int64) int16 {
	if int64(int16(x)) != x {
		panic(fmt.Sprintf("checker: %d does not fit a wire", x))
	}
	return int16(x)
}

const (
	maxRing   = 3
	maxFlight = 12
)

// world is the whole ring: members, network and the faults spent.
// Unused slots stay zero, so equal rings hash equally.
type world struct {
	m                      [maxRing]state
	down                   [maxRing]bool
	net                    [maxFlight]wire // sorted
	inFlight               int8
	lost, dup, late, crash int8
	restarted              bool
	idleWatchdogs          int8 // watchdogs fired since the last hold or fault
	unanswered             bool // a member took delivery of a token without acking it
	overflow               bool // a send found maxFlight messages in flight
}

// budget bounds the faults one interleaving may contain.
type budget struct{ lost, dup, late, crash int8 }

type checker struct {
	n     int
	rings [maxRing]ring
	b     budget
}

type moveKind uint8

const (
	mDeliver moveKind = iota
	mHoldDone
	mTimer
	mWatchdog
	mLose // the faults
	mDuplicate
	mLateTimer
	mCrash
	mRestart
)

var moveName = [...]string{mDeliver: "deliver", mHoldDone: "hold done", mTimer: "timer",
	mWatchdog: "watchdog", mLose: "lose", mDuplicate: "duplicate", mLateTimer: "late timer",
	mCrash: "crash", mRestart: "restart with Join"}

// move is one transition, kept for the counterexample.
type move struct {
	kind   moveKind
	member int8
	msg    wire // deliver, lose, duplicate
}

func (mv move) String() string {
	switch mv.kind {
	case mDeliver, mLose, mDuplicate:
		w := mv.msg
		return fmt.Sprintf("%s %s h%d→h%d e%d s%d", moveName[mv.kind], kindName[w.kind], w.from, w.to, w.epoch, w.seq)
	}
	return fmt.Sprintf("%s h%d", moveName[mv.kind], mv.member)
}

var kindName = [...]string{evToken: "token", evAck: "ack", evElection: "election",
	evElectionOK: "election-ok", evCoordinator: "coordinator"}

// apply puts the messages member i sends in fx on the network.
func (c *checker) apply(w *world, i int, fx []effect) {
	for _, f := range fx {
		if f.kind != fxSend || w.down[f.to] {
			continue // timers are implied by the phase; holds by holding
		}
		if int(w.inFlight) == maxFlight {
			w.overflow = true
			return
		}
		m := wire{kind: evKinds[f.msg], from: int8(i), to: int8(f.to), epoch: narrow(f.epoch), seq: narrow(f.seq)}
		k := int(w.inFlight)
		for k > 0 && less(m, w.net[k-1]) {
			w.net[k] = w.net[k-1]
			k--
		}
		w.net[k] = m
		w.inFlight++
	}
}

func less(a, b wire) bool {
	if a.to != b.to {
		return a.to < b.to
	}
	if a.from != b.from {
		return a.from < b.from
	}
	if a.kind != b.kind {
		return a.kind < b.kind
	}
	if a.epoch != b.epoch {
		return a.epoch < b.epoch
	}
	return a.seq < b.seq
}

func (w *world) remove(k int) {
	copy(w.net[k:], w.net[k+1:w.inFlight])
	w.inFlight--
	w.net[w.inFlight] = wire{}
}

func (w *world) holds(i int) bool { return !w.down[i] && w.m[i].phase == holding }

// awaited reports whether m is the token member i is passing, still in
// flight, or the ack the pass waits for.
func (c *checker) awaited(w *world, i int, m wire) bool {
	s, peer := w.m[i], int8(c.rings[i].at(w.m[i].peer))
	return s.phase == passing && int64(m.epoch) == s.epoch && int64(m.seq) == s.lastSeq &&
		(m.kind == evToken && m.from == int8(i) && m.to == peer ||
			m.kind == evAck && m.from == peer && m.to == int8(i))
}

// waitsFor reports whether member i's armed ack or election timer still
// has its message or answer in flight.
func (c *checker) waitsFor(w *world, i int) bool {
	for _, m := range w.net[:w.inFlight] {
		if c.awaited(w, i, m) || w.m[i].phase == electing &&
			(m.kind == evElection && m.from == int8(i) || m.kind == evElectionOK && m.to == int8(i)) {
			return true
		}
	}
	return false
}

// prune drops the messages whose delivery could change nothing: an
// ack or an election answer its receiver no longer waits for, and a
// coordinator announcing an epoch its receiver has reached. A member's
// epoch and its passes only move forward, and a crash loses what was
// in flight to it, so none of these can matter later either. Pruning
// them keeps equal rings equal.
func (c *checker) prune(w *world) {
	for k := int(w.inFlight) - 1; k >= 0; k-- {
		m, s := w.net[k], w.m[w.net[k].to]
		if m.kind == evAck && !c.awaited(w, int(m.to), m) ||
			m.kind == evElectionOK && s.phase != electing ||
			m.kind == evCoordinator && int64(m.epoch) <= s.epoch {
			w.remove(k)
		}
	}
}

func (w *world) quiescent() bool {
	for i := range w.m {
		if !w.down[i] && w.m[i].phase != idle {
			return false
		}
	}
	return w.inFlight == 0
}

// succ calls visit with every successor of w and the move to it; visit
// returns false to stop.
func (c *checker) succ(w world, visit func(world, move) bool) bool {
	fx := make([]effect, 0, 16)
	stepped := func(nw world, i int, ev event, mv move) bool {
		nw.m[i], fx = c.rings[i].step(nw.m[i], ev, fx[:0])
		c.apply(&nw, i, fx)
		if ev.kind == evToken {
			nw.unanswered = !slices.Contains(fx, send(proto.MsgTokenAck, ev.from, ev.epoch, ev.seq))
		}
		return visit(nw, mv)
	}
	for k := 0; k < int(w.inFlight); k++ {
		m := w.net[k]
		if k > 0 && m == w.net[k-1] {
			continue // the same message twice: one choice
		}
		to := int(m.to)
		ev := event{kind: m.kind, from: int(m.from), epoch: int64(m.epoch), seq: int64(m.seq)}
		if w.m[to].phase != holding {
			nw := w
			nw.remove(k)
			if !stepped(nw, to, ev, move{mDeliver, m.to, m}) {
				return false
			}
			if w.dup < c.b.dup {
				nw := w
				nw.dup++
				if !stepped(nw, to, ev, move{mDuplicate, m.to, m}) {
					return false
				}
			}
		}
		if w.lost < c.b.lost {
			nw := w
			nw.remove(k)
			nw.lost++
			if !visit(nw, move{mLose, m.to, m}) {
				return false
			}
		}
	}
	for i := 0; i < c.n; i++ {
		mv := move{member: int8(i)}
		if w.down[i] {
			if !w.restarted {
				nw := w
				nw.down[i], nw.restarted = false, true
				nw.m[i], fx = c.rings[i].boot(0, true, fx[:0])
				c.apply(&nw, i, fx)
				mv.kind = mRestart
				if !visit(nw, mv) {
					return false
				}
			}
			continue
		}
		switch w.m[i].phase {
		case holding:
			mv.kind = mHoldDone
			if !stepped(w, i, event{kind: evHoldDone}, mv) {
				return false
			}
		case idle:
			if w.quiescent() {
				nw := w
				nw.idleWatchdogs++
				mv.kind = mWatchdog
				if !stepped(nw, i, event{kind: evTimer}, mv) {
					return false
				}
			}
		default:
			nw := w
			mv.kind = mTimer
			if c.waitsFor(&w, i) {
				nw.late++
				mv.kind = mLateTimer
			}
			if nw.late <= c.b.late && !stepped(nw, i, event{kind: evTimer}, mv) {
				return false
			}
		}
		if w.crash < c.b.crash {
			nw := w
			nw.crash++
			nw.down[i], nw.m[i] = true, state{}
			for k := int(nw.inFlight) - 1; k >= 0; k-- {
				if nw.net[k].to == int8(i) || nw.net[k].from == int8(i) {
					nw.remove(k)
				}
			}
			mv.kind = mCrash
			if !visit(nw, mv) {
				return false
			}
		}
	}
	return true
}

// violation returns what w, reached from parent by mv, breaks, or "".
// It first brings w's watchdog count up to date: a fault or a hold that
// begins resets it.
func (c *checker) violation(parent, w *world, mv move) string {
	for i := 0; i < c.n; i++ {
		if mv.kind >= mLose || w.holds(i) && !parent.holds(i) {
			w.idleWatchdogs = 0
		}
	}
	switch {
	case w.overflow:
		return fmt.Sprintf("more than %d messages in flight", maxFlight)
	case w.unanswered:
		return "a token was delivered and not acknowledged"
	case w.idleWatchdogs >= 2:
		return "two watchdogs fired with no hold and no fault between"
	}
	for i := 0; i < c.n; i++ {
		for j := i + 1; j < c.n; j++ {
			if w.holds(i) && w.holds(j) && w.m[i].epoch == w.m[j].epoch {
				return fmt.Sprintf("h%d and h%d both hold in epoch %d", i, j, w.m[i].epoch)
			}
		}
	}
	return ""
}

type result struct {
	states, depth int
	trace         []move // the shortest interleaving to a violation
	why           string
}

// explore runs the breadth-first search from the booted ring.
func (c *checker) explore(maxDepth int) result {
	var w world
	for i := 0; i < c.n; i++ {
		c.rings[i] = ring{n: c.n, idx: i}
		var fx []effect
		w.m[i], fx = c.rings[i].boot(0, false, nil)
		c.apply(&w, i, fx)
	}
	seed := maphash.MakeSeed()
	seen := map[uint64]struct{}{maphash.Comparable(seed, w): {}}
	type node struct {
		w    world
		path int32 // index into paths
	}
	type link struct {
		parent int32
		mv     move
	}
	paths := []link{{parent: -1}}
	frontier := []node{{w, 0}}
	var res result
	for res.depth < maxDepth && len(frontier) > 0 && res.why == "" {
		var next []node
		for _, nd := range frontier {
			if !c.succ(nd.w, func(nw world, mv move) bool {
				res.why = c.violation(&nd.w, &nw, mv)
				c.prune(&nw)
				h := maphash.Comparable(seed, nw)
				if _, ok := seen[h]; ok && res.why == "" {
					return true
				}
				seen[h] = struct{}{}
				paths = append(paths, link{nd.path, mv})
				next = append(next, node{nw, int32(len(paths) - 1)})
				return res.why == ""
			}) {
				for p := int32(len(paths) - 1); p > 0; p = paths[p].parent {
					res.trace = append(res.trace, paths[p].mv)
				}
				slices.Reverse(res.trace)
				break
			}
		}
		frontier = next
		res.depth++
	}
	res.states = len(seen)
	return res
}

// TestRingExhaustive is the checker's run: rings of two and three
// members, to the depth each row states, with the fault budget it
// states. A failure prints the shortest interleaving that breaks a
// property.
func TestRingExhaustive(t *testing.T) {
	for _, tc := range []struct {
		n     int
		depth int
		b     budget
	}{
		{2, 20, budget{lost: 1, dup: 1, late: 1, crash: 1}},
		{3, 13, budget{lost: 1, dup: 1, late: 1, crash: 1}},
	} {
		start := time.Now()
		c := &checker{n: tc.n, b: tc.b}
		res := c.explore(tc.depth)
		t.Logf("ring of %d, depth %d, faults %+v: %d states in %v",
			tc.n, res.depth, tc.b, res.states, time.Since(start).Round(time.Millisecond))
		if res.why != "" {
			var b strings.Builder
			for i, mv := range res.trace {
				fmt.Fprintf(&b, "\n  %2d. %v", i+1, mv)
			}
			t.Errorf("ring of %d: %s after %d moves:%s", tc.n, res.why, len(res.trace), b.String())
		}
	}
}

// TestStepFitsTheDriverSlice: the effects of any one event fit the
// slice Member.Run allocates once (ring.effects), so no event
// allocates. The longest are member 0's election, which coordinates at
// once, and a coordination announcing to every other member.
func TestStepFitsTheDriverSlice(t *testing.T) {
	for _, n := range []int{1, 2, 3, 8} {
		for idx := 0; idx < n; idx++ {
			r := ring{n: n, idx: idx}
			fx := r.effects()
			for _, s := range []state{{phase: idle}, {phase: electing, mint: 7}, {phase: passing, peer: 1}, {phase: holding}} {
				for _, ev := range []event{{kind: evTimer}, {kind: evToken, epoch: 9, seq: 3}, {kind: evHoldDone},
					{kind: evElection, from: n - 1, epoch: 5}, {kind: evCoordinator, epoch: 9}, {kind: evRefused}} {
					if allocs := testing.AllocsPerRun(10, func() { _, fx = r.step(s, ev, fx[:0]) }); allocs != 0 {
						t.Errorf("ring of %d, member %d, %+v on %+v: %v allocations", n, idx, ev, s, allocs)
					}
				}
			}
		}
	}
}
