package proto

import (
	"sync"
	"time"

	"nwsenv/internal/nws/proto/internal/releasehook"
	"nwsenv/internal/vclock"
)

// Runtime abstracts time and concurrency so NWS components run unchanged
// on virtual time (simulation) or wall-clock time (real TCP deployments).
type Runtime interface {
	// Now returns the current time as an offset from the runtime epoch.
	Now() time.Duration
	// Sleep blocks the calling process/goroutine.
	Sleep(d time.Duration)
	// Settle blocks the calling process until every other event due at
	// the current virtual instant has run; on the wall clock, where no
	// two events share an instant, it returns at once.
	Settle()
	// Go spawns a process/goroutine.
	Go(name string, fn func())
	// After schedules fn; the returned function cancels it (best effort).
	After(d time.Duration, fn func()) (cancel func())
	// NewInbox creates a mailbox for message hand-off.
	NewInbox(name string) Inbox
	// messages is the runtime's free list of messages (see Inbox).
	messages() *msgFree
}

// Inbox is an unbounded FIFO mailbox of messages, on both runtimes: Send
// never blocks and never applies backpressure. Load is shed where it is
// admitted — the gateway's admission queue, the replica fan-out's
// bounded in-flight window — not here. Several receivers may share one.
//
// Messages travel by pointer, and this is the one ownership rule for
// them. A message that arrives from the transport was taken from its
// runtime's free list by the sending station; the endpoint, the
// station and the inbox hand that one pointer on, so whoever a Send
// gives it to owns it. A role owns a message its Recv returned until it
// replies to it (Port.Reply, Port.ReplyError) or drops it (Port.Drop),
// and never after: both give it back to the free list, where it is
// zeroed and reused for the next message sent. A message its owner
// forgets is left to the collector. Recycling zeroes the struct only: the arrays its slices
// (Samples, Results, Regs, ...) pointed at are never reused, since a
// memory server or replica may have kept them.
type Inbox interface {
	// Recv blocks until a message arrives; ok=false after Close.
	Recv() (*Message, bool)
	// RecvTimeout is Recv with a timeout; ok=false on timeout or close.
	RecvTimeout(d time.Duration) (*Message, bool)
	// TryRecv never blocks.
	TryRecv() (*Message, bool)
	// Send enqueues m, which the inbox then owns; after Close it drops m.
	Send(m *Message)
	// Close releases receivers once the messages already queued are taken.
	Close()
}

// msgFree is a runtime's free list of messages: a station takes one for
// each message it sends and gives it back once the receiver is done
// with it. A sync.Pool, so the goroutines of the real runtime share it
// without contending for a lock.
type msgFree struct {
	pool sync.Pool
	// poison is the test hook's poison mode (prototest.PoisonMessages),
	// fixed when the runtime is built: a released message is poisoned
	// (a released type, negative IDs, marked strings) instead of reused,
	// and a station panics when it is handed a poisoned message to
	// deliver or reply to, or releases one twice. A use after release
	// then fails loudly instead of reading the next message's fields.
	poison bool
}

// init readies f, reading the poison hook.
func (f *msgFree) init() { f.poison = releasehook.Poison.Load() }

// get returns a zeroed message.
func (f *msgFree) get() *Message {
	if m, ok := f.pool.Get().(*Message); ok {
		return m
	}
	return new(Message)
}

// put zeroes m and keeps it for a later get; in poison mode it poisons
// m instead and never hands it out again.
func (f *msgFree) put(m *Message) {
	if f.poison {
		poison(m)
		return
	}
	*m = Message{}
	f.pool.Put(m)
}

// mustLive panics, in poison mode only, on a poisoned message: one
// handed on after its owner released it. Outside it a released message
// is zeroed, and a peer may send any type, msgReleased's included.
func (f *msgFree) mustLive(m *Message) {
	if f.poison && m.Type == msgReleased {
		panic("proto: use of a released message")
	}
}

// msgReleased is the type of a poisoned message.
const msgReleased MsgType = -1

// releasedMark fills every string field of a poisoned message.
const releasedMark = "\u2620released"

func poison(m *Message) {
	if m.Type == msgReleased {
		panic("proto: message released twice")
	}
	*m = Message{
		Type: msgReleased, Version: -1, From: releasedMark, ID: -1, ReplyTo: -1, Error: releasedMark,
		Reg:  Registration{Name: releasedMark, Kind: releasedMark, Host: releasedMark, Owner: releasedMark},
		Kind: releasedMark, Name: releasedMark, Series: releasedMark, Count: -1,
		Clique: releasedMark, TokenSeq: -1, Epoch: -1, Total: -1, Code: releasedMark, RetryAfter: -1,
	}
}

// ---- Simulated runtime ----

// SimRuntime adapts a vclock simulation to the Runtime interface.
type SimRuntime struct {
	Sim  *vclock.Sim
	msgs msgFree
}

// NewSimRuntime wraps sim.
func NewSimRuntime(sim *vclock.Sim) *SimRuntime {
	r := &SimRuntime{Sim: sim}
	r.msgs.init()
	return r
}

func (r *SimRuntime) Now() time.Duration        { return r.Sim.Now() }
func (r *SimRuntime) Sleep(d time.Duration)     { r.Sim.Sleep(d) }
func (r *SimRuntime) Settle()                   { r.Sim.Settle() }
func (r *SimRuntime) Go(name string, fn func()) { r.Sim.Go(name, fn) }
func (r *SimRuntime) After(d time.Duration, fn func()) func() {
	ev := r.Sim.After(d, fn)
	return func() { ev.Cancel() }
}

func (r *SimRuntime) NewInbox(name string) Inbox {
	return &simInbox{ch: vclock.NewChan[*Message](r.Sim, name)}
}

func (r *SimRuntime) messages() *msgFree { return &r.msgs }

type simInbox struct{ ch *vclock.Chan[*Message] }

func (b *simInbox) Recv() (*Message, bool)                       { return b.ch.Recv() }
func (b *simInbox) RecvTimeout(d time.Duration) (*Message, bool) { return b.ch.RecvTimeout(d) }
func (b *simInbox) TryRecv() (*Message, bool)                    { return b.ch.TryRecv() }

// Send drops messages arriving after Close (mailbox semantics, like
// realInbox): a component torn down by an incremental redeploy must not
// crash late senders.
func (b *simInbox) Send(m *Message) { b.ch.TrySend(m) }
func (b *simInbox) Close()          { b.ch.Close() }

// ---- Real-time runtime ----

// RealRuntime implements Runtime on the wall clock, for running NWS
// components over real sockets. Processes are goroutines (names are
// ignored) and inboxes are growable mailboxes.
type RealRuntime struct {
	epoch time.Time
	msgs  msgFree
}

// NewRealRuntime returns a runtime whose Now starts at zero.
func NewRealRuntime() *RealRuntime {
	r := &RealRuntime{epoch: time.Now()}
	r.msgs.init()
	return r
}

func (r *RealRuntime) Now() time.Duration        { return time.Since(r.epoch) }
func (r *RealRuntime) Sleep(d time.Duration)     { time.Sleep(d) }
func (r *RealRuntime) Settle()                   {}
func (r *RealRuntime) Go(name string, fn func()) { go fn() }
func (r *RealRuntime) After(d time.Duration, fn func()) func() {
	t := time.AfterFunc(d, fn)
	return func() { t.Stop() }
}

func (r *RealRuntime) NewInbox(name string) Inbox {
	return &realInbox{wake: make(chan struct{}, 1)}
}

func (r *RealRuntime) messages() *msgFree { return &r.msgs }

// inboxRetain is the largest ring (in messages) a drained realInbox
// keeps for its next burst; a larger one is given back to the collector.
const inboxRetain = 64

// realInbox is a growable mailbox: a mutex-guarded ring of messages, so
// an inbox costs what it holds. Receivers park on wake, a 1-slot channel
// holding a token whenever the ring may be non-empty; Close closes it,
// which releases every receiver for good.
type realInbox struct {
	mu     sync.Mutex
	buf    []*Message // ring; len is zero or a power of two
	head   int        // index of the oldest message
	n      int        // messages queued
	closed bool
	wake   chan struct{}
}

// arm leaves a wake token unless one is already there. Called with mu
// held and the box open, so it cannot meet Close's close(wake).
func (b *realInbox) arm() {
	select {
	case b.wake <- struct{}{}:
	default:
	}
}

func (b *realInbox) Send(m *Message) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	if b.n == len(b.buf) {
		grown := make([]*Message, max(1, 2*b.n))
		k := copy(grown, b.buf[b.head:])
		copy(grown[k:], b.buf[:b.head])
		b.buf, b.head = grown, 0
	}
	b.buf[(b.head+b.n)&(len(b.buf)-1)] = m
	b.n++
	b.arm()
}

// pop moves the oldest message, if any, into m.
func (b *realInbox) pop(m **Message) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.n == 0 {
		return false
	}
	*m = b.buf[b.head]
	b.buf[b.head] = nil
	b.head = (b.head + 1) & (len(b.buf) - 1)
	b.n--
	switch {
	case b.n == 0 && len(b.buf) > inboxRetain:
		b.buf, b.head = nil, 0
	case b.n > 0 && !b.closed:
		// Receivers sharing the box each took one token for one message:
		// the next one must not sleep on what is left.
		b.arm()
	}
	return true
}

func (b *realInbox) TryRecv() (m *Message, ok bool) {
	ok = b.pop(&m)
	return m, ok
}

func (b *realInbox) Recv() (m *Message, ok bool) {
	for !b.pop(&m) {
		if _, open := <-b.wake; !open {
			ok = b.pop(&m) // what was queued before Close
			return m, ok
		}
	}
	return m, true
}

// RecvTimeout takes a queued message before it allocates a timer.
func (b *realInbox) RecvTimeout(d time.Duration) (m *Message, ok bool) {
	if b.pop(&m) {
		return m, true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	for {
		select {
		case _, open := <-b.wake:
			if ok = b.pop(&m); ok || !open {
				return m, ok
			}
		case <-t.C:
			return m, false
		}
	}
}

func (b *realInbox) Close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.closed {
		b.closed = true
		close(b.wake)
	}
}
