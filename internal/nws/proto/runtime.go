package proto

import (
	"sync"
	"time"

	"nwsenv/internal/vclock"
)

// Runtime abstracts time and concurrency so NWS components run unchanged
// on virtual time (simulation) or wall-clock time (real TCP deployments).
type Runtime interface {
	// Now returns the current time as an offset from the runtime epoch.
	Now() time.Duration
	// Sleep blocks the calling process/goroutine.
	Sleep(d time.Duration)
	// Go spawns a process/goroutine.
	Go(name string, fn func())
	// After schedules fn; the returned function cancels it (best effort).
	After(d time.Duration, fn func()) (cancel func())
	// NewInbox creates a mailbox for message hand-off.
	NewInbox(name string) Inbox
}

// Inbox is an unbounded FIFO mailbox of messages, on both runtimes: Send
// never blocks and never applies backpressure. Load is shed where it is
// admitted — the gateway's admission queue, the replica fan-out's
// bounded in-flight window — not here. Several receivers may share one.
type Inbox interface {
	// Recv blocks until a message arrives; ok=false after Close.
	Recv() (Message, bool)
	// RecvTimeout is Recv with a timeout; ok=false on timeout or close.
	RecvTimeout(d time.Duration) (Message, bool)
	// TryRecv never blocks.
	TryRecv() (Message, bool)
	// Send enqueues m; after Close it drops m.
	Send(m Message)
	// Close releases receivers once the messages already queued are taken.
	Close()
}

// ---- Simulated runtime ----

// SimRuntime adapts a vclock simulation to the Runtime interface.
type SimRuntime struct{ Sim *vclock.Sim }

// NewSimRuntime wraps sim.
func NewSimRuntime(sim *vclock.Sim) *SimRuntime { return &SimRuntime{Sim: sim} }

func (r *SimRuntime) Now() time.Duration        { return r.Sim.Now() }
func (r *SimRuntime) Sleep(d time.Duration)     { r.Sim.Sleep(d) }
func (r *SimRuntime) Go(name string, fn func()) { r.Sim.Go(name, fn) }
func (r *SimRuntime) After(d time.Duration, fn func()) func() {
	ev := r.Sim.After(d, fn)
	return func() { ev.Cancel() }
}

func (r *SimRuntime) NewInbox(name string) Inbox {
	return &simInbox{ch: vclock.NewChan[Message](r.Sim, name)}
}

type simInbox struct{ ch *vclock.Chan[Message] }

func (b *simInbox) Recv() (Message, bool)                       { return b.ch.Recv() }
func (b *simInbox) RecvTimeout(d time.Duration) (Message, bool) { return b.ch.RecvTimeout(d) }
func (b *simInbox) TryRecv() (Message, bool)                    { return b.ch.TryRecv() }

// Send drops messages arriving after Close (mailbox semantics, like
// realInbox): a component torn down by an incremental redeploy must not
// crash late senders.
func (b *simInbox) Send(m Message) { b.ch.TrySend(m) }
func (b *simInbox) Close()         { b.ch.Close() }

// ---- Real-time runtime ----

// RealRuntime implements Runtime on the wall clock, for running NWS
// components over real sockets. Processes are goroutines (names are
// ignored) and inboxes are growable mailboxes.
type RealRuntime struct{ epoch time.Time }

// NewRealRuntime returns a runtime whose Now starts at zero.
func NewRealRuntime() *RealRuntime { return &RealRuntime{epoch: time.Now()} }

func (r *RealRuntime) Now() time.Duration        { return time.Since(r.epoch) }
func (r *RealRuntime) Sleep(d time.Duration)     { time.Sleep(d) }
func (r *RealRuntime) Go(name string, fn func()) { go fn() }
func (r *RealRuntime) After(d time.Duration, fn func()) func() {
	t := time.AfterFunc(d, fn)
	return func() { t.Stop() }
}

func (r *RealRuntime) NewInbox(name string) Inbox {
	return &realInbox{wake: make(chan struct{}, 1)}
}

// inboxRetain is the largest ring (in messages) a drained realInbox
// keeps for its next burst; a larger one is given back to the collector.
const inboxRetain = 64

// realInbox is a growable mailbox: a mutex-guarded ring of messages, so
// an inbox costs what it holds. Receivers park on wake, a 1-slot channel
// holding a token whenever the ring may be non-empty; Close closes it,
// which releases every receiver for good.
type realInbox struct {
	mu     sync.Mutex
	buf    []Message // ring; len is zero or a power of two
	head   int       // index of the oldest message
	n      int       // messages queued
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

func (b *realInbox) Send(m Message) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	if b.n == len(b.buf) {
		grown := make([]Message, max(1, 2*b.n))
		k := copy(grown, b.buf[b.head:])
		copy(grown[k:], b.buf[:b.head])
		b.buf, b.head = grown, 0
	}
	b.buf[(b.head+b.n)&(len(b.buf)-1)] = m
	b.n++
	b.arm()
}

// pop moves the oldest message, if any, into m.
func (b *realInbox) pop(m *Message) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.n == 0 {
		return false
	}
	*m = b.buf[b.head]
	b.buf[b.head] = Message{} // drop the slot's payload references
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

func (b *realInbox) TryRecv() (m Message, ok bool) {
	ok = b.pop(&m)
	return m, ok
}

func (b *realInbox) Recv() (m Message, ok bool) {
	for !b.pop(&m) {
		if _, open := <-b.wake; !open {
			ok = b.pop(&m) // what was queued before Close
			return m, ok
		}
	}
	return m, true
}

// RecvTimeout takes a queued message before it allocates a timer.
func (b *realInbox) RecvTimeout(d time.Duration) (m Message, ok bool) {
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
