package vclock

import "time"

// Chan is an unbounded FIFO channel for communication between simulation
// processes. Send never blocks; Recv blocks the calling process in virtual
// time until a value (or close) arrives. All hand-offs are serialized
// through the simulation event queue, preserving determinism.
type Chan[T any] struct {
	sim  *Sim
	name string
	// buf is a ring of n buffered values starting at head; len(buf) is
	// its capacity. A popped slot is zeroed at once, so a drained
	// channel keeps nothing it delivered reachable, and the ring is
	// reused in place instead of regrowing.
	buf     []T
	head, n int
	waiters []*waiter[T]
	free    []*waiter[T] // recycled waiters; bounded by peak concurrent receivers
	closed  bool
}

// waiter is one blocked receive. Waiters are pooled per channel: the
// timeout callback is built once and reused for every block/wake cycle,
// so steady-state receive traffic allocates nothing. Reuse is safe
// because each cycle is ended exactly once, under sim.mu, by a wake or
// by the timer: wake cancels the timer and forgets it, and a canceled
// event is never run (it is skipped at heap pop or swept).
type waiter[T any] struct {
	c       *Chan[T]
	p       *proc // the blocked receiver
	v       T
	ok      bool
	done    bool
	timer   *Event
	timeout func() *proc
}

// NewChan creates a channel bound to sim. The name is used in diagnostics.
func NewChan[T any](sim *Sim, name string) *Chan[T] {
	return &Chan[T]{sim: sim, name: name}
}

// Name returns the channel's diagnostic name.
func (c *Chan[T]) Name() string { return c.name }

// pushLocked appends v to the ring, doubling it when full. Caller holds
// sim.mu.
func (c *Chan[T]) pushLocked(v T) {
	if c.n == len(c.buf) {
		grown := make([]T, max(1, 2*len(c.buf)))
		k := copy(grown, c.buf[c.head:])
		copy(grown[k:], c.buf[:c.head])
		c.buf, c.head = grown, 0
	}
	c.buf[(c.head+c.n)%len(c.buf)] = v
	c.n++
}

// popLocked removes the oldest buffered value, zeroing its slot. Caller
// holds sim.mu and guarantees c.n > 0.
func (c *Chan[T]) popLocked() T {
	var zero T
	v := c.buf[c.head]
	c.buf[c.head] = zero
	c.head = (c.head + 1) % len(c.buf)
	c.n--
	return v
}

// wake schedules delivery to w at the current instant: the value is
// written here under sim.mu and the event only resumes the receiver.
// Caller holds sim.mu.
func (c *Chan[T]) wake(w *waiter[T], v T, ok bool) {
	w.done = true
	w.v, w.ok = v, ok
	if w.timer != nil {
		c.sim.cancelLocked(w.timer)
		w.timer = nil
	}
	c.sim.blocked--
	c.sim.readyLocked(w.p)
}

// Send delivers v to a waiting receiver or buffers it. It may be called
// from processes, event callbacks, or before Run starts. Sending on a
// closed channel panics, mirroring native channels.
func (c *Chan[T]) Send(v T) {
	if !c.TrySend(v) {
		panic("vclock: send on closed channel " + c.name)
	}
}

// TrySend is Send that reports false instead of panicking when the
// channel is closed — the mailbox semantic: messages arriving at a
// torn-down component are dropped, as on a real network.
func (c *Chan[T]) TrySend(v T) bool {
	c.sim.mu.Lock()
	defer c.sim.mu.Unlock()
	if c.closed {
		return false
	}
	for len(c.waiters) > 0 {
		w := c.waiters[0]
		// Shift down instead of re-slicing forward: a forward slice
		// strands the backing array's capacity, forcing the next block
		// to reallocate; shifting keeps the array hot forever.
		n := copy(c.waiters, c.waiters[1:])
		c.waiters[n] = nil
		c.waiters = c.waiters[:n]
		if w.done {
			continue
		}
		c.wake(w, v, true)
		return true
	}
	c.pushLocked(v)
	return true
}

// Close closes the channel: buffered values can still be received, after
// which Recv returns ok=false. Waiting receivers are released immediately.
func (c *Chan[T]) Close() {
	c.sim.mu.Lock()
	defer c.sim.mu.Unlock()
	if c.closed {
		return
	}
	c.closed = true
	var zero T
	for _, w := range c.waiters {
		if !w.done {
			c.wake(w, zero, false)
		}
	}
	c.waiters = nil
}

// Recv blocks the calling process until a value is available: with
// nothing buffered it queues itself as a waiter and switches to the
// scheduler, and the Send or Close that serves it schedules its resume.
// ok is false if the channel was closed and drained. It must only be
// called by a process, on the process's own stack.
func (c *Chan[T]) Recv() (v T, ok bool) {
	return c.recv(0, false)
}

// RecvTimeout is Recv with a virtual-time timeout; ok is false on timeout
// or close.
func (c *Chan[T]) RecvTimeout(d time.Duration) (v T, ok bool) {
	return c.recv(d, true)
}

// TryRecv returns immediately: ok is false if no value is buffered.
func (c *Chan[T]) TryRecv() (v T, ok bool) {
	c.sim.mu.Lock()
	defer c.sim.mu.Unlock()
	if c.n == 0 {
		return v, false
	}
	return c.popLocked(), true
}

func (c *Chan[T]) recv(d time.Duration, timed bool) (T, bool) {
	s := c.sim
	s.mu.Lock()
	if c.n > 0 {
		v := c.popLocked()
		s.mu.Unlock()
		return v, true
	}
	if c.closed {
		s.mu.Unlock()
		var zero T
		return zero, false
	}
	p := s.cur
	if p == nil {
		s.mu.Unlock()
		panic("vclock: Recv on " + c.name + " called outside a simulation process")
	}
	w := c.getWaiterLocked()
	w.p = p
	c.waiters = append(c.waiters, w)
	if timed {
		w.timer = s.scheduleEphemeral(s.now+d, w.timeout)
	}
	s.blocked++
	// Resumed holding sim.mu, which the switch handed over.
	p.yield(struct{}{})
	v, ok := w.v, w.ok
	c.putWaiterLocked(w)
	s.mu.Unlock()
	return v, ok
}

// getWaiterLocked pops a recycled waiter or builds a fresh one with its
// timeout callback. Caller holds sim.mu.
func (c *Chan[T]) getWaiterLocked() *waiter[T] {
	if n := len(c.free); n > 0 {
		w := c.free[n-1]
		c.free[n-1] = nil
		c.free = c.free[:n-1]
		return w
	}
	w := &waiter[T]{c: c}
	// Runs in the scheduler under sim.mu, only if no wake got there
	// first (wake cancels the timer).
	w.timeout = func() *proc {
		w.done = true
		w.ok = false
		// Eager removal, not a lazy done-skip: the waiter is about to be
		// recycled and must not linger in the waiters list.
		w.c.removeWaiterLocked(w)
		w.c.sim.blocked--
		return w.p
	}
	return w
}

// removeWaiterLocked unlinks w from the wait list (timeout path). The
// list holds at most the channel's concurrent receivers, almost always
// zero or one. Caller holds sim.mu.
func (c *Chan[T]) removeWaiterLocked(w *waiter[T]) {
	for i, x := range c.waiters {
		if x == w {
			c.waiters = append(c.waiters[:i], c.waiters[i+1:]...)
			return
		}
	}
}

// putWaiterLocked recycles w once its receiver has resumed, dropping any
// payload reference so pooled waiters don't retain messages. Caller
// holds sim.mu.
func (c *Chan[T]) putWaiterLocked(w *waiter[T]) {
	var zero T
	w.v = zero
	w.ok, w.done = false, false
	w.timer, w.p = nil, nil
	if !c.closed {
		c.free = append(c.free, w)
	}
}
