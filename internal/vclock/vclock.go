// Package vclock implements a deterministic discrete-event simulation
// kernel with virtual time.
//
// Simulated activities ("processes") are spawned with Sim.Go and run as
// coroutines of the goroutine that called Run: the scheduler resumes
// one, it executes until it blocks in a kernel primitive (Sleep,
// Chan.Recv, ...) or returns, and control comes straight back to the
// scheduler, which pops the next event. Run-to-block is therefore
// structural: exactly one of {scheduler, one process} executes at any
// instant, a process switch is a direct coroutine switch that never
// enters the Go scheduler, and the virtual clock advances only between
// events. All wakeups are delivered through a single time-ordered event
// queue with a monotonic sequence number as tie-breaker, so a
// simulation that performs the same calls in the same order is fully
// deterministic.
//
// What may be called from where: Sleep, Yield, Chan.Recv and
// Chan.RecvTimeout block and may only be called by a process, on the
// process's own stack (not from a goroutine the process started, and
// not from an At/After callback). Everything else — Go, At, After, Post,
// Stop, Now, Chan.Send/TrySend/TryRecv/Close, Event.Cancel — is safe
// from processes, from event callbacks, and from goroutines outside
// the simulation, before, during or between runs. A process must not
// block on anything but the kernel (a native channel, a WaitGroup)
// waiting for another process: nothing else runs until it blocks in
// the kernel.
//
// A panic in a process or callback surfaces from Run/RunUntil on the
// caller's goroutine, wrapped with the process name and virtual time;
// runtime.Goexit in a process (t.FailNow, t.Fatal) ends the goroutine
// that called Run. Either way the Sim is left runnable.
//
// The kernel is the substrate for the simnet network simulator and, above
// it, the NWS/ENV reproduction: probe durations, token-ring periods and
// mapping campaign lengths are all measured in virtual time.
package vclock

import (
	"fmt"
	"iter"
	"runtime/debug"
	"sync"
	"time"
)

// Sim is a discrete-event simulation. The zero value is not usable; create
// one with New.
type Sim struct {
	mu sync.Mutex

	now    time.Duration
	seq    int64
	events []queued // binary min-heap on (at, seq)

	// cur is the process executing now; nil while the scheduler or an
	// event callback runs, and between runs.
	cur *proc
	// procs counts live (spawned, not yet finished) processes.
	procs int
	// blocked counts processes waiting on a Chan with no pending wakeup;
	// used for deadlock detection when the event queue drains.
	blocked int

	running bool
	stopped bool

	// idle holds finished coroutines awaiting the next Go body, at most
	// idleProcs of them.
	idle []*proc
	// evFree recycles ephemeral events (see scheduleEphemeral); bounded
	// by the peak number of such events in flight.
	evFree []*Event

	err error
}

// idleProcs bounds the finished coroutines a Sim keeps for reuse: enough
// that a fan-out of short-lived processes (a query batch, a probe round)
// respawns without building coroutines, small enough that an abandoned
// Sim strands little. A constant, not a setting.
const idleProcs = 64

// proc is one coroutine. It runs one Go body at a time: when the body
// returns it yields with fn == nil, and the scheduler either parks it in
// Sim.idle for the next Go or stops it.
type proc struct {
	s    *Sim
	name string
	fn   func()
	// next resumes the coroutine until it blocks or its body returns;
	// stop ends a parked one. Built on the first resume, so a process
	// that never starts costs no goroutine.
	next func() (struct{}, bool)
	stop func()
	// yield switches back to the scheduler; only the coroutine itself
	// may call it.
	yield func(struct{}) bool
	// resume is the prebuilt event payload for "continue this process"
	// (start, sleep fire, chan deliver).
	resume func() *proc
}

func (s *Sim) newProc() *proc {
	p := &proc{s: s}
	p.resume = func() *proc { return p }
	return p
}

// loop is the coroutine: run a body, hand control back, repeat with
// whatever body Go installed meanwhile. A false yield means stop.
func (p *proc) loop(yield func(struct{}) bool) {
	p.yield = yield
	for {
		p.runBody()
		p.fn = nil
		if !yield(struct{}{}) {
			return
		}
	}
}

// runBody runs the current body, labelling a panic with the process and
// the virtual time: iter.Pull re-raises it from next on the goroutine
// that called Run, where this coroutine's stack is gone.
func (p *proc) runBody() {
	defer func() {
		if r := recover(); r != nil {
			panic(fmt.Errorf("vclock: process %q panicked at %v: %v\n%s", p.name, p.s.Now(), r, debug.Stack()))
		}
	}()
	p.fn()
}

// New returns a fresh simulation with the clock at zero.
func New() *Sim {
	return &Sim{}
}

// Now returns the current virtual time.
func (s *Sim) Now() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.now
}

// Event is a cancelable scheduled callback.
type Event struct {
	at time.Duration
	// Exactly one of fn and resume is set. fn is a caller's callback,
	// run by the scheduler with s.mu released. resume is a kernel wake,
	// evaluated under s.mu: it returns the process to switch to, or nil
	// if there is none.
	fn       func()
	resume   func() *proc
	canceled bool
	fired    bool
	// pooled marks an ephemeral event: recycled by the run loop the
	// moment it fires or is popped canceled. Only events whose pointer
	// never leaves the kernel (its own wakes, Post callbacks) may be
	// pooled.
	pooled bool
	sim    *Sim
}

// Cancel prevents the event from firing. Canceling an already-fired or
// already-canceled event is a no-op. It reports whether the cancellation
// took effect.
func (e *Event) Cancel() bool {
	if e == nil {
		return false
	}
	e.sim.mu.Lock()
	defer e.sim.mu.Unlock()
	if e.fired || e.canceled {
		return false
	}
	e.canceled = true
	return true
}

// When returns the virtual time at which the event is scheduled.
func (e *Event) When() time.Duration { return e.at }

// queued is one heap slot. The ordering key is stored inline so sifting
// compares without dereferencing events.
type queued struct {
	at  time.Duration
	seq int64
	ev  *Event
}

func (a queued) before(b queued) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push enqueues ev at ev.at with the next sequence number. Callers must
// hold s.mu.
func (s *Sim) push(ev *Event) {
	s.seq++
	q := queued{at: ev.at, seq: s.seq, ev: ev}
	h := append(s.events, q)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.before(h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = q
	s.events = h
}

// pop removes and returns the earliest event. Callers must hold s.mu and
// guarantee the queue is not empty.
func (s *Sim) pop() *Event {
	h := s.events
	top := h[0].ev
	n := len(h) - 1
	q := h[n]
	h[n] = queued{}
	h = h[:n]
	s.events = h
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1].before(h[c]) {
			c++
		}
		if !h[c].before(q) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = q
	return top
}

// schedule enqueues fn at absolute time at (clamped to now). Callers must
// hold s.mu.
func (s *Sim) schedule(at time.Duration, fn func()) *Event {
	if at < s.now {
		at = s.now
	}
	ev := &Event{at: at, fn: fn, sim: s}
	s.push(ev)
	return ev
}

// scheduleEphemeral enqueues a kernel wake on a recycled Event. Only
// kernel call sites whose *Event stays inside the kernel's documented
// lifecycle (wake deliveries, sleep fires, process starts, receive
// timers) may use it: the event returns to the pool as soon as it fires
// or is popped canceled, so an external holder would observe reuse.
// Callers must hold s.mu.
func (s *Sim) scheduleEphemeral(at time.Duration, resume func() *proc) *Event {
	ev := s.ephemeralLocked(at)
	ev.resume = resume
	s.push(ev)
	return ev
}

// ephemeralLocked takes a pooled event (or builds one) due at at,
// clamped to now, with neither payload set: for scheduleEphemeral and
// Post, whose events never leave the kernel. Callers hold s.mu.
func (s *Sim) ephemeralLocked(at time.Duration) *Event {
	if at < s.now {
		at = s.now
	}
	var ev *Event
	if n := len(s.evFree); n > 0 {
		ev = s.evFree[n-1]
		s.evFree[n-1] = nil
		s.evFree = s.evFree[:n-1]
		ev.canceled, ev.fired = false, false
	} else {
		ev = &Event{pooled: true, sim: s}
	}
	ev.at = at
	return ev
}

// recycleLocked returns a pooled event to the freelist, holding neither
// payload. Callers hold s.mu and guarantee e is off the heap for good
// (fired or popped canceled).
func (s *Sim) recycleLocked(e *Event) {
	if e.pooled {
		e.fn, e.resume = nil, nil
		s.evFree = append(s.evFree, e)
	}
}

// At schedules fn to run at absolute virtual time at (clamped to the
// current time). fn runs in the scheduler context: it must not block in
// kernel primitives, but it may call Go, Chan.Send and schedule further
// events.
func (s *Sim) At(at time.Duration, fn func()) *Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.schedule(at, fn)
}

// After schedules fn to run d from now. See At for the execution context.
func (s *Sim) After(d time.Duration, fn func()) *Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.schedule(s.now+d, fn)
}

// Post schedules fn to run d from now, like After, but returns no
// handle: the event cannot be canceled, and the kernel recycles it the
// moment it fires. It is for one-shot callbacks nothing ever cancels —
// a message delivery — that would otherwise cost one Event apiece.
func (s *Sim) Post(d time.Duration, fn func()) {
	s.mu.Lock()
	ev := s.ephemeralLocked(s.now + d)
	ev.fn = fn
	s.push(ev)
	s.mu.Unlock()
}

// Go spawns fn as a simulation process: a coroutine of whichever
// goroutine calls Run, resumed by the scheduler and switched away from
// whenever fn blocks in a kernel primitive. The process does not start
// executing until the scheduler reaches its start event, so Go may be
// called before Run as well as from processes, event callbacks and
// goroutines outside the simulation. name labels a panic in fn.
func (s *Sim) Go(name string, fn func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.procs++
	var p *proc
	if n := len(s.idle); n > 0 {
		p = s.idle[n-1]
		s.idle[n-1] = nil
		s.idle = s.idle[:n-1]
	} else {
		p = s.newProc()
	}
	p.name, p.fn = name, fn
	s.scheduleEphemeral(s.now, p.resume)
}

// Sleep blocks the calling process for d of virtual time: it schedules
// its own wake and switches to the scheduler. It must only be called by
// a process, on the process's own stack.
func (s *Sim) Sleep(d time.Duration) {
	if d < 0 {
		d = 0
	}
	s.mu.Lock()
	p := s.cur
	if p == nil {
		s.mu.Unlock()
		panic("vclock: Sleep called outside a simulation process")
	}
	s.scheduleEphemeral(s.now+d, p.resume)
	s.mu.Unlock()
	p.yield(struct{}{})
}

// Yield lets every other runnable work scheduled at the current instant
// run before the calling process continues.
func (s *Sim) Yield() { s.Sleep(0) }

// Run executes the simulation until the event queue is empty and all
// processes have finished or are permanently blocked. It returns a
// deadlock error if processes remain blocked on channels when no events
// are left, and nil otherwise. Processes and event callbacks execute on
// the calling goroutine's thread of control: a panic in one surfaces
// here, and runtime.Goexit in a process ends the caller.
func (s *Sim) Run() error {
	return s.run(0, false)
}

// RunUntil executes the simulation up to virtual time t. Events scheduled
// after t remain queued; the clock is left at t (or at the time the
// simulation drained, whichever is earlier).
func (s *Sim) RunUntil(t time.Duration) error {
	return s.run(t, true)
}

// Stop makes Run return before it takes another event: at once when
// called from an event callback, and once the executing process has
// blocked or finished when called from a process. It may also be called
// from outside the simulation.
func (s *Sim) Stop() {
	s.mu.Lock()
	s.stopped = true
	s.mu.Unlock()
}

func (s *Sim) run(deadline time.Duration, hasDeadline bool) error {
	s.mu.Lock()
	if s.running {
		s.mu.Unlock()
		panic("vclock: Run called reentrantly")
	}
	s.running = true
	s.stopped = false
	s.err = nil
	// Runs with s.mu released: after the return below, or when a panic
	// or Goexit unwinds out of a process or callback.
	defer func() {
		s.mu.Lock()
		if s.cur != nil { // the executing process died
			s.cur = nil
			s.procs--
		}
		s.running = false
		s.mu.Unlock()
	}()

	for !s.stopped {
		for len(s.events) > 0 && s.events[0].ev.canceled {
			s.recycleLocked(s.pop())
		}
		if len(s.events) == 0 {
			// Processes blocked forever are a deadlock for Run; for
			// RunUntil they are normal (idle servers awaiting messages).
			if s.blocked > 0 && !hasDeadline {
				s.err = fmt.Errorf("vclock: deadlock at %v: %d process(es) blocked on channels with no pending events", s.now, s.blocked)
			}
			break
		}
		at := s.events[0].at
		if hasDeadline && at > deadline {
			// Not due yet: stop at the deadline.
			if s.now < deadline {
				s.now = deadline
			}
			break
		}
		if at > s.now {
			s.now = at
		}
		ev := s.pop()
		ev.fired = true
		if fn := ev.fn; fn != nil {
			s.recycleLocked(ev)
			s.mu.Unlock()
			fn()
			s.mu.Lock()
			continue
		}
		p := ev.resume()
		s.recycleLocked(ev)
		if p != nil {
			s.switchTo(p)
		}
	}
	if s.procs == 0 {
		// Nothing is left to respawn into the idle coroutines; end them
		// so a finished Sim strands no goroutine.
		for i, p := range s.idle {
			p.stop()
			s.idle[i] = nil
		}
		s.idle = s.idle[:0]
	}
	err := s.err
	s.mu.Unlock()
	return err
}

// switchTo runs p until it blocks or its body returns, then retires a
// finished p. Called, and returns, with s.mu held.
func (s *Sim) switchTo(p *proc) {
	if p.next == nil {
		p.next, p.stop = iter.Pull(p.loop)
	}
	s.cur = p
	s.mu.Unlock()
	p.next()
	s.mu.Lock()
	s.cur = nil
	if p.fn != nil {
		return // blocked; a queued event or a Chan waiter holds it
	}
	s.procs--
	if len(s.idle) < idleProcs {
		s.idle = append(s.idle, p)
	} else {
		p.stop()
	}
}

// PendingEvents returns the number of queued (non-canceled) events,
// useful in tests.
func (s *Sim) PendingEvents() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, q := range s.events {
		if !q.ev.canceled {
			n++
		}
	}
	return n
}

// Processes returns the number of live processes.
func (s *Sim) Processes() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.procs
}
