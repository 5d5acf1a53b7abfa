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
// What may be called from where: Sleep, Chan.Recv and
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
// The kernel lock (Sim.mu) passes across a switch instead of being
// dropped and retaken: a process blocks by queuing its wake and
// yielding with the lock held, the scheduler resumes it still holding
// the lock, and the resumed process does its post-wake bookkeeping in
// that same critical section before it releases the lock and returns
// to its caller. A coroutine is therefore always entered and left with
// the lock held, and process code runs with it released. Now reads an
// atomic copy of the clock, so it takes no lock at all.
//
// The event queue holds only what can still fire, give or take a
// bounded margin: a canceled event (Event.Cancel, or a receive timer
// whose receive was answered) is counted, and once the canceled events
// outnumber the live ones and a small floor, they are swept out of the
// heap at once and pooled events go back to the pool. A resume due at
// the current instant (a spawn, a zero sleep, a channel wake) skips the
// heap for a FIFO of its own. Events fire in the total order of (time,
// sequence number) across both, so neither a sweep nor the FIFO changes
// which event fires next.
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
	"sync/atomic"
	"time"
)

// Sim is a discrete-event simulation. The zero value is not usable; create
// one with New.
type Sim struct {
	mu sync.Mutex

	now time.Duration
	// clock mirrors now for Now, which reads it without the lock.
	clock  atomic.Int64
	seq    int64
	events []queued // binary min-heap on (at, seq)
	// dead counts the canceled events still in events; see sweepLocked.
	dead int
	// ready[head:] are the processes to resume at the current instant,
	// in seq order: a wake due now needs no heap. See readyLocked.
	ready []readied
	head  int

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
	// later (a sleep's wake); a resume due now goes to Sim.ready.
	resume func() *proc
}

func (s *Sim) newProc() *proc {
	p := &proc{s: s}
	p.resume = func() *proc { return p }
	return p
}

// loop is the coroutine: run a body, hand control back, repeat with
// whatever body Go installed meanwhile. A false yield means stop. The
// scheduler enters the coroutine holding s.mu and gets it back at the
// next yield: a body runs with the lock released.
func (p *proc) loop(yield func(struct{}) bool) {
	p.yield = yield
	for {
		p.s.mu.Unlock()
		p.runBody()
		p.s.mu.Lock()
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
	return time.Duration(s.clock.Load())
}

// setNowLocked advances the clock. Callers hold s.mu.
func (s *Sim) setNowLocked(t time.Duration) {
	s.now = t
	s.clock.Store(int64(t))
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
	e.sim.cancelLocked(e)
	return true
}

// cancelLocked marks a queued event canceled and sweeps the canceled
// events out of the heap once they outnumber the live ones and
// sweepFloor. Callers hold s.mu and guarantee e is queued, neither
// fired nor canceled.
func (s *Sim) cancelLocked(e *Event) {
	e.canceled = true
	s.dead++
	if s.dead > sweepFloor && s.dead > len(s.events)-s.dead {
		s.sweepLocked()
	}
}

// sweepFloor is the number of canceled events the heap may hold however
// few live ones it has: below it a sweep would cost more than the slots
// it frees.
const sweepFloor = 64

// sweepLocked removes every canceled event from the heap, returns the
// pooled ones to the pool and restores the heap property. Pop order is
// the total order on (at, seq), so the heap's shape does not change
// which event fires next. Callers hold s.mu.
func (s *Sim) sweepLocked() {
	h := s.events
	k := 0
	for _, q := range h {
		if q.ev.canceled {
			s.recycleLocked(q.ev)
			continue
		}
		h[k] = q
		k++
	}
	clear(h[k:])
	h = h[:k]
	for i := k/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	s.events = h
	s.dead = 0
}

// When returns the virtual time at which the event is scheduled.
func (e *Event) When() time.Duration { return e.at }

// readied is a process resume due at the current instant, with the
// sequence number its heap slot would have had.
type readied struct {
	seq int64
	p   *proc
}

// readyLocked queues a resume of p at the current instant. It takes the
// next sequence number exactly as push does, and the run loop fires it
// in the same total order on (at, seq) as if it had been pushed: every
// readied entry is due now, and the clock cannot pass now while one is
// left. Only uncancelable wakes come here (a spawn, a zero sleep, a
// channel wake). Callers must hold s.mu.
func (s *Sim) readyLocked(p *proc) {
	s.seq++
	s.ready = append(s.ready, readied{seq: s.seq, p: p})
}

// readyFirst reports whether the oldest readied resume fires before the
// heap's top. Callers hold s.mu, with a readied entry left and no
// canceled event on top of the heap.
func (s *Sim) readyFirst() bool {
	if len(s.events) == 0 {
		return true
	}
	top := s.events[0]
	return top.at > s.now || top.seq > s.ready[s.head].seq
}

// queued is one heap slot. The ordering key (at, seq) is stored inline
// so sifting compares without dereferencing events; seq is distinct
// per slot, so the order is total.
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
	h[0] = h[n]
	h[n] = queued{}
	h = h[:n]
	s.events = h
	if n > 0 {
		siftDown(h, 0)
	}
	return top
}

// siftDown moves h[i] down to its place in the min-heap h.
func siftDown(h []queued, i int) {
	n := len(h)
	q := h[i]
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
// lifecycle (sleep fires, receive timers) may use it: the event returns
// to the pool as soon as it fires or is popped or swept canceled, so an
// external holder would observe reuse. Callers must hold s.mu.
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
// (fired, or canceled and popped or swept).
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
	s.readyLocked(p)
}

// Sleep blocks the calling process for d of virtual time: it schedules
// its own wake and switches to the scheduler, handing it the lock. It
// must only be called by a process, on the process's own stack.
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
	if d == 0 {
		s.readyLocked(p)
	} else {
		s.scheduleEphemeral(s.now+d, p.resume)
	}
	p.yield(struct{}{})
	s.mu.Unlock()
}

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

// Drive runs the simulation a step at a time, the way a caller outside
// it waits for its processes: up to each multiple of step from now in
// turn, until done reports true or the next step would end more than
// limit past now. It reports whether done held. Between steps the
// caller's done may read what the processes wrote: nothing runs then.
func (s *Sim) Drive(step, limit time.Duration, done func() bool) (bool, error) {
	end := s.Now() + limit
	for at := s.Now() + step; !done(); at += step {
		if at > end {
			return false, nil
		}
		if err := s.RunUntil(at); err != nil {
			return false, err
		}
	}
	return true, nil
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
			s.dead--
			s.recycleLocked(s.pop())
		}
		if s.head < len(s.ready) && s.readyFirst() {
			if hasDeadline && s.now > deadline {
				break
			}
			p := s.ready[s.head].p
			s.ready[s.head] = readied{}
			if s.head++; s.head == len(s.ready) {
				s.ready, s.head = s.ready[:0], 0
			}
			s.switchTo(p)
			continue
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
				s.setNowLocked(deadline)
			}
			break
		}
		if at > s.now {
			s.setNowLocked(at)
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
// finished p. Called, and returns, with s.mu held: the lock passes to p
// with the switch and comes back with the next one.
func (s *Sim) switchTo(p *proc) {
	if p.next == nil {
		p.next, p.stop = iter.Pull(p.loop)
	}
	s.cur = p
	p.next()
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

// Processes returns the number of live processes.
func (s *Sim) Processes() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.procs
}
