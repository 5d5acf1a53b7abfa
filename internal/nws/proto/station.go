package proto

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrClosed marks calls issued through a closed station: the definitive
// "this endpoint is being torn down" signal, as opposed to a transient
// timeout. Matched with errors.Is.
var ErrClosed = errors.New("proto: station closed")

// Transport delivers messages between named hosts.
type Transport interface {
	// Runtime returns the time/concurrency substrate the transport uses.
	Runtime() Runtime
	// Open claims the endpoint for host. Each host endpoint may be opened
	// once at a time.
	Open(host string) (Endpoint, error)
}

// Endpoint is one host's attachment to the transport.
type Endpoint interface {
	Host() string
	// Send delivers m to the endpoint of the named host (asynchronous,
	// at-most-once; delivery fails silently if the peer is down).
	Send(to string, m Message) error
	// Handle registers h, the function every message addressed to this
	// host is handed to. NewStation calls it once, before the endpoint
	// receives anything. h runs on the delivering context — a simulation
	// event, a TCP reader goroutine, the sender of a self-send — so it
	// only enqueues: it never parks, calls or writes a socket.
	Handle(h func(Message))
	// Close detaches the endpoint.
	Close() error
}

// Station layers request/reply correlation on an Endpoint. Application
// messages (requests and one-way messages) arrive through Recv, or
// through the router Route installs; replies to outstanding calls go
// straight to their caller's call box. Every message is routed where it
// lands, in one hand-off. A Station is the communication object every
// NWS server is built on.
type Station struct {
	rt Runtime
	ep Endpoint

	mu      sync.Mutex
	nextID  int64
	pending map[int64]Inbox
	app     Inbox
	// closing is never sent to: Close closes it, which releases Wait.
	closing Inbox
	// route, once Route sets it, receives the application messages
	// instead of app.
	route  func(Message)
	closed bool
	// boxes recycles drained call inboxes. Only the success path
	// recycles: every reply removes its pending entry before it is
	// handed over, so a box that received one reply per request can
	// never receive a late duplicate. A timed-out call's box is closed
	// instead — a straggler reply must land in a closed box and be
	// dropped, not leak into the next call.
	boxes []Inbox
}

// NewStation wraps ep and registers the station as the endpoint's
// message handler.
func NewStation(rt Runtime, ep Endpoint) *Station {
	s := &Station{
		rt:      rt,
		ep:      ep,
		pending: map[int64]Inbox{},
		app:     rt.NewInbox("app:" + ep.Host()),
		closing: rt.NewInbox("closing:" + ep.Host()),
	}
	ep.Handle(s.deliver)
	return s
}

// Host returns the endpoint's host name.
func (s *Station) Host() string { return s.ep.Host() }

// Runtime returns the station's runtime.
func (s *Station) Runtime() Runtime { return s.rt }

// deliver is the endpoint's handler: a reply goes to the call box of the
// call it answers (a late reply, whose call has given up, is dropped),
// anything else to the application router.
func (s *Station) deliver(m Message) {
	s.mu.Lock()
	if m.ReplyTo != 0 {
		box := s.pending[m.ReplyTo]
		delete(s.pending, m.ReplyTo)
		s.mu.Unlock()
		if box != nil {
			box.Send(m)
		}
		return
	}
	route := s.route
	if route == nil {
		// Queued under the lock, so Route cannot miss it.
		s.app.Send(m)
		s.mu.Unlock()
		return
	}
	s.mu.Unlock()
	route(m)
}

// Route hands every later application message to fn, on the delivering
// context, instead of queueing it for Recv; the messages already queued
// go to fn first, in order. fn has the endpoint handler's obligations:
// it only enqueues. A host agent routes its roles' traffic this way.
func (s *Station) Route(fn func(Message)) {
	for {
		// Arrivals keep queueing behind the backlog until it is empty
		// under the lock, so none overtakes it.
		s.mu.Lock()
		m, ok := s.app.TryRecv()
		if !ok {
			s.route = fn
			s.mu.Unlock()
			return
		}
		s.mu.Unlock()
		fn(m)
	}
}

func (s *Station) newID() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	return s.nextID
}

// Send transmits a one-way message (no reply expected).
func (s *Station) Send(to string, m Message) error {
	m.From = s.ep.Host()
	if m.ID == 0 {
		m.ID = s.newID()
	}
	return s.ep.Send(to, m)
}

// Request is one call of a scatter: a message and the host it goes to.
type Request struct {
	To  string
	Msg Message
}

// Call sends a request and blocks the calling process until the matching
// reply arrives or the timeout expires.
func (s *Station) Call(to string, m Message, timeout time.Duration) (reply Message, err error) {
	s.CallMany([]Request{{To: to, Msg: m}}, timeout, func(_ int, r Message, e error) { reply, err = r, e })
	return reply, err
}

// CallMany sends every request, then blocks the calling process until
// each has its reply or the one shared timeout expires. each(i, reply,
// err) runs on the calling process exactly once per request: as its
// reply arrives (in arrival order), when its Send fails, or at the
// deadline. reply and err follow Call: a served error reply comes with
// a non-nil err, a timeout or teardown with a zero reply.
func (s *Station) CallMany(reqs []Request, timeout time.Duration, each func(i int, reply Message, err error)) {
	n := len(reqs)
	host := s.ep.Host()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		for i := range reqs {
			each(i, Message{}, fmt.Errorf("%w: %s", ErrClosed, host))
		}
		return
	}
	// The requests take consecutive IDs and share one call box: a reply's
	// ReplyTo names its request's index.
	base := s.nextID + 1
	s.nextID += int64(n)
	var box Inbox
	if k := len(s.boxes); k > 0 {
		box = s.boxes[k-1]
		s.boxes[k-1] = nil
		s.boxes = s.boxes[:k-1]
	} else {
		box = s.rt.NewInbox("call:" + host)
	}
	for i := range reqs {
		s.pending[base+int64(i)] = box
	}
	s.mu.Unlock()

	var small [8]bool
	done := small[:0]
	if n <= len(small) {
		done = small[:n]
	} else {
		done = make([]bool, n)
	}
	waiting := n
	for i := range reqs {
		m := reqs[i].Msg
		m.From, m.ID = host, base+int64(i)
		if err := s.ep.Send(reqs[i].To, m); err != nil {
			s.mu.Lock()
			delete(s.pending, m.ID)
			s.mu.Unlock()
			done[i] = true
			waiting--
			each(i, Message{}, err)
		}
	}
	deadline := s.rt.Now() + timeout
	for waiting > 0 {
		reply, ok := box.RecvTimeout(deadline - s.rt.Now())
		if !ok {
			break
		}
		i := int(reply.ReplyTo - base)
		done[i] = true
		waiting--
		if reply.Error != "" {
			each(i, reply, &replyError{to: reqs[i].To, msg: reply.Error})
		} else {
			each(i, reply, nil)
		}
	}
	s.mu.Lock()
	closed := s.closed
	if waiting == 0 {
		if !closed {
			s.boxes = append(s.boxes, box)
		}
		s.mu.Unlock()
		return
	}
	for i := range reqs {
		delete(s.pending, base+int64(i))
	}
	s.mu.Unlock()
	box.Close()
	for i, r := range reqs {
		if done[i] {
			continue
		}
		// Distinguish teardown from a genuine timeout: Close releases
		// pending boxes, and callers (retry loops like KeepRegistered)
		// must see ErrClosed, not a fabricated timeout.
		if closed {
			each(i, Message{}, fmt.Errorf("%w: %s", ErrClosed, host))
		} else {
			each(i, Message{}, fmt.Errorf("proto: %s: call %v to %s timed out after %v", host, r.Msg.Type, r.To, timeout))
		}
	}
}

// replyError is a served error reply, formatted only when read: a shed
// storm answers thousands of calls this way.
type replyError struct{ to, msg string }

func (e *replyError) Error() string { return "proto: " + e.to + " replied: " + e.msg }

// Reply answers request req with m.
func (s *Station) Reply(req Message, m Message) error {
	m.From = s.ep.Host()
	m.ReplyTo = req.ID
	return s.ep.Send(req.From, m)
}

// ReplyError answers request req with an error.
func (s *Station) ReplyError(req Message, format string, args ...interface{}) error {
	return s.Reply(req, Message{Type: req.Type, Error: fmt.Sprintf(format, args...)})
}

// Recv returns the next application (non-reply) message.
func (s *Station) Recv() (Message, bool) { return s.app.Recv() }

// RecvTimeout is Recv with a timeout.
func (s *Station) RecvTimeout(d time.Duration) (Message, bool) {
	return s.app.RecvTimeout(d)
}

// Wait blocks the calling process for d, or until the station closes if
// that comes first, and reports whether the station is still open: the
// pause of a periodic loop that must end with its station (a directory
// refresh asleep for minutes), on either runtime, through the same
// inbox release that ends a Recv.
func (s *Station) Wait(d time.Duration) bool {
	s.closing.RecvTimeout(d)
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.closed
}

// Close detaches the endpoint and releases all waiters: callers, the
// processes in Wait, and the receivers of Recv once the queued messages
// are taken.
func (s *Station) Close() error {
	s.mu.Lock()
	s.closed = true
	for id, box := range s.pending {
		box.Close()
		delete(s.pending, id)
	}
	for _, box := range s.boxes {
		box.Close()
	}
	s.boxes = nil
	s.mu.Unlock()
	err := s.ep.Close()
	s.app.Close()
	s.closing.Close()
	return err
}

// Port is the communication surface an NWS role (name server, memory
// server, forecaster, clique member, sensor) is written against. A
// Station is a Port; a host agent multiplexing several roles onto one
// station hands each role a Port routing its share of the traffic.
type Port interface {
	Host() string
	Runtime() Runtime
	Send(to string, m Message) error
	Call(to string, m Message, timeout time.Duration) (Message, error)
	// CallMany scatters requests and gathers their replies under one
	// deadline; see Station.CallMany.
	CallMany(reqs []Request, timeout time.Duration, each func(i int, reply Message, err error))
	Reply(req Message, m Message) error
	ReplyError(req Message, format string, args ...interface{}) error
	Recv() (Message, bool)
	RecvTimeout(d time.Duration) (Message, bool)
	// Wait pauses for d or until the station closes; see Station.Wait.
	Wait(d time.Duration) bool
	Close() error
}

var _ Port = (*Station)(nil)
