// Package prototest provides test doubles for the proto interfaces and
// the teardown check of tests that build on a proto.Runtime. Like
// discoverytest, it is a non-test package so every role package can
// share the same stubs instead of growing private copies.
package prototest

import (
	"runtime"
	"testing"
	"time"

	"nwsenv/internal/nws/proto"
)

// StubPort is an embeddable no-op proto.Port: every method answers
// emptily (Calls ack, Recvs report closed, Wait sleeps on RT and reports
// the port open, since a stub never closes). Tests embed it and override
// just the methods they script — typically Call — so a change to the
// Port interface lands in one place. An embedder scripting Call whose
// code under test scatters must also define CallMany, as CallEach over
// its own Call: the promoted one loops over StubPort's.
type StubPort struct {
	// HostName is returned by Host (default "stub").
	HostName string
	// RT is returned by Runtime; may be nil for tests that never sleep.
	RT proto.Runtime
}

func (p *StubPort) Host() string {
	if p.HostName == "" {
		return "stub"
	}
	return p.HostName
}
func (p *StubPort) Runtime() proto.Runtime { return p.RT }
func (p *StubPort) Call(to string, m proto.Message, d time.Duration) (proto.Message, error) {
	return proto.Message{Type: proto.MsgRegisterAck}, nil
}
func (p *StubPort) CallMany(reqs []proto.Request, d time.Duration, each func(int, proto.Message, error)) {
	CallEach(p.Call, reqs, d, each)
}
func (p *StubPort) Send(to string, m proto.Message) error          { return nil }
func (p *StubPort) Reply(req proto.Message, m proto.Message) error { return nil }
func (p *StubPort) ReplyError(req proto.Message, format string, args ...interface{}) error {
	return nil
}
func (p *StubPort) Recv() (proto.Message, bool) { return proto.Message{}, false }
func (p *StubPort) RecvTimeout(d time.Duration) (proto.Message, bool) {
	return proto.Message{}, false
}
func (p *StubPort) Wait(d time.Duration) bool {
	p.RT.Sleep(d)
	return true
}
func (p *StubPort) Close() error { return nil }

var _ proto.Port = (*StubPort)(nil)

// CallEach implements Port.CallMany as a loop over call, one request at
// a time: the scatter of a test double whose Call is scripted.
func CallEach(call func(string, proto.Message, time.Duration) (proto.Message, error), reqs []proto.Request, d time.Duration, each func(int, proto.Message, error)) {
	for i, r := range reqs {
		reply, err := call(r.To, r.Msg, d)
		each(i, reply, err)
	}
}

// How long Teardown waits for what a test built to end: virtual time on
// a simulation, wall time on the real runtime.
const (
	teardownVirtual = time.Hour
	teardownWall    = 10 * time.Second
)

// Teardown makes tb check, once the test is over, that what it built on
// rt leaves nothing running. Call it before building anything, and hand
// the function it returns whatever stops what was built (a deployment's
// Stop); every stop runs at cleanup, in reverse order, and fails the
// test on error. Then, on a simulated runtime, the clock is driven until
// no process is left (within a virtual hour); on the real runtime the
// goroutine count must fall back to what it was at the call (within ten
// seconds).
func Teardown(tb testing.TB, rt proto.Runtime) (stop func(func() error)) {
	tb.Helper()
	baseline := runtime.NumGoroutine()
	tb.Cleanup(func() {
		if sr, ok := rt.(*proto.SimRuntime); ok {
			sim := sr.Sim
			drained, err := sim.Drive(time.Second, teardownVirtual, func() bool { return sim.Processes() == 0 })
			if err != nil {
				tb.Fatal(err)
			}
			if !drained {
				tb.Errorf("teardown: %d simulation process(es) still running %v after the stops", sim.Processes(), teardownVirtual)
			}
			return
		}
		n := runtime.NumGoroutine()
		for end := time.Now().Add(teardownWall); n > baseline && time.Now().Before(end); n = runtime.NumGoroutine() {
			time.Sleep(10 * time.Millisecond)
		}
		if n > baseline {
			tb.Errorf("teardown: %d goroutines, %d before the test built anything", n, baseline)
		}
	})
	return func(fn func() error) {
		tb.Cleanup(func() {
			if err := fn(); err != nil {
				tb.Errorf("teardown: %v", err)
			}
		})
	}
}
