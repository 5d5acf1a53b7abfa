// Package prototest provides test doubles for the proto interfaces.
// Like discoverytest, it is a non-test package so every role package
// can share the same stubs instead of growing private copies.
package prototest

import (
	"time"

	"nwsenv/internal/nws/proto"
)

// StubPort is an embeddable no-op proto.Port: every method answers
// emptily (Calls ack, Recvs report closed). Tests embed it and override
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
