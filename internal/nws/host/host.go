// Package host implements the NWS host agent: the per-machine process
// that owns the host's network endpoint and multiplexes the NWS roles
// deployed there — name server, memory server, forecaster, host sensor,
// clique members and pairwise probe agents — over a single station.
//
// It is the runtime half of the paper's §5.2 "NWS manager": given the
// per-host part of a deployment plan, it starts exactly the right
// processes with the right options.
package host

import (
	"bytes"
	"fmt"
	"sync"
	"time"

	"nwsenv/internal/nws/clique"
	"nwsenv/internal/nws/forecast"
	"nwsenv/internal/nws/gateway"
	"nwsenv/internal/nws/memory"
	"nwsenv/internal/nws/nameserver"
	"nwsenv/internal/nws/proto"
	"nwsenv/internal/nws/sensor"
	"nwsenv/internal/telemetry"
)

// PairwiseRole describes participation in a pairwise-scheduled group.
type PairwiseRole struct {
	Cfg       clique.Config
	Scheduler string // host running the scheduler
	// RunScheduler makes this host drive the rounds.
	RunScheduler bool
}

// Roles selects which NWS processes run on a host.
type Roles struct {
	// NameServer runs the directory here.
	NameServer bool
	// Memory runs a memory server here.
	Memory bool
	// MemoryReplicas lists the replica hosts (node IDs) this memory
	// server fans accepted stores out to. Replica hosts run plain memory
	// servers themselves (Memory set, empty MemoryReplicas unless they
	// are primaries too).
	MemoryReplicas []string
	// Forecaster runs a forecaster here.
	Forecaster bool
	// Gateway runs the query gateway here: the deployment's front door
	// for end-user queries (requires NSHost).
	Gateway bool

	// NSHost names the host running the name server (required unless
	// NameServer is set and self-referencing).
	NSHost string
	// MemoryHost names the memory server this host's measurements go to.
	MemoryHost string

	// Cliques this host is a ring member of.
	Cliques []clique.Config
	// Pairwise groups this host participates in.
	Pairwise []PairwiseRole

	// HostSensorPeriod enables periodic CPU/memory sampling when > 0.
	HostSensorPeriod time.Duration

	// Telemetry, when set, instruments the roles that report to the
	// process-wide registry (gateway admission, clique ring traffic).
	// Deliberately excluded from role signatures: wiring a registry
	// must never force an agent rebuild.
	Telemetry *telemetry.Registry
}

// Agent is a running host agent.
type Agent struct {
	st     *proto.Station
	rt     *roleRuntime
	roles  Roles
	prober sensor.Prober

	mu sync.Mutex
	// inboxes maps a routing key to its role's inbox. Start fills it
	// before it installs the router, which reads it without mu.
	inboxes map[string]proto.Inbox
	members []*clique.Member
	closed  bool

	// memSrv is the memory server running here (nil without the role);
	// memImage, when set before Start, seeds it from a persisted image so
	// an in-place rebuild keeps its retained windows.
	memSrv   *memory.Server
	memImage []byte
}

// routing keys
const (
	keyNS       = "ns"
	keyMemory   = "memory"
	keyForecast = "forecast"
	keyGateway  = "gateway"
)

// NewAgent opens the host endpoint on tr and prepares (but does not
// start) the configured roles.
func NewAgent(tr proto.Transport, hostName string, roles Roles, prober sensor.Prober) (*Agent, error) {
	ep, err := tr.Open(hostName)
	if err != nil {
		return nil, err
	}
	rt := tr.Runtime()
	a := &Agent{
		st:      proto.NewStation(rt, ep),
		rt:      newRoleRuntime(rt),
		roles:   roles,
		prober:  prober,
		inboxes: map[string]proto.Inbox{},
	}
	return a, nil
}

// Host returns the agent's host name.
func (a *Agent) Host() string { return a.st.Host() }

// Station exposes the agent's station for clients colocated with it
// (e.g. a test driver querying the forecaster from the same host).
func (a *Agent) Station() *proto.Station { return a.st }

// Members returns the clique members running on this agent.
func (a *Agent) Members() []*clique.Member { return a.members }

// SetMemoryImage seeds the memory role from an image written by
// memory.Server.Persist. It must be called before Start.
func (a *Agent) SetMemoryImage(data []byte) { a.memImage = data }

// PersistMemory snapshots the memory server's retained state (false
// when the memory role is not running here).
func (a *Agent) PersistMemory() ([]byte, bool) {
	if a.memSrv == nil {
		return nil, false
	}
	var buf bytes.Buffer
	if err := a.memSrv.Persist(&buf); err != nil {
		return nil, false
	}
	return buf.Bytes(), true
}

// rolePort adapts a role inbox + the shared station into a proto.Port.
type rolePort struct {
	a     *Agent
	inbox proto.Inbox
}

func (p *rolePort) Host() string           { return p.a.st.Host() }
func (p *rolePort) Runtime() proto.Runtime { return p.a.rt }
func (p *rolePort) Send(to string, m proto.Message) error {
	return p.a.st.Send(to, m)
}
func (p *rolePort) Call(to string, m proto.Message, timeout time.Duration) (proto.Message, error) {
	return p.a.st.Call(to, m, timeout)
}
func (p *rolePort) CallMany(reqs []proto.Request, timeout time.Duration, each func(int, proto.Message, error)) {
	p.a.st.CallMany(reqs, timeout, each)
}
func (p *rolePort) Reply(req proto.Message, m proto.Message) error {
	return p.a.st.Reply(req, m)
}
func (p *rolePort) ReplyError(req proto.Message, format string, args ...interface{}) error {
	return p.a.st.ReplyError(req, format, args...)
}
func (p *rolePort) Recv() (proto.Message, bool) { return p.inbox.Recv() }
func (p *rolePort) RecvTimeout(d time.Duration) (proto.Message, bool) {
	return p.inbox.RecvTimeout(d)
}
func (p *rolePort) Wait(d time.Duration) bool { return p.a.st.Wait(d) }
func (p *rolePort) Close() error              { p.inbox.Close(); return nil }

func (a *Agent) port(key string) *rolePort {
	inbox := a.rt.NewInbox(a.st.Host() + ":" + key)
	a.mu.Lock()
	a.inboxes[key] = inbox
	a.mu.Unlock()
	return &rolePort{a: a, inbox: inbox}
}

// Start launches every configured role, then routes the station's
// application messages to them (those that arrived before Start first).
func (a *Agent) Start() {
	hostName := a.st.Host()
	if a.roles.NameServer {
		srv := nameserver.New(a.port(keyNS))
		a.rt.Go("ns:"+hostName, srv.Run)
	}
	var nsc *nameserver.Client
	if a.roles.NSHost != "" {
		nsc = nameserver.NewClient(a.st, a.roles.NSHost)
	}
	if a.roles.Memory {
		var opts []memory.Option
		if len(a.roles.MemoryReplicas) > 0 {
			opts = append(opts, memory.WithReplicas(a.roles.MemoryReplicas...))
		}
		opts = append(opts, memory.WithTelemetry(a.roles.Telemetry))
		srv := memory.New(a.port(keyMemory), nsc, opts...)
		if a.memImage != nil {
			// Seed from the persisted image before the server runs, so no
			// request can observe the empty pre-restore state.
			srv.Restore(bytes.NewReader(a.memImage))
			a.memImage = nil
		}
		a.memSrv = srv
		a.rt.Go("memory:"+hostName, srv.Run)
	}
	if a.roles.Forecaster {
		srv := forecast.NewServer(a.port(keyForecast), nsc, 0)
		srv.SetTelemetry(a.roles.Telemetry)
		a.rt.Go("forecaster:"+hostName, srv.Run)
	}
	if a.roles.Gateway && a.roles.NSHost != "" {
		srv := gateway.New(a.port(keyGateway), a.roles.NSHost)
		srv.SetTelemetry(a.roles.Telemetry)
		a.rt.Go("gateway:"+hostName, srv.Run)
	}
	store := a.storeFn()
	for _, cfg := range a.roles.Cliques {
		cfg := cfg
		m := clique.NewMember(cfg, a.port("clique:"+cfg.Name), a.prober, store)
		a.members = append(a.members, m)
		a.rt.Go(fmt.Sprintf("clique:%s:%s", cfg.Name, hostName), m.Run)
	}
	for _, pw := range a.roles.Pairwise {
		pw := pw
		if pw.RunScheduler {
			sch := &clique.PairwiseScheduler{
				Cfg: pw.Cfg, Port: a.port("pwsched:" + pw.Cfg.Name),
			}
			a.rt.Go("pwsched:"+pw.Cfg.Name, sch.Run)
		}
		isMember := false
		for _, m := range pw.Cfg.Members {
			if m == hostName {
				isMember = true
			}
		}
		if isMember {
			ag := &clique.ProbeAgent{
				Port:      a.port("pw:" + pw.Cfg.Name),
				Prober:    a.prober,
				Store:     store,
				Scheduler: pw.Scheduler,
				Clique:    pw.Cfg.Name,
			}
			a.rt.Go("pw:"+pw.Cfg.Name+":"+hostName, ag.Run)
		}
	}
	if a.roles.HostSensorPeriod > 0 && a.roles.MemoryHost != "" {
		hs := &sensor.HostSensor{
			St: a.st, NS: nsc, MemHost: a.roles.MemoryHost,
			Period: a.roles.HostSensorPeriod,
		}
		a.rt.Go("hostsensor:"+hostName, hs.Run)
	}
	a.st.Route(a.route)
}

// storeFn binds measurement storage to the configured memory server.
func (a *Agent) storeFn() clique.StoreFn {
	if a.roles.MemoryHost == "" {
		return nil
	}
	mc := memory.NewClient(a.st, a.roles.MemoryHost)
	return func(m sensor.Measurement) {
		mc.Store(m.Series, proto.Sample{At: m.At, Value: m.Value})
	}
}

// route is the station's application router: it hands each message to
// the inbox of the role it addresses, on the delivering context. The
// agent's own answers (pong, no such role) go out from a process of
// their own, so the delivering context never sends.
func (a *Agent) route(msg proto.Message) {
	key := ""
	switch msg.Type {
	case proto.MsgRegister, proto.MsgRegisterBulk, proto.MsgUnregister, proto.MsgLookup:
		key = keyNS
	case proto.MsgStore, proto.MsgBatchFetch,
		proto.MsgReplStore, proto.MsgReplWindow, proto.MsgReplSync, proto.MsgReplRepair:
		key = keyMemory
	case proto.MsgBatchForecast:
		key = keyForecast
	case proto.MsgQueryFetch, proto.MsgQueryForecast:
		key = keyGateway
	case proto.MsgToken, proto.MsgTokenAck, proto.MsgElection, proto.MsgElectionOK, proto.MsgCoordinator:
		key = "clique:" + msg.Clique
	case proto.MsgProbeCmd:
		key = "pw:" + msg.Clique
	case proto.MsgProbeDone:
		key = "pwsched:" + msg.Clique
	case proto.MsgPing:
		a.rt.Go("pong:"+a.st.Host(), func() { a.st.Reply(msg, proto.Message{Type: proto.MsgPong}) })
		return
	default:
		a.rt.Go("noroute:"+a.st.Host(), func() { a.st.ReplyError(msg, "host %s: no role for %v", a.st.Host(), msg.Type) })
		return
	}
	inbox := a.inboxes[key]
	if inbox == nil {
		a.rt.Go("noroute:"+a.st.Host(), func() { a.st.ReplyError(msg, "host %s: role %s not deployed", a.st.Host(), key) })
		return
	}
	inbox.Send(msg)
}

// roleRuntime is the runtime an agent hands its roles: it counts every
// process spawned through it — the roles and whatever they spawn — until
// its body returns, so Join can tell when they have all ended.
type roleRuntime struct {
	proto.Runtime
	mu    sync.Mutex
	live  int
	ended sync.Cond // broadcast when live drops to zero
}

func newRoleRuntime(rt proto.Runtime) *roleRuntime {
	r := &roleRuntime{Runtime: rt}
	r.ended.L = &r.mu
	return r
}

func (r *roleRuntime) Go(name string, fn func()) {
	r.mu.Lock()
	r.live++
	r.mu.Unlock()
	r.Runtime.Go(name, func() {
		defer r.done()
		fn()
	})
}

func (r *roleRuntime) done() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.live--; r.live == 0 {
		r.ended.Broadcast()
	}
}

// running returns the number of processes spawned through r that have
// not returned yet.
func (r *roleRuntime) running() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.live
}

// wait blocks until every process spawned through r has returned.
func (r *roleRuntime) wait() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for r.live > 0 {
		r.ended.Wait()
	}
}

// joinBound is how much virtual time Join drives a simulation for. A
// stopped role ends within a token gap, a probe or a call timeout.
const joinBound = 10 * time.Minute

// Join returns once every process of the agent has ended; call it after
// Stop. On the wall clock it waits for their goroutines. On the
// simulator, where a process runs only while the clock is driven, it
// drives the clock in one-second steps — so it must be called between
// runs, not from a process — and fails if processes are left after
// joinBound of virtual time.
func (a *Agent) Join() error {
	sr, ok := a.rt.Runtime.(*proto.SimRuntime)
	if !ok {
		a.rt.wait()
		return nil
	}
	ended, err := sr.Sim.Drive(time.Second, joinBound, func() bool { return a.rt.running() == 0 })
	if err == nil && !ended {
		err = fmt.Errorf("host %s: %d process(es) still running %v after Stop", a.Host(), a.rt.running(), joinBound)
	}
	return err
}

// Stop terminates all roles and detaches from the network; Join waits
// for their processes to end.
func (a *Agent) Stop() {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return
	}
	a.closed = true
	inboxes := a.inboxes
	a.mu.Unlock()
	for _, m := range a.members {
		m.Stop()
	}
	for _, in := range inboxes {
		in.Close()
	}
	a.st.Close()
}
