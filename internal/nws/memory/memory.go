// Package memory implements the NWS memory server: bounded persistent
// storage of measurement time series, fetched by forecasters and clients
// (§2.1: "Memory servers store the results on disk for further use").
package memory

import (
	"encoding/gob"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"nwsenv/internal/nws/nameserver"
	"nwsenv/internal/nws/proto"
	"nwsenv/internal/nws/replica"
	"nwsenv/internal/telemetry"
)

// DefaultRetention is the per-series sample cap.
const DefaultRetention = 1024

// Server is a running memory server.
type Server struct {
	st        proto.Port
	ns        *nameserver.Client
	retention int

	// Replication plane. replicas is this primary's configured replica
	// set (node IDs); fan is the async write fan-out feeding it; tracker
	// carries both the primary-side cumulative totals and the
	// replica-side applied/seen watermarks; met is nil-safe telemetry.
	replicas []string
	fan      *replica.Fanout
	tracker  *replica.Tracker
	met      replica.Metrics
	tele     *telemetry.Registry

	mu     sync.Mutex
	series map[string][]proto.Sample
	// registered tracks which series have been advertised to the name
	// server already.
	registered map[string]bool
	// origin maps a replica-held series to the primary host that fans it
	// out here. Owned series never appear; a series adopted by repair or
	// promoted by a direct store leaves the map.
	origin map[string]string
}

// Option configures the server.
type Option func(*Server)

// WithReplicas configures the replica hosts (node IDs) this primary
// fans accepted stores out to. Replicas learn the set from directory
// registrations, so query clients can fail over without a lookup.
func WithReplicas(hosts ...string) Option {
	return func(s *Server) {
		for _, h := range hosts {
			if h != "" {
				s.replicas = append(s.replicas, h)
			}
		}
		sort.Strings(s.replicas)
	}
}

// WithTelemetry counts replication-plane activity in reg.
func WithTelemetry(reg *telemetry.Registry) Option {
	return func(s *Server) { s.tele = reg }
}

// New creates a memory server on st that registers itself (and each new
// series) with the name server reachable through ns. ns may be nil for
// standalone use.
func New(st proto.Port, ns *nameserver.Client, opts ...Option) *Server {
	s := &Server{
		st:         st,
		ns:         ns,
		retention:  DefaultRetention,
		tracker:    replica.NewTracker(),
		series:     map[string][]proto.Sample{},
		registered: map[string]bool{},
		origin:     map[string]string{},
	}
	for _, o := range opts {
		o(s)
	}
	s.met = replica.NewMetrics(s.tele)
	return s
}

// Name returns the directory name of this memory server.
func (s *Server) Name() string { return "memory." + s.st.Host() }

// Run serves requests until the station closes. It first advertises the
// server in the directory and keeps the registrations fresh: long-lived
// monitoring systems outlive the directory TTL. The refresh rides the
// shared registration lifecycle (nameserver.Client.KeepRegistered) with
// a per-tick callback re-advertising the owned series, so the
// retry/exit policy lives in exactly one place.
func (s *Server) Run() {
	if len(s.replicas) > 0 && s.fan == nil {
		s.fan = replica.NewFanout(s.st, s.replicas, s.tracker, s.met)
	}
	if s.ns != nil {
		reg := proto.Registration{Name: s.Name(), Kind: "memory", Host: s.st.Host(), Replicas: s.replicas}
		s.ns.Register(reg)
		s.st.Runtime().Go("memory-refresh:"+s.st.Host(), func() { s.ns.KeepRegistered(reg, s.refreshSeries) })
	}
	for {
		req, ok := s.st.Recv()
		if !ok {
			if s.fan != nil {
				s.fan.Stop()
			}
			return
		}
		switch req.Type {
		case proto.MsgStore:
			s.handleStore(req)
		case proto.MsgBatchFetch:
			s.handleBatchFetch(req)
		case proto.MsgReplStore:
			s.handleReplStore(req)
		case proto.MsgReplWindow:
			s.handleReplWindow(req)
		case proto.MsgReplSync:
			s.handleReplSync(req)
		case proto.MsgReplRepair:
			s.handleReplRepair(req)
		case proto.MsgPing:
			s.st.Reply(req, proto.Message{Type: proto.MsgPong})
		default:
			s.st.ReplyError(req, "memory: unexpected %v", req.Type)
		}
	}
}

// refreshSeries re-advertises every series this server owns: the
// per-tick callback KeepRegistered runs after each successful server
// refresh. The whole sweep is one bulk re-register round-trip — at
// thousands of hosts with dozens of series each, per-series calls are
// the directory plane's wall — so a transient failure costs one tick
// for every series at once and is retried on the next. The error is
// reported so the lifecycle loop knows the tick was incomplete; only
// station teardown (proto.ErrClosed) ends the loop.
func (s *Server) refreshSeries() error {
	regs := s.ownedRegistrations()
	if len(regs) == 0 {
		return nil
	}
	_, err := s.ns.RegisterBulk(regs)
	return err
}

// ownedRegistrations builds the directory entries for every series this
// server owns, in sorted order, each carrying the replica set.
func (s *Server) ownedRegistrations() []proto.Registration {
	s.mu.Lock()
	names := make([]string, 0, len(s.registered))
	for name := range s.registered {
		names = append(names, name)
	}
	s.mu.Unlock()
	sort.Strings(names)
	regs := make([]proto.Registration, len(names))
	for i, name := range names {
		regs[i] = proto.Registration{
			Name: name, Kind: "series", Host: s.st.Host(), Owner: s.Name(),
			Replicas: s.replicas,
		}
	}
	return regs
}

func (s *Server) handleStore(req proto.Message) {
	if req.Series == "" {
		s.st.ReplyError(req, "memory: empty series")
		return
	}
	s.mu.Lock()
	// A direct store onto a replica-held series promotes it to owned:
	// the sensor feed has rehomed here, so this server is its primary
	// now and the stale replica bookkeeping must not shadow that.
	delete(s.origin, req.Series)
	s.series[req.Series] = appendWindow(s.series[req.Series], req.Samples, s.retention)
	s.mu.Unlock()
	total := s.tracker.Bump(req.Series, len(req.Samples))
	if s.fan != nil && len(req.Samples) > 0 {
		// The fan-out retains the samples past this request, and decoded
		// slices share the frame's backing array: copy.
		s.fan.Store(req.Series, append([]proto.Sample(nil), req.Samples...), total)
	}
	if s.ns != nil && !s.isRegistered(req.Series) {
		// Advertise series ownership so forecasters can find the right
		// memory server (§2.1 step 2). The entry carries the replica set
		// so query clients learn their failover targets from the cache.
		if err := s.ns.Register(proto.Registration{
			Name: req.Series, Kind: "series", Host: s.st.Host(), Owner: s.Name(),
			Replicas: s.replicas,
		}); err == nil {
			s.mu.Lock()
			s.registered[req.Series] = true
			s.mu.Unlock()
		}
	}
	s.st.Reply(req, proto.Message{Type: proto.MsgStoreAck})
}

func (s *Server) isRegistered(series string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.registered[series]
}

// handleBatchFetch answers a batch fetch: every requested series in
// one round-trip. Unknown series come back empty; results keep the
// request order.
func (s *Server) handleBatchFetch(req proto.Message) {
	if req.Version > proto.V3 {
		s.st.ReplyError(req, "memory: unsupported protocol version %d (max %d)", req.Version, proto.V3)
		return
	}
	results := make([]proto.SeriesResult, len(req.Queries))
	s.mu.Lock()
	// One backing array for every result's samples instead of one copy
	// per series; capacity-pinned subslices keep neighbors safe from a
	// receiver's append.
	total := 0
	for _, q := range req.Queries {
		total += clampCount(len(s.series[q.Series]), q.Count)
	}
	backing := make([]proto.Sample, 0, total)
	for i, q := range req.Queries {
		buf := s.series[q.Series]
		n := clampCount(len(buf), q.Count)
		start := len(backing)
		backing = append(backing, buf[len(buf)-n:]...)
		results[i] = proto.SeriesResult{Series: q.Series, Samples: backing[start:len(backing):len(backing)]}
		if _, held := s.origin[q.Series]; held {
			// Served from a replica copy: mark it so clients can surface
			// degraded (stale-but-available) answers, with the lag
			// watermark alongside.
			results[i].Replica = true
			results[i].Lag = s.tracker.Lag(q.Series)
		}
	}
	s.mu.Unlock()
	s.st.Reply(req, proto.Message{Type: proto.MsgBatchFetchReply, Version: proto.V3, Results: results})
}

// handleReplStore applies one fan-out append from a primary. An owned
// series ignores it (the sender is stale — ownership moved here), and
// the reply always acks: replication is at-most-once by design.
func (s *Server) handleReplStore(req proto.Message) {
	s.mu.Lock()
	if s.registered[req.Series] {
		s.mu.Unlock()
		s.st.Reply(req, proto.Message{Type: proto.MsgReplAck})
		return
	}
	s.origin[req.Series] = req.From
	s.series[req.Series] = appendWindow(s.series[req.Series], req.Samples, s.retention)
	s.mu.Unlock()
	lag := s.tracker.Apply(req.Series, len(req.Samples), req.Total)
	s.met.Lag.Observe(float64(lag))
	s.st.Reply(req, proto.Message{Type: proto.MsgReplAck, Total: lag})
}

// handleReplWindow replaces a replica-held series' retained window
// wholesale (anti-entropy backfill): dedup-safe however many times it
// is delivered, and it declares the replica caught up to the sender's
// cumulative total.
func (s *Server) handleReplWindow(req proto.Message) {
	s.mu.Lock()
	if s.registered[req.Series] {
		s.mu.Unlock()
		s.st.Reply(req, proto.Message{Type: proto.MsgReplAck})
		return
	}
	s.origin[req.Series] = req.From
	s.series[req.Series] = appendWindow(nil, req.Samples, s.retention)
	s.mu.Unlock()
	s.tracker.SetApplied(req.Series, req.Total)
	s.st.Reply(req, proto.Message{Type: proto.MsgReplAck})
}

// handleReplSync hands a repairing primary every series this server
// holds as a replica of the dead primary host named in req.Name. Each
// result reuses Lag as the sender's cumulative watermark for the
// series, so the adopter can pin its totals monotonically.
func (s *Server) handleReplSync(req proto.Message) {
	s.mu.Lock()
	var results []proto.SeriesResult
	for name, from := range s.origin {
		if from != req.Name {
			continue
		}
		results = append(results, proto.SeriesResult{
			Series:  name,
			Samples: append([]proto.Sample(nil), s.series[name]...),
			Replica: true,
			Lag:     s.tracker.Watermark(name),
		})
	}
	s.mu.Unlock()
	sort.Slice(results, func(i, j int) bool { return results[i].Series < results[j].Series })
	s.st.Reply(req, proto.Message{Type: proto.MsgReplSyncReply, Version: proto.V3, Results: results})
}

// handleReplRepair re-establishes the replication factor after a crash:
// this server becomes the primary for every series the dead primary
// (req.Reg.Name, a host) owned, sourcing the retained windows from the
// survivor req.Reg.Host — itself, when it was in the dead primary's
// replica set — and pushing full windows to its own replica set. The
// ack reports series adopted (Count) and samples backfilled (Total).
func (s *Server) handleReplRepair(req proto.Message) {
	dead, survivor := req.Reg.Name, req.Reg.Host
	var results []proto.SeriesResult
	if survivor == s.st.Host() {
		s.mu.Lock()
		for name, from := range s.origin {
			if from != dead {
				continue
			}
			results = append(results, proto.SeriesResult{
				Series:  name,
				Samples: append([]proto.Sample(nil), s.series[name]...),
				Lag:     s.tracker.Watermark(name),
			})
		}
		s.mu.Unlock()
		sort.Slice(results, func(i, j int) bool { return results[i].Series < results[j].Series })
	} else {
		reply, err := s.st.Call(survivor, proto.Message{
			Type: proto.MsgReplSync, Version: proto.V3, Name: dead,
		}, 30*time.Second)
		if err != nil {
			s.st.ReplyError(req, "memory: repair sync with survivor %s: %v", survivor, err)
			return
		}
		results = reply.Results
	}
	adopted, backfilled := s.adoptSeries(results)
	s.met.Backfill.Add(backfilled)
	s.st.Reply(req, proto.Message{Type: proto.MsgReplAck, Count: adopted, Total: backfilled})
}

// adoptSeries takes ownership of the given series windows: each one is
// merged under the retention cap (survivor history in front of any
// samples a rehomed sensor already stored here), its totals pinned, the
// ownership advertised in one bulk round-trip, and the full window
// pushed to this server's replica set.
func (s *Server) adoptSeries(results []proto.SeriesResult) (adopted int, backfilled int64) {
	type push struct {
		name    string
		samples []proto.Sample
		total   int64
	}
	var pushes []push
	s.mu.Lock()
	for _, r := range results {
		if r.Series == "" {
			continue
		}
		window := appendWindow(nil, mergeWindows(r.Samples, s.series[r.Series]), s.retention)
		s.series[r.Series] = window
		delete(s.origin, r.Series)
		if !s.registered[r.Series] {
			s.registered[r.Series] = true
		}
		adopted++
		backfilled += int64(len(r.Samples))
		s.tracker.SetTotal(r.Series, r.Lag)
		pushes = append(pushes, push{
			name:    r.Series,
			samples: append([]proto.Sample(nil), window...),
			total:   s.tracker.Total(r.Series),
		})
	}
	s.mu.Unlock()
	if s.ns != nil {
		s.ns.RegisterBulk(s.ownedRegistrations())
	}
	if s.fan != nil {
		for _, p := range pushes {
			s.fan.Window(p.name, p.samples, p.total)
		}
	}
	return adopted, backfilled
}

// appendWindow appends add to the window buf and keeps the newest
// retention samples, sliding them down in place: a series at retention —
// the steady state of every long-lived feed — stores without
// reallocating. add is copied in (a decoded frame is never retained), and
// the slide is safe because no reader keeps buf's backing array past the
// server lock: fetch, sync, persist and the fan-out all copy out.
func appendWindow(buf, add []proto.Sample, retention int) []proto.Sample {
	buf = append(buf, add...)
	if over := len(buf) - retention; over > 0 {
		buf = buf[:copy(buf, buf[over:])]
	}
	return buf
}

// mergeWindows prepends the survivor's window onto samples a rehomed
// sensor may already have stored locally, dropping survivor samples
// that overlap the local run (local samples are newer by construction).
func mergeWindows(survivor, local []proto.Sample) []proto.Sample {
	if len(local) == 0 {
		return survivor
	}
	cut := len(survivor)
	for cut > 0 && survivor[cut-1].At >= local[0].At {
		cut--
	}
	out := make([]proto.Sample, 0, cut+len(local))
	out = append(out, survivor[:cut]...)
	return append(out, local...)
}

// clampCount resolves a request's Count against the retained window
// length (<= 0 or oversized asks for the full window).
func clampCount(have, want int) int {
	if want <= 0 || want > have {
		return have
	}
	return want
}

// persistedState is the gob image written by Persist. The replication
// bookkeeping rides along so an in-place rebuild (incremental redeploy)
// restores replica-held windows and watermarks, not just owned series.
type persistedState struct {
	Series  map[string][]proto.Sample
	Origin  map[string]string
	Total   map[string]int64
	Applied map[string]int64
	Seen    map[string]int64
}

// Persist writes the stored series (gob) — the "on disk" half of the
// paper's memory server.
func (s *Server) Persist(w io.Writer) error {
	s.mu.Lock()
	st := persistedState{
		Series: map[string][]proto.Sample{},
		Origin: map[string]string{},
	}
	for name, buf := range s.series {
		st.Series[name] = append([]proto.Sample(nil), buf...)
	}
	for name, from := range s.origin {
		st.Origin[name] = from
	}
	s.mu.Unlock()
	st.Total, st.Applied, st.Seen = s.tracker.Snapshot()
	return gob.NewEncoder(w).Encode(st)
}

// Restore replaces the server's contents with series persisted by
// Persist, trimming each to its newest samples under the retention cap.
func (s *Server) Restore(r io.Reader) error {
	var st persistedState
	if err := gob.NewDecoder(r).Decode(&st); err != nil {
		return err
	}
	s.tracker.Load(st.Total, st.Applied, st.Seen)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.series = map[string][]proto.Sample{}
	for name, buf := range st.Series {
		s.series[name] = appendWindow(nil, buf, s.retention)
	}
	s.origin = map[string]string{}
	for name, from := range st.Origin {
		s.origin[name] = from
	}
	return nil
}

// Client wraps store/fetch calls against a memory server.
type Client struct {
	St      proto.Port
	Host    string // memory server host
	Timeout time.Duration
}

// NewClient returns a client for the memory server on host.
func NewClient(st proto.Port, host string) *Client {
	return &Client{St: st, Host: host, Timeout: 10 * time.Second}
}

// Store appends samples to a series.
func (c *Client) Store(series string, samples ...proto.Sample) error {
	_, err := c.St.Call(c.Host, proto.Message{Type: proto.MsgStore, Series: series, Samples: samples}, c.Timeout)
	return err
}

// Fetch returns the newest n samples of a series. n <= 0 returns the
// full retained window (every sample the server still holds under its
// retention cap); n larger than the window is clamped to it. An unknown
// series is not an error: it returns an empty slice.
func (c *Client) Fetch(series string, n int) ([]proto.Sample, error) {
	res, err := c.BatchFetch([]proto.SeriesRequest{{Series: series, Count: n}})
	if err != nil {
		return nil, err
	}
	if len(res) != 1 {
		return nil, fmt.Errorf("memory: %d results for a batch of one", len(res))
	}
	return res[0].Samples, nil
}

// BatchFetch returns many series in one round-trip. Results keep the
// request order; per-series Count semantics match Fetch.
func (c *Client) BatchFetch(reqs []proto.SeriesRequest) ([]proto.SeriesResult, error) {
	reply, err := c.St.Call(c.Host, proto.Message{Type: proto.MsgBatchFetch, Version: proto.V3, Queries: reqs}, c.Timeout)
	if err != nil {
		return nil, err
	}
	return reply.Results, nil
}
