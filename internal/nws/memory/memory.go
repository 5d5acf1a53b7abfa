// Package memory implements the NWS memory server: bounded persistent
// storage of measurement time series, fetched by forecasters and clients
// (§2.1: "Memory servers store the results on disk for further use").
package memory

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"nwsenv/internal/nws/nameserver"
	"nwsenv/internal/nws/proto"
	"nwsenv/internal/nws/replica"
	"nwsenv/internal/telemetry"
)

// DefaultRetention is the per-series sample cap.
const DefaultRetention = 1024

// Server is a running memory server.
//
// Every retained window has a token (proto.WindowToken): the stamp of
// its last write, drawn afresh by every write — a store (and the trim it
// implies), a fan-out append or window from a primary, an adoption in
// repair, a handover. A batch fetch that carries a token gets the
// window's current token back, and no samples when the two are equal:
// the requester already holds that window. A fetch without tokens is
// answered as if tokens did not exist.
type Server struct {
	st        proto.Port
	ns        *nameserver.Client
	retention int

	// Replication plane. replicas is this primary's configured replica
	// set (node IDs); fan is the async write fan-out feeding it; met is
	// nil-safe telemetry.
	replicas []string
	fan      *replica.Fanout
	met      replica.Metrics
	tele     *telemetry.Registry

	mu     sync.Mutex
	series map[string]*record
}

// record is everything the server keeps about one series, so a store,
// a replica append and a fetch entry each cost one lookup under s.mu.
type record struct {
	window []proto.Sample
	token  proto.WindowToken // the window's stamp (see setWindow); 0 before the first write
	// registered marks a series advertised to the name server as owned
	// here.
	registered bool
	// origin is the primary host that fans a replica-held series out
	// here, "" for an owned series: a series adopted by repair or
	// promoted by a direct store clears it.
	origin string
	// total is the primary side's cumulative count of accepted samples.
	// applied is the replica side's cumulative count of applied ones and
	// seen the newest primary total it observed: seen - applied is its
	// lag, the samples the primary accepted that this replica has not.
	total, applied, seen int64
}

func (r *record) lag() int64 { return max(r.seen-r.applied, 0) }

// watermark is the highest cumulative count the record holds from
// either side: the monotone floor a repaired primary adopts so its
// totals never run backwards past what replicas already saw.
func (r *record) watermark() int64 { return max(r.total, r.applied, r.seen) }

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
		st:        st,
		ns:        ns,
		retention: DefaultRetention,
		series:    map[string]*record{},
	}
	for _, o := range opts {
		o(s)
	}
	s.met = replica.NewMetrics(s.tele)
	if len(s.replicas) > 0 {
		// Only where stores fan out, so a run without replication
		// reports no such key.
		s.met.Frames = s.tele.Counter("replica", "fanout_messages", nil)
	}
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
		// A merged frame carries at most one retention window, so it
		// holds a replica's loop no longer than a ReplWindow does.
		s.fan = replica.NewFanout(s.st, s.replicas, s.retention, s.met)
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
		s.serve(req)
	}
}

// serve answers one request.
func (s *Server) serve(req *proto.Message) {
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
	var names []string
	for name, r := range s.series {
		if r.registered {
			names = append(names, name)
		}
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

func (s *Server) handleStore(req *proto.Message) {
	if req.Series == "" {
		s.st.ReplyError(req, "memory: empty series")
		return
	}
	s.mu.Lock()
	r := s.record(req.Series)
	// A direct store onto a replica-held series promotes it to owned:
	// the sensor feed has rehomed here, so this server is its primary
	// now and the stale replica bookkeeping must not shadow that.
	r.origin = ""
	s.setWindow(r, appendWindow(r.window, req.Samples, s.retention))
	r.total += int64(len(req.Samples))
	total, registered, w := r.total, r.registered, r.window
	s.mu.Unlock()
	if s.fan != nil && len(req.Samples) > 0 {
		// The fan-out retains the samples past this request: hand it the
		// copy the window already holds, pinned (windows are
		// append-only), or a copy of a store longer than the window.
		fanned := req.Samples
		if len(fanned) <= len(w) {
			fanned = w[len(w)-len(fanned) : len(w) : len(w)]
		} else {
			fanned = append([]proto.Sample(nil), fanned...)
		}
		s.fan.Store(req.Series, fanned, total)
	}
	if s.ns != nil && !registered {
		// Advertise series ownership so forecasters can find the right
		// memory server (§2.1 step 2). The entry carries the replica set
		// so query clients learn their failover targets from the cache.
		if err := s.ns.Register(proto.Registration{
			Name: req.Series, Kind: "series", Host: s.st.Host(), Owner: s.Name(),
			Replicas: s.replicas,
		}); err == nil {
			s.mu.Lock()
			s.record(req.Series).registered = true
			s.mu.Unlock()
		}
	}
	s.st.Reply(req, proto.Message{Type: proto.MsgStoreAck})
}

// record returns name's record, made empty at its first mention. s.mu
// must be held.
func (s *Server) record(name string) *record {
	r := s.series[name]
	if r == nil {
		r = &record{}
		s.series[name] = r
	}
	return r
}

// stamps counts window writes across every server of the process from
// a random start, so no two writes share a stamp and a restarted
// process does not replay its predecessor's.
var stamps atomic.Uint64

func init() { stamps.Store(rand.Uint64()) }

// setWindow installs r's retained window under a fresh stamp, so no
// token issued for the window it replaces matches again. s.mu must be
// held while r is one of s's records.
func (s *Server) setWindow(r *record, w []proto.Sample) {
	r.window = w
	for {
		if t := proto.WindowToken(stamps.Add(1)); t != 0 && t != proto.AskToken {
			r.token = t
			return
		}
	}
}

// handleBatchFetch answers a batch fetch: every requested series in
// one round-trip. Unknown series come back empty; results keep the
// request order. A tokened request is stamped with its window's token,
// and carries no samples when the requester's token is that one.
func (s *Server) handleBatchFetch(req *proto.Message) {
	if req.Version > proto.V3 {
		s.st.ReplyError(req, "memory: unsupported protocol version %d (max %d)", req.Version, proto.V3)
		return
	}
	results := make([]proto.SeriesResult, len(req.Queries))
	var tokens []proto.WindowToken // made at the first tokened query
	// unchanged reports whether query i holds the window it asks for.
	unchanged := func(i int) bool {
		t := req.Queries[i].Token
		return t != 0 && t == tokens[i]
	}
	var none record // an unknown series: empty, token 0
	s.mu.Lock()
	// Each answer is the newest samples of its live window, capacity-
	// pinned so a receiver's append cannot reach what the window writes
	// next: windows are append-only, so the answer never changes.
	for i, q := range req.Queries {
		r := s.series[q.Series]
		if r == nil {
			r = &none
		}
		results[i].Series = q.Series
		if q.Token != 0 {
			if tokens == nil {
				tokens = make([]proto.WindowToken, len(req.Queries))
			}
			tokens[i] = r.token
		}
		// An unchanged answer keeps Samples empty; Replica and Lag below
		// still apply to it.
		if !unchanged(i) {
			w := r.window
			results[i].Samples = w[len(w)-clampCount(len(w), q.Count) : len(w) : len(w)]
		}
		if r.origin != "" {
			// Served from a replica copy: mark it so clients can surface
			// degraded (stale-but-available) answers, with the lag
			// watermark alongside.
			results[i].Replica = true
			results[i].Lag = r.lag()
		}
	}
	s.mu.Unlock()
	s.st.Reply(req, proto.Message{Type: proto.MsgBatchFetchReply, Version: proto.V3, Results: results, ResultTokens: tokens})
}

// handleReplStore applies a fan-out frame from a primary: its Results
// hold one store per entry (Lag carries its total), each applied as if
// it had come alone. An owned series ignores its stores (the sender is
// stale — ownership moved here), and the reply always acks, with the
// lag after the frame's last store: replication is at-most-once by
// design.
func (s *Server) handleReplStore(req *proto.Message) {
	var lag int64
	s.mu.Lock()
	for _, e := range req.Results {
		r := s.record(e.Series)
		if r.registered {
			lag = 0
			continue
		}
		r.origin = req.From
		s.setWindow(r, appendWindow(r.window, e.Samples, s.retention))
		r.applied += int64(len(e.Samples))
		r.seen = max(r.seen, e.Lag)
		lag = r.lag()
		s.met.Lag.Observe(float64(lag))
	}
	s.mu.Unlock()
	s.st.Reply(req, proto.Message{Type: proto.MsgReplAck, Total: lag})
}

// handleReplWindow replaces a replica-held series' retained window
// wholesale (anti-entropy backfill): dedup-safe however many times it
// is delivered, and it declares the replica caught up to the sender's
// cumulative total.
func (s *Server) handleReplWindow(req *proto.Message) {
	s.mu.Lock()
	if r := s.record(req.Series); !r.registered {
		r.origin = req.From
		s.setWindow(r, appendWindow(nil, req.Samples, s.retention))
		r.applied = req.Total
		r.seen = max(r.seen, req.Total)
	}
	s.mu.Unlock()
	s.st.Reply(req, proto.Message{Type: proto.MsgReplAck})
}

// handleReplSync hands a repairing primary every series this server
// holds as a replica of the dead primary host named in req.Name.
func (s *Server) handleReplSync(req *proto.Message) {
	s.st.Reply(req, proto.Message{Type: proto.MsgReplSyncReply, Version: proto.V3, Results: s.heldFrom(req.Name)})
}

// heldFrom returns every series this server holds as a replica of the
// primary host dead, in name order, each window capacity-pinned. Each result reuses Lag as this
// server's watermark for the series, so the adopter can pin its totals
// monotonically.
func (s *Server) heldFrom(dead string) []proto.SeriesResult {
	s.mu.Lock()
	var results []proto.SeriesResult
	for name, r := range s.series {
		if r.origin == "" || r.origin != dead {
			continue
		}
		results = append(results, proto.SeriesResult{
			Series:  name,
			Samples: r.window[:len(r.window):len(r.window)],
			Replica: true,
			Lag:     r.watermark(),
		})
	}
	s.mu.Unlock()
	sort.Slice(results, func(i, j int) bool { return results[i].Series < results[j].Series })
	return results
}

// handleReplRepair re-establishes the replication factor after a crash:
// this server becomes the primary for every series the dead primary
// (req.Reg.Name, a host) owned, sourcing the retained windows from the
// survivor req.Reg.Host — itself, when it was in the dead primary's
// replica set — and pushing full windows to its own replica set. The
// ack reports series adopted (Count) and samples backfilled (Total).
func (s *Server) handleReplRepair(req *proto.Message) {
	dead, survivor := req.Reg.Name, req.Reg.Host
	var results []proto.SeriesResult
	if survivor == s.st.Host() {
		results = s.heldFrom(dead)
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
	for _, res := range results {
		if res.Series == "" {
			continue
		}
		r := s.record(res.Series)
		window := appendWindow(nil, mergeWindows(res.Samples, r.window), s.retention)
		s.setWindow(r, window)
		r.origin, r.registered = "", true
		r.total = max(r.total, res.Lag)
		adopted++
		backfilled += int64(len(res.Samples))
		pushes = append(pushes, push{
			name:    res.Series,
			samples: window[:len(window):len(window)],
			total:   r.total,
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

// appendWindow appends add to the window w and keeps the newest
// retention samples. Windows are append-only: a sample once in a window
// is never overwritten, so a reader may keep a capacity-pinned subslice
// of one past the server lock (a fetch answer, a fan-out store). Below
// retention w grows as append grows it. At retention it lives in a
// buffer of twice the retention: a store writes past the window's end
// and moves its start forward, and only when the buffer's end is
// reached are the newest samples copied into a fresh buffer, so a trim
// costs amortized O(1) per sample. add is copied in (a decoded frame is
// never retained).
func appendWindow(w, add []proto.Sample, retention int) []proto.Sample {
	n := len(w) + len(add)
	if n > cap(w) && n > retention {
		fresh := make([]proto.Sample, 0, 2*retention)
		if len(add) < retention {
			fresh = append(fresh, w[len(w)-(retention-len(add)):]...)
		}
		return append(fresh, add[len(add)-min(len(add), retention):]...)
	}
	w = append(w, add...)
	if over := len(w) - retention; over > 0 {
		w = w[over:]
	}
	return w
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

// HandOver installs a copy of every record s holds in to, replacing
// to's contents: an in-place rebuild hands the old server's state to
// the new one before the new one runs. The copy is taken under s's lock
// and installed under to's; the two share each window, capacity-pinned
// (windows are append-only). Each written window takes a fresh stamp, so
// no token issued before the handover matches after it; the
// replication bookkeeping (origin and counters) comes along, and the
// directory registrations do not, so to advertises its series afresh.
// A record that holds nothing (no write, no origin, zero counters) is
// left out.
func (s *Server) HandOver(to *Server) {
	s.mu.Lock()
	series := make(map[string]*record, len(s.series))
	for name, r := range s.series {
		if r.token == 0 && r.origin == "" && r.total == 0 && r.applied == 0 && r.seen == 0 {
			continue
		}
		c := &record{origin: r.origin, total: r.total, applied: r.applied, seen: r.seen}
		if r.token != 0 {
			to.setWindow(c, r.window[:len(r.window):len(r.window)])
		}
		series[name] = c
	}
	s.mu.Unlock()
	to.mu.Lock()
	to.series = series
	to.mu.Unlock()
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
