// Package gateway implements the NWS Query Gateway: a deployable role
// that fronts the versioned query plane for end users. Clients talk to
// one well-known address with the batch vocabulary; the gateway
// resolves, batches and fans out across the memory servers and
// forecasters behind it through an embedded query.Client, so its
// discovery cache, lookup singleflight and forecast cache are shared by
// every user of the deployment instead of rebuilt per client process.
//
// Gateways are planned and deployed like the name server and the
// forecaster — the primary runs on the master by default, additional
// replicas are placed across sites by the same machinery that places
// memory replicas — register under kind "gateway" so clients can
// discover the full set, and are re-homed by the reconcile control
// plane when a host dies. The Client balances across the live replicas
// and fails over on death or typed overload.
package gateway

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"nwsenv/internal/nws/nameserver"
	"nwsenv/internal/nws/predict"
	"nwsenv/internal/nws/proto"
	"nwsenv/internal/query"
	"nwsenv/internal/telemetry"
)

// maxConcurrentRequests bounds the requests a gateway serves at once:
// admission control, so a traffic burst waits for a token (one parked
// process per waiter) instead of fanning out unboundedly. Each admitted
// request scatters one batch per backend from its own process.
const maxConcurrentRequests = 64

// defaultShedThreshold bounds how many requests may wait for an
// admission token before the gateway starts shedding: past it, new
// requests get a typed CodeOverloaded reply with a retry-after hint
// instead of a queue slot, so a storm surfaces as backpressure the
// client can route around rather than as silent latency.
const defaultShedThreshold = 2 * maxConcurrentRequests

// overloadRetryAfter is the retry-after hint a shed reply carries: how
// long a client that has no other replica to try should wait before
// knocking again.
const overloadRetryAfter = time.Second

// Server is a running query gateway.
type Server struct {
	st    proto.Port
	ns    *nameserver.Client
	qc    *query.Client
	sem   proto.Inbox // admission tokens, limit deep (filled in Run)
	limit int         // concurrent admitted requests
	shed  int         // waiters beyond which new requests are shed

	// fetchName and forecastName label the processes serving requests.
	fetchName, forecastName string
	// free recycles admission records; bounded by the peak number of
	// requests admitted or waiting at once.
	mu   sync.Mutex
	free []*admission

	tele      *telemetry.Registry
	inflight  atomic.Int64
	waiting   atomic.Int64
	depth     *telemetry.Gauge   // gateway/queue_depth: requests waiting for a token
	inflightG *telemetry.Gauge   // gateway/inflight: admitted requests being served
	queued    *telemetry.Counter // gateway/admission_queued: requests that waited for a token
	shedTotal *telemetry.Counter // gateway/shed_total: requests answered CodeOverloaded
	requests  *telemetry.Counter // gateway/requests: admitted query batches
	probes    *telemetry.Counter // gateway/probes: empty-batch liveness probes (not admitted)
}

// New creates a gateway on st, querying the deployment through the name
// server on nsHost. Query-plane tuning (the forecast cache TTL,
// telemetry) is passed through to the embedded query.Client.
func New(st proto.Port, nsHost string, opts ...query.Option) *Server {
	s := &Server{
		st:    st,
		ns:    nameserver.NewClient(st, nsHost),
		qc:    query.New(st, nsHost, opts...),
		limit: maxConcurrentRequests,
		shed:  defaultShedThreshold,

		fetchName:    "gateway-fetch:" + st.Host(),
		forecastName: "gateway-forecast:" + st.Host(),
	}
	s.sem = st.Runtime().NewInbox("gateway-sem:" + st.Host())
	return s
}

// Name returns the gateway's directory name.
func (s *Server) Name() string { return "gateway." + s.st.Host() }

// SetAdmission tunes admission control: at most limit requests are
// served concurrently, and once shed requests are waiting for a token
// any further request is answered with a typed CodeOverloaded reply.
// Call before Run; non-positive values keep the defaults.
func (s *Server) SetAdmission(limit, shed int) {
	if limit > 0 {
		s.limit = limit
	}
	if shed > 0 {
		s.shed = shed
	}
}

// SetTelemetry instruments the gateway (and its embedded query client)
// against r: queue-depth and inflight gauges with watermarks,
// admission/shed/request/probe counters, and a span per served request.
// Call before Run; a nil registry leaves the gateway uninstrumented.
func (s *Server) SetTelemetry(r *telemetry.Registry) {
	s.tele = r
	s.depth = r.Gauge("gateway", "queue_depth", nil)
	s.inflightG = r.Gauge("gateway", "inflight", nil)
	s.queued = r.Counter("gateway", "admission_queued", nil)
	s.shedTotal = r.Counter("gateway", "shed_total", nil)
	s.requests = r.Counter("gateway", "requests", nil)
	s.probes = r.Counter("gateway", "probes", nil)
	s.qc.SetTelemetry(r)
}

// Run serves query requests until the station closes. Each request is
// answered on its own runtime process, so slow backends stall only
// their request while the gateway keeps accepting traffic.
func (s *Server) Run() {
	for i := 0; i < s.limit; i++ {
		s.sem.Send(proto.Message{})
	}
	reg := proto.Registration{Name: s.Name(), Kind: "gateway", Host: s.st.Host()}
	s.ns.Register(reg)
	s.st.Runtime().Go("gateway-refresh:"+s.st.Host(), func() { s.ns.KeepRegistered(reg, nil) })
	for {
		req, ok := s.st.Recv()
		if !ok {
			return
		}
		switch req.Type {
		case proto.MsgQueryFetch, proto.MsgQueryForecast:
			if len(req.Queries) == 0 {
				// Empty batch: a discovery liveness probe. Answer it without
				// burning an admission token — liveness must stay observable
				// even when the gateway is saturated — and count it apart
				// from real traffic.
				s.probes.Inc()
				s.st.Reply(req, proto.Message{Type: queryReplyType(req.Type), Version: proto.V3})
				continue
			}
			s.admit(req)
		case proto.MsgPing:
			s.st.Reply(req, proto.Message{Type: proto.MsgPong})
		default:
			s.st.ReplyError(req, "gateway: unexpected %v", req.Type)
		}
	}
}

// admission is one request on its way through admission control,
// carried to the process that serves it. Records are recycled: each
// builds its process body once, and the Server's freelist hands it from
// the process that finished with it to the next admit, under s.mu — on
// TCP those are different goroutines.
type admission struct {
	s   *Server
	req proto.Message
	// queued: the request still has to wait for a token.
	queued bool
	serve  func()
}

// spawn serves req on a process of its own, carried there in a
// recycled admission record.
func (s *Server) spawn(req *proto.Message, queued bool) {
	s.mu.Lock()
	var a *admission
	if n := len(s.free); n > 0 {
		a = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	}
	s.mu.Unlock()
	if a == nil {
		a = &admission{s: s}
		a.serve = a.run
	}
	a.req, a.queued = *req, queued
	name := s.forecastName
	if req.Type == proto.MsgQueryFetch {
		name = s.fetchName
	}
	s.st.Runtime().Go(name, a.serve)
}

// run is the request's process: wait for a token if the request was
// queued, answer it, give the token back and recycle the record, which
// keeps nothing of the request.
func (a *admission) run() {
	s := a.s
	defer s.recycle(a)
	if a.queued {
		_, ok := s.sem.Recv()
		s.depth.Set(float64(s.waiting.Add(-1)))
		if !ok {
			return
		}
		s.requests.Inc()
		s.inflightG.Set(float64(s.inflight.Add(1)))
	}
	defer s.release()
	if a.req.Type == proto.MsgQueryFetch {
		s.handleFetch(a.req)
	} else {
		s.handleForecast(a.req)
	}
}

func (s *Server) recycle(a *admission) {
	a.req, a.queued = proto.Message{}, false
	s.mu.Lock()
	s.free = append(s.free, a)
	s.mu.Unlock()
}

// admit serves the request on its own runtime process under admission
// control. The fast path takes a token without blocking; when all
// tokens are in flight the request parks on a waiter process (counted
// by the queue-depth gauge) — unless the waiter line has reached the
// shed threshold, in which case the request is answered immediately
// with a typed CodeOverloaded reply carrying a retry-after hint.
func (s *Server) admit(req proto.Message) {
	if _, ok := s.sem.TryRecv(); ok {
		s.requests.Inc()
		s.inflightG.Set(float64(s.inflight.Add(1)))
		s.spawn(&req, false)
		return
	}
	// The token Recv would block: this is a genuine queue event.
	if s.waiting.Load() >= int64(s.shed) {
		s.shedTotal.Inc()
		s.st.Reply(req, proto.Message{
			Type:       queryReplyType(req.Type),
			Version:    proto.V3,
			Error:      "gateway " + s.st.Host() + " overloaded: " + strconv.FormatInt(s.waiting.Load(), 10) + " requests waiting",
			Code:       proto.CodeOverloaded,
			RetryAfter: overloadRetryAfter,
		})
		return
	}
	s.queued.Inc()
	s.depth.Set(float64(s.waiting.Add(1)))
	s.spawn(&req, true)
}

// release returns an admission token and settles the inflight gauge.
func (s *Server) release() {
	s.inflightG.Set(float64(s.inflight.Add(-1)))
	s.sem.Send(proto.Message{})
}

// queryReplyType maps a query request type to its reply type, for
// replies built outside the per-type handlers (probes, overload sheds).
func queryReplyType(t proto.MsgType) proto.MsgType {
	if t == proto.MsgQueryForecast {
		return proto.MsgQueryForecastReply
	}
	return proto.MsgQueryFetchReply
}

func (s *Server) handleFetch(req proto.Message) {
	if s.tele != nil {
		sp := s.tele.StartSpan("gateway", "fetch",
			telemetry.Attr{Key: "queries", Value: strconv.Itoa(len(req.Queries))})
		defer sp.End()
	}
	if req.Version > proto.V3 {
		s.st.ReplyError(req, "gateway: unsupported protocol version %d (max %d)", req.Version, proto.V3)
		return
	}
	res := s.qc.FetchMany(req.Queries)
	out := make([]proto.SeriesResult, len(res))
	for i, r := range res {
		out[i] = proto.SeriesResult{Series: r.Series, Samples: r.Samples}
		if r.Err != nil {
			out[i].Error = r.Err.Error()
			out[i].Code = query.ErrCode(r.Err)
			// A degraded answer keeps its samples; the lag watermark rides
			// the result so the caller can rehydrate the advisory.
			var de *query.DegradedError
			if errors.As(r.Err, &de) {
				out[i].Replica, out[i].Lag = true, de.Lag
			}
		}
	}
	s.st.Reply(req, proto.Message{Type: proto.MsgQueryFetchReply, Version: proto.V3, Results: out})
}

func (s *Server) handleForecast(req proto.Message) {
	if s.tele != nil {
		sp := s.tele.StartSpan("gateway", "forecast",
			telemetry.Attr{Key: "queries", Value: strconv.Itoa(len(req.Queries))})
		defer sp.End()
	}
	if req.Version > proto.V3 {
		s.st.ReplyError(req, "gateway: unsupported protocol version %d (max %d)", req.Version, proto.V3)
		return
	}
	res := s.qc.ForecastMany(req.Queries)
	out := make([]proto.ForecastResult, len(res))
	for i, r := range res {
		out[i] = proto.ForecastResult{
			Series: r.Series, Value: r.Prediction.Value, MAE: r.Prediction.MAE,
			MSE: r.Prediction.MSE, Method: r.Prediction.Method, Count: r.Prediction.N,
		}
		if r.Err != nil {
			out[i].Error = r.Err.Error()
			out[i].Code = query.ErrCode(r.Err)
			// Parity with handleFetch: a degraded prediction carries its lag
			// watermark so ForecastMany callers get the same staleness
			// advisory fetchers do.
			var de *query.DegradedError
			if errors.As(r.Err, &de) {
				out[i].Replica, out[i].Lag = true, de.Lag
			}
		}
	}
	s.st.Reply(req, proto.Message{Type: proto.MsgQueryForecastReply, Version: proto.V3, Forecasts: out})
}

// Client is an end user's handle on a deployment's query gateways. It
// balances batches round-robin across a pool of replicas and fails
// over: a replica that stops answering is evicted from the pool, and a
// typed CodeOverloaded reply sends the batch to the next replica
// (without eviction — the gateway is alive, just shedding). Only when
// every replica has failed does the last error surface, typed so
// errors.Is(err, query.ErrBackendDown) / query.ErrOverloaded work.
type Client struct {
	St      proto.Port
	Host    string // primary gateway host (first of the pool)
	Timeout time.Duration

	mu sync.Mutex
	// pool is never written in place: evict swaps in a fresh slice, so
	// a batch walks the snapshot it took without copying it.
	pool      []string
	cursor    int
	failovers *telemetry.Counter // gateway/client_failovers
}

// NewBalancedClient returns a client balancing across the given gateway
// replicas. The pool order is the caller's; successive batches start
// from successive replicas (round-robin) so concurrent clients spread.
func NewBalancedClient(st proto.Port, hosts []string) *Client {
	c := &Client{St: st, Timeout: 10 * time.Second, pool: append([]string(nil), hosts...)}
	if len(c.pool) > 0 {
		c.Host = c.pool[0]
	}
	return c
}

// SetTelemetry instruments the client's failover counter against r. A
// nil registry leaves it uninstrumented.
func (c *Client) SetTelemetry(r *telemetry.Registry) {
	c.failovers = r.Counter("gateway", "client_failovers", nil)
}

// Hosts returns the live replica pool (evictions removed).
func (c *Client) Hosts() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.pool...)
}

// rotation snapshots the pool and the round-robin cursor into it (a
// batch walks pool[start], pool[start+1], ... wrapping around), and
// advances the cursor for the next call.
func (c *Client) rotation() (pool []string, start int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(c.pool)
	if n == 0 {
		return nil, 0
	}
	c.cursor %= n
	start = c.cursor
	c.cursor++
	return c.pool, start
}

// evict removes a dead replica from the pool.
func (c *Client) evict(host string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, h := range c.pool {
		if h == host {
			c.pool = append(append(make([]string, 0, len(c.pool)-1), c.pool[:i]...), c.pool[i+1:]...)
			return
		}
	}
}

// call sends one batch, walking the replica pool until a gateway
// answers. Transport failures (timeout, closed station) evict the
// replica and try the next; a typed overload reply keeps the replica in
// the pool and tries the next; any other served error reply is
// authoritative and surfaces directly (every replica fronts the same
// deployment, so retrying it elsewhere cannot change the answer).
func (c *Client) call(m proto.Message) (proto.Message, error) {
	pool, start := c.rotation()
	if len(pool) == 0 {
		return proto.Message{}, fmt.Errorf("%w: gateway client: no live replicas", query.ErrBackendDown)
	}
	// The last failure decides the error; an overload is built only if
	// it is the one returned.
	var lastErr error
	var shedBy string
	var retryAfter time.Duration
	for k := range pool {
		h := pool[(start+k)%len(pool)]
		reply, err := c.St.Call(h, m, c.Timeout)
		if err == nil {
			return reply, nil
		}
		switch {
		case reply.Code == proto.CodeOverloaded:
			c.failovers.Inc()
			lastErr, shedBy, retryAfter = nil, h, reply.RetryAfter
		case reply.Error != "":
			return proto.Message{}, err
		default:
			c.failovers.Inc()
			c.evict(h)
			lastErr, shedBy = fmt.Errorf("%w: gateway %s: %v", query.ErrBackendDown, h, err), ""
		}
	}
	if shedBy != "" {
		return proto.Message{}, &query.OverloadedError{RetryAfter: retryAfter, Msg: "gateway " + shedBy}
	}
	return proto.Message{}, lastErr
}

// discoverProbeTimeout bounds the per-candidate liveness probe during
// discovery: long enough for a WAN round-trip, short enough that a
// stale entry does not stall discovery for the full call timeout.
const discoverProbeTimeout = 5 * time.Second

// probe checks that a registered candidate actually serves the gateway
// role, with an empty batch the server answers outside admission
// control (liveness stays observable under saturation).
func probe(st proto.Port, host string) bool {
	_, err := st.Call(host, proto.Message{Type: proto.MsgQueryFetch, Version: proto.V3}, discoverProbeTimeout)
	return err == nil
}

// DiscoverAll finds every live gateway replica of a deployment through
// its name server. The directory can hold stale entries for up to the
// registration TTL after a planned gateway move (the old agent rebuilds
// without the role but its entry lives on), so each candidate of the
// full kind="gateway" listing is probed with an empty batch and stale
// entries are dropped. The surviving order is LookupKind's
// deterministic order, so concurrent clients build identical pools.
//
// Failures are the query plane's structured errors: an unreachable
// directory and an answerless candidate list both wrap
// query.ErrBackendDown, so discovery fits the same errors.Is vocabulary
// as every other resolution path.
func DiscoverAll(st proto.Port, nsHost string) ([]proto.Registration, error) {
	regs, err := nameserver.NewClient(st, nsHost).LookupKind("gateway", "")
	if err != nil {
		return nil, fmt.Errorf("%w: gateway discovery: name server: %v", query.ErrBackendDown, err)
	}
	if len(regs) == 0 {
		return nil, fmt.Errorf("%w: no gateway registered", query.ErrBackendDown)
	}
	live := regs[:0]
	for _, reg := range regs {
		if probe(st, reg.Host) {
			live = append(live, reg)
		}
	}
	if len(live) == 0 {
		return nil, fmt.Errorf("%w: none of %d registered gateway(s) answering", query.ErrBackendDown, len(regs))
	}
	return live, nil
}

// Connect discovers every live gateway replica and returns a balanced
// client over the full set: the one-call path from "I know the name
// server" to a failover-capable handle on the query plane.
func Connect(st proto.Port, nsHost string) (*Client, error) {
	regs, err := DiscoverAll(st, nsHost)
	if err != nil {
		return nil, err
	}
	hosts := make([]string, len(regs))
	for i, r := range regs {
		hosts[i] = r.Host
	}
	return NewBalancedClient(st, hosts), nil
}

// FetchMany answers every requested series in one round-trip to a
// gateway replica (balanced, with failover). Per-series failures carry
// the query plane's structured errors (errors.Is ErrSeriesUnknown /
// ErrBackendDown works across the wire).
func (c *Client) FetchMany(reqs []proto.SeriesRequest) ([]query.Result, error) {
	reply, err := c.call(proto.Message{Type: proto.MsgQueryFetch, Version: proto.V3, Queries: reqs})
	if err != nil {
		return nil, err
	}
	if len(reply.Results) != len(reqs) {
		return nil, fmt.Errorf("gateway %s: short batch reply: %d results for %d queries", reply.From, len(reply.Results), len(reqs))
	}
	out := make([]query.Result, len(reply.Results))
	for i, r := range reply.Results {
		out[i] = query.Result{Series: r.Series, Samples: r.Samples}
		if r.Code == proto.CodeDegraded {
			// Rehydrate the staleness advisory with its lag watermark; the
			// samples stay usable.
			out[i].Err = &query.DegradedError{Lag: r.Lag, Msg: "via gateway: " + r.Error}
		} else {
			out[i].Err = wireError(r.Code, r.Error)
		}
	}
	return out, nil
}

// Fetch is the single-series convenience over FetchMany.
func (c *Client) Fetch(series string, n int) ([]proto.Sample, error) {
	res, err := c.FetchMany([]proto.SeriesRequest{{Series: series, Count: n}})
	if err != nil {
		return nil, err
	}
	return res[0].Samples, res[0].Err
}

// ForecastMany predicts every requested series in one round-trip to a
// gateway replica (balanced, with failover). Like FetchMany, per-series
// failures carry the structured query errors rehydrated from the wire —
// including the degraded-staleness advisory, whose lag watermark rides
// the forecast result exactly as it rides fetch results.
func (c *Client) ForecastMany(reqs []proto.SeriesRequest) ([]query.ForecastResult, error) {
	reply, err := c.call(proto.Message{Type: proto.MsgQueryForecast, Version: proto.V3, Queries: reqs})
	if err != nil {
		return nil, err
	}
	if len(reply.Forecasts) != len(reqs) {
		return nil, fmt.Errorf("gateway %s: short batch reply: %d forecasts for %d queries", reply.From, len(reply.Forecasts), len(reqs))
	}
	out := make([]query.ForecastResult, len(reply.Forecasts))
	for i, f := range reply.Forecasts {
		out[i] = query.ForecastResult{
			Series: f.Series,
			Prediction: predict.Prediction{
				Value: f.Value, MAE: f.MAE, MSE: f.MSE, Method: f.Method, N: f.Count,
			},
		}
		if f.Code == proto.CodeDegraded {
			out[i].Err = &query.DegradedError{Lag: f.Lag, Msg: "via gateway: " + f.Error}
		} else {
			out[i].Err = wireError(f.Code, f.Error)
		}
	}
	return out, nil
}

// wireError rehydrates a gateway-serialized query error from its typed
// code, so errors.Is keeps working across the wire without anyone
// depending on message wording.
func wireError(code, msg string) error {
	if msg == "" {
		return nil
	}
	return query.CodedError(code, "via gateway: "+msg)
}
