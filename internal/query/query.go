// Package query is the unified client facade over a deployed NWS: one
// versioned query plane in front of the per-service clients. Where the
// ad-hoc clients (nameserver.Client, memory.Client, forecast.Client)
// each did a fresh directory lookup and one blocking round-trip per
// series, a query.Client keeps a TTL'd discovery cache of the bindings
// the directory returned, deduplicates concurrent lookups
// (singleflight), batches multi-series queries into one round-trip per
// backend, scatters those round-trips from the calling process and
// gathers them under one deadline, caches forecasts per series, and
// reports failures as structured errors (ErrSeriesUnknown,
// ErrBackendDown) instead of stringly proto errors.
//
// The directory alone says a series is unknown: a miss is never cached,
// so a series is unknown only to the batch whose directory answer
// lacked it, and the next batch asks again. A series' outcome crosses
// the wire in one form: EncodeOutcome writes an error as a result's
// Error, Code, Replica and Lag, and DecodeOutcome turns them back into
// the error, so errors.Is and errors.As hold across every hop.
//
// The facade runs identically on the simulated and the TCP platform:
// all concurrency goes through the proto.Runtime (virtual-clock-safe
// processes and inboxes), never raw goroutines.
package query

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"nwsenv/internal/nws/nameserver"
	"nwsenv/internal/nws/predict"
	"nwsenv/internal/nws/proto"
	"nwsenv/internal/telemetry"
)

// Structured query-plane errors. Use errors.Is: every failure a Client
// returns wraps one of these (or is a per-series prediction failure).
var (
	// ErrSeriesUnknown: the directory has no entry for the series.
	ErrSeriesUnknown = errors.New("query: series unknown")
	// ErrBackendDown: a backend (name server, memory server, forecaster)
	// did not answer.
	ErrBackendDown = errors.New("query: backend down")
	// ErrDegraded: the answer was served from a replica that had not yet
	// applied every primary write. The samples accompanying the error are
	// still usable; the error is a staleness advisory, not a failure.
	ErrDegraded = errors.New("query: degraded")
	// ErrOverloaded: the answering server shed the whole request because
	// its admission queue crossed the shed threshold. Retry against
	// another replica (balanced clients do so automatically) or back off
	// by the hint carried on the concrete OverloadedError.
	ErrOverloaded = errors.New("query: overloaded")
)

// DegradedError is the concrete ErrDegraded carrier: a successful
// answer served from a lagging replica, with the replica's apply-lag
// watermark (samples the primary had accepted that the replica had not
// yet applied at answer time). errors.As recovers it; errors.Is matches
// ErrDegraded.
type DegradedError struct {
	// Lag is the replica's sample watermark deficit.
	Lag int64
	// Msg carries provenance (the answering host, wire hops).
	Msg string
}

func (e *DegradedError) Error() string {
	if e.Msg != "" {
		return fmt.Sprintf("query: degraded: %s: replica lag %d sample(s)", e.Msg, e.Lag)
	}
	return fmt.Sprintf("query: degraded: replica lag %d sample(s)", e.Lag)
}

func (e *DegradedError) Unwrap() error { return ErrDegraded }

// OverloadedError is the concrete ErrOverloaded carrier: a request shed
// by an overloaded server, with that server's retry-after hint.
// errors.As recovers it; errors.Is matches ErrOverloaded.
type OverloadedError struct {
	// RetryAfter is the shedding server's backoff hint (0: none given).
	RetryAfter time.Duration
	// Msg carries provenance (the shedding host, wire hops).
	Msg string
}

func (e *OverloadedError) Error() string {
	if e.Msg != "" {
		return fmt.Sprintf("query: overloaded: %s: retry after %v", e.Msg, e.RetryAfter)
	}
	return fmt.Sprintf("query: overloaded: retry after %v", e.RetryAfter)
}

func (e *OverloadedError) Unwrap() error { return ErrOverloaded }

// Defaults for the client's tunables.
const (
	DefaultTTL         = time.Minute      // discovery cache lifetime
	DefaultForecastTTL = 10 * time.Second // per-series forecast cache
	DefaultTimeout     = 10 * time.Second // per-call timeout

	// bulkThreshold is the number of unresolved series above which a
	// batch resolves with one bulk directory listing instead of
	// per-name lookups: fewer lookups cost less than shipping the whole
	// series directory for a couple of names.
	bulkThreshold = 4

	// maxForecastEntries caps the per-series forecast cache of one
	// client. A gateway's client lives for the whole deployment and is
	// keyed by (series, count), so without a bound the map would grow
	// monotonically under varied traffic.
	maxForecastEntries = 4096
)

// Result is one series' answer from FetchMany.
type Result struct {
	Series  string
	Samples []proto.Sample
	Err     error
}

// ForecastResult is one series' answer from ForecastMany. Prediction.N
// is the history length the forecaster used (proto.ForecastResult.Count),
// not the best member's scored-sample count that an in-process
// predict.Run reports: the wire does not carry the latter.
type ForecastResult struct {
	Series     string
	Prediction predict.Prediction
	Err        error
}

// Option tunes a Client.
type Option func(*Client)

// WithForecastTTL sets the per-series forecast cache lifetime (0
// disables forecast caching).
func WithForecastTTL(d time.Duration) Option { return func(c *Client) { c.forecastTTL = d } }

// flight deduplicates concurrent directory lookups for one key: the
// first caller performs the lookup, everyone else blocks on done (a
// runtime inbox, so virtual time keeps advancing) until it closes.
type flight struct {
	done proto.Inbox
	err  error
}

type regEntry struct {
	reg     proto.Registration
	expires time.Duration
}

type fcEntry struct {
	pred    predict.Prediction
	expires time.Duration
}

// Client is the versioned query plane's client facade.
type Client struct {
	port proto.Port
	rt   proto.Runtime
	ns   *nameserver.Client

	ttl         time.Duration
	forecastTTL time.Duration

	mu          sync.Mutex
	series      map[string]regEntry // series -> owning memory registration
	forecasters []proto.Registration
	fcExpires   time.Duration
	flights     map[string]*flight
	forecasts   map[fcKey]fcEntry
	// fanouts recycles batch records; bounded by the peak number of
	// batches in flight at once.
	fanouts []*fanout

	// Registry counters (nil-safe: an unwired client increments nil
	// instruments, which no-op).
	tele           *telemetry.Registry
	tLookupHits    *telemetry.Counter
	tLookupCalls   *telemetry.Counter
	tBatchCalls    *telemetry.Counter
	tForecastHits  *telemetry.Counter
	tForecastCalls *telemetry.Counter
	tFailovers     *telemetry.Counter
}

// New builds a client that issues its queries through an existing port
// (a station, or a host agent's role port) against the name server on
// nsHost.
func New(port proto.Port, nsHost string, opts ...Option) *Client {
	c := &Client{
		port:        port,
		rt:          port.Runtime(),
		ns:          nameserver.NewClient(port, nsHost),
		ttl:         DefaultTTL,
		forecastTTL: DefaultForecastTTL,
		series:      map[string]regEntry{},
		flights:     map[string]*flight{},
		forecasts:   map[fcKey]fcEntry{},
	}
	for _, o := range opts {
		o(c)
	}
	c.ns.Timeout = DefaultTimeout
	return c
}

// SetTelemetry counts the client's cache and batching behavior on r —
// query/lookup_hits (series resolved from the discovery cache),
// query/lookup_calls (directory round-trips, single + bulk),
// query/batch_calls (batched backend round-trips, fetch + forecast),
// query/forecast_hits (forecasts answered from the forecast cache),
// query/forecast_calls (forecasts that went to a forecaster) — and
// traces each batched request (lookup, fan-out, per-backend round-trip)
// as spans. Call before issuing traffic.
func (c *Client) SetTelemetry(r *telemetry.Registry) {
	c.tele = r
	c.tLookupHits = r.Counter("query", "lookup_hits", nil)
	c.tLookupCalls = r.Counter("query", "lookup_calls", nil)
	c.tBatchCalls = r.Counter("query", "batch_calls", nil)
	c.tForecastHits = r.Counter("query", "forecast_hits", nil)
	c.tForecastCalls = r.Counter("query", "forecast_calls", nil)
	c.tFailovers = r.Counter("replica", "failovers_total", nil)
}

// fanout is the working state of one batch: which backend each series
// is bound to, the series carved into one request per backend, and each
// backend's outcome. Records are recycled per client and keep their
// slices and their reply callback, so a warm batch allocates only its
// results. A record goes back only when every backend answered: a
// timed-out or failed-over request may still be in flight, or queued at
// its server, reading the Queries it borrowed from batch.
type fanout struct {
	c *Client
	// misses lists the series the discovery or forecast cache could
	// not answer, by request index.
	misses []int
	// binds lists the series bound to a backend, in binding order.
	binds []binding
	// groups holds one backend each, in the order the requests are sent
	// once sortGroups ran; rank maps a group's id to its sorted place.
	groups []backend
	rank   []int
	// idx and batch list the bound series carved per backend: backend w
	// asks for batch[lo:hi], answering results idx[lo:hi].
	idx   []int
	batch []proto.SeriesRequest
	calls []proto.Request

	// The batch being answered: exactly one of fetched and forecasts is
	// set, and tokens beside fetched when the caller reads window tokens.
	fetched   []Result
	tokens    []proto.WindowToken
	forecasts []ForecastResult
	// each is landed, built once per record.
	each func(w int, reply *proto.Message, err error)
}

// binding sends request i to backend groups[g].
type binding struct{ i, g int }

// backend is one batched round-trip: the host, the replica set it
// advertised (for failover), its series, and its outcome. id is its
// place in binding order.
type backend struct {
	host       string
	replicas   []string
	id, lo, hi int
	err        error
	span       *telemetry.ActiveSpan
}

// fanoutLocked takes a recycled record or builds one. c.mu must be held.
func (c *Client) fanoutLocked() *fanout {
	if n := len(c.fanouts); n > 0 {
		f := c.fanouts[n-1]
		c.fanouts[n-1] = nil
		c.fanouts = c.fanouts[:n-1]
		return f
	}
	f := &fanout{c: c}
	f.each = f.landed
	return f
}

// putFanout recycles f, cleared of every reference it took from its
// batch, unless a backend failed (see fanout).
func (c *Client) putFanout(f *fanout) {
	for _, g := range f.groups {
		if g.err != nil {
			return
		}
	}
	clear(f.groups)
	clear(f.batch)
	clear(f.calls)
	f.misses, f.binds, f.groups, f.rank = f.misses[:0], f.binds[:0], f.groups[:0], f.rank[:0]
	f.idx, f.batch, f.calls = f.idx[:0], f.batch[:0], f.calls[:0]
	f.fetched, f.tokens, f.forecasts = nil, nil, nil
	c.mu.Lock()
	c.fanouts = append(c.fanouts, f)
	c.mu.Unlock()
}

// bind sends request i to host, whose group keeps the replica set its
// last binding advertised.
func (f *fanout) bind(i int, host string, replicas []string) {
	g := len(f.groups) - 1
	for g >= 0 && f.groups[g].host != host {
		g--
	}
	if g < 0 {
		g = len(f.groups)
		f.groups = append(f.groups, backend{host: host, id: g})
	}
	if len(replicas) > 0 {
		f.groups[g].replicas = replicas
	}
	f.binds = append(f.binds, binding{i, g})
}

// sortGroups puts the groups in host order, the order their requests
// go out in, and repoints the bindings.
func (f *fanout) sortGroups() {
	slices.SortFunc(f.groups, func(a, b backend) int { return strings.Compare(a.host, b.host) })
	f.rank = slices.Grow(f.rank[:0], len(f.groups))[:len(f.groups)]
	for w, g := range f.groups {
		f.rank[g.id] = w
	}
	for k := range f.binds {
		f.binds[k].g = f.rank[f.binds[k].g]
	}
}

// carve lays the bound requests out per group, in binding order within
// a group, and drops the groups nothing is bound to.
func (f *fanout) carve(reqs []proto.SeriesRequest) {
	for _, b := range f.binds {
		f.groups[b.g].hi++
	}
	n := 0
	for w := range f.groups {
		g := &f.groups[w]
		g.lo, g.hi, n = n, n, n+g.hi
	}
	f.idx = slices.Grow(f.idx[:0], n)[:n]
	f.batch = slices.Grow(f.batch[:0], n)[:n]
	for _, b := range f.binds {
		g := &f.groups[b.g]
		f.idx[g.hi], f.batch[g.hi] = b.i, reqs[b.i]
		g.hi++
	}
	f.groups = slices.DeleteFunc(f.groups, func(g backend) bool { return g.lo == g.hi })
}

// scatter issues one batched request per group, all from the calling
// process under one shared deadline, and lands each group's outcome as
// it arrives. With telemetry it traces one "backend" child span per
// group, opened at the scatter and ended at that group's reply.
func (c *Client) scatter(root *telemetry.ActiveSpan, typ proto.MsgType, f *fanout) {
	f.calls = slices.Grow(f.calls, len(f.groups))
	for w := range f.groups {
		g := &f.groups[w]
		f.calls = append(f.calls, proto.Request{To: g.host, Msg: proto.Message{
			Type: typ, Version: proto.V3, Queries: f.batch[g.lo:g.hi:g.hi],
		}})
		if root != nil {
			g.span = root.Child("backend", telemetry.Attr{Key: "host", Value: g.host},
				telemetry.Attr{Key: "series", Value: strconv.Itoa(g.hi - g.lo)})
		}
	}
	c.tBatchCalls.Add(int64(len(f.groups)))
	c.port.CallMany(f.calls, DefaultTimeout, f.each)
}

// landed is a group's reply (or failure), handed to the batch it
// answers.
func (f *fanout) landed(w int, reply *proto.Message, err error) {
	g := &f.groups[w]
	g.span.End()
	g.err = err
	if f.fetched != nil {
		if err == nil {
			f.c.fetchAnswered(f.fetched, f.tokens, f.idx[g.lo:g.hi], reply, g.host, g.host, nil)
		}
		return
	}
	f.c.forecastAnswered(f.forecasts, f.idx[g.lo:g.hi], f.batch[g.lo:g.hi], reply, g.host, err)
}

// await joins an in-progress flight for key, or registers a new one and
// returns run=true: the caller must then execute the lookup and finish
// with c.land(key, err). c.mu must be held; it is released and retaken.
func (c *Client) await(key string) (run bool, err error) {
	if f, ok := c.flights[key]; ok {
		c.mu.Unlock()
		f.done.Recv() // closed by the leader
		c.mu.Lock()
		return false, f.err
	}
	c.flights[key] = &flight{done: c.rt.NewInbox("query:flight:" + key)}
	return true, nil
}

// land completes the flight for key, waking every waiter. c.mu must be
// held.
func (c *Client) land(key string, err error) {
	f := c.flights[key]
	delete(c.flights, key)
	f.err = err
	f.done.Close()
}

// batchDir is one batch's view of the directory. With bulk set the
// batch resolves with one listing of every series instead of per-name
// lookups. Once that listing came back (listed) or the directory failed
// (down), the cache alone decides the batch's remaining series: one it
// lacks is unknown, or fails with down. So a batch makes at most one
// listing, and a cold batch against a dead name server pays one lookup
// timeout, not one per series.
type batchDir struct {
	bulk, listed bool
	down         error
}

// resolve returns the directory registration owning series, through the
// TTL'd cache and lookup singleflight, and records what the batch
// learned from the directory in d.
func (c *Client) resolve(series string, d *batchDir) (proto.Registration, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.series[series]; ok && e.expires > c.rt.Now() {
		c.tLookupHits.Inc()
		return e.reg, nil
	}
	if d.down != nil {
		return proto.Registration{}, d.down
	}
	key := "name:" + series
	if d.bulk {
		if d.listed {
			return proto.Registration{}, fmt.Errorf("%w: %s", ErrSeriesUnknown, series)
		}
		key = "bulk"
	}
	run, err := c.await(key)
	if run {
		c.tLookupCalls.Inc()
		c.mu.Unlock()
		sp := c.tele.StartSpan("query", "lookup", telemetry.Attr{Key: "key", Value: key})
		if d.bulk {
			var regs []proto.Registration
			regs, err = c.ns.LookupKind("series", "")
			c.mu.Lock()
			exp := c.rt.Now() + c.ttl
			for _, r := range regs {
				c.series[r.Name] = regEntry{reg: r, expires: exp}
			}
		} else {
			var reg proto.Registration
			var found bool
			reg, found, err = c.ns.LookupName(series)
			c.mu.Lock()
			if found {
				c.series[series] = regEntry{reg: reg, expires: c.rt.Now() + c.ttl}
			}
		}
		sp.End()
		if err != nil {
			err = fmt.Errorf("%w: name server: %v", ErrBackendDown, err)
		}
		c.land(key, err)
	}
	// The flight landed, ours or one we joined: its answer is the
	// batch's.
	d.listed, d.down = d.bulk && err == nil, err
	if e, ok := c.series[series]; ok && e.expires > c.rt.Now() {
		return e.reg, nil
	}
	if err != nil {
		return proto.Registration{}, err
	}
	return proto.Registration{}, fmt.Errorf("%w: %s", ErrSeriesUnknown, series)
}

// dropBackend evicts every cached binding onto a failed backend host,
// so the next query re-resolves (a reconcile may have re-homed it).
func (c *Client) dropBackend(host string) {
	c.mu.Lock()
	for name, e := range c.series {
		if e.reg.Host == host {
			delete(c.series, name)
		}
	}
	c.mu.Unlock()
}

// FetchMany answers every requested series, batching into one
// round-trip per owning memory server, all of them in flight at once.
// Results keep the request order; failures are per-series (a dead
// backend fails only its series).
func (c *Client) FetchMany(reqs []proto.SeriesRequest) []Result {
	results, _ := c.fetch(reqs, false)
	return results
}

// FetchWindows is FetchMany for a caller that keeps windows: each
// request's Token names the window it holds for that Series and Count
// (proto.AskToken: none), and tokens[i] is the answering memory
// server's token for series i (zero when the series failed or was never
// written). tokens[i] equal to reqs[i].Token means the window held is
// still the one served, and results[i].Samples is empty.
func (c *Client) FetchWindows(reqs []proto.SeriesRequest) (results []Result, tokens []proto.WindowToken) {
	return c.fetch(reqs, true)
}

// fetch is FetchMany, and FetchWindows when windows is set.
func (c *Client) fetch(reqs []proto.SeriesRequest, windows bool) ([]Result, []proto.WindowToken) {
	var root *telemetry.ActiveSpan
	if c.tele != nil {
		root = c.tele.StartSpan("query", "fetch_many",
			telemetry.Attr{Key: "series", Value: strconv.Itoa(len(reqs))})
		defer root.End()
	}
	results := make([]Result, len(reqs))
	for i, q := range reqs {
		results[i].Series = q.Series
	}
	var tokens []proto.WindowToken
	if windows {
		tokens = make([]proto.WindowToken, len(reqs))
	}

	// Resolve owners and bind each series to its backend. The warm path
	// is one pass under one lock: every series fresh in the discovery
	// cache binds to its host without touching the singleflight
	// machinery. The replica set each owner advertised rides along, so a
	// failed backend can fail over without another cache pass.
	c.mu.Lock()
	f := c.fanoutLocked()
	f.binds = slices.Grow(f.binds, len(reqs))
	now := c.rt.Now()
	hits := 0
	for i, q := range reqs {
		e, ok := c.series[q.Series]
		if !ok || e.expires <= now {
			f.misses = append(f.misses, i)
			continue
		}
		hits++
		f.bind(i, e.reg.Host, e.reg.Replicas)
	}
	c.mu.Unlock()
	c.tLookupHits.Add(int64(hits))

	// A cold batch with more than a handful of unresolved series
	// amortizes discovery into one bulk directory round-trip; smaller
	// gaps stay on per-name lookups so a 2-series query never downloads
	// the whole series directory.
	d := batchDir{bulk: len(f.misses) > bulkThreshold}
	for _, i := range f.misses {
		reg, err := c.resolve(reqs[i].Series, &d)
		if err != nil {
			results[i].Err = err
			continue
		}
		f.bind(i, reg.Host, reg.Replicas)
	}
	f.sortGroups()
	f.carve(reqs)

	// One batched round-trip per backend, all in flight at once. A
	// backend that failed is retried against its replicas after the
	// gather.
	f.fetched, f.tokens = results, tokens
	c.scatter(root, proto.MsgBatchFetch, f)
	for w := range f.groups {
		g := &f.groups[w]
		if g.err == nil {
			continue
		}
		// The primary stopped answering: evict its cached bindings and
		// retry the whole batch against its advertised replica set
		// before giving up. A replica that answers serves the same
		// windows (marked Replica on the wire, with its apply lag), so
		// the batch survives the crash without waiting for the
		// directory TTL or a reconcile round.
		c.dropBackend(g.host)
		idxs := f.idx[g.lo:g.hi]
		reply, from, ferr := c.failoverFetch(root, g.replicas, f.batch[g.lo:g.hi:g.hi])
		if ferr != nil {
			for _, i := range idxs {
				results[i].Err = fmt.Errorf("%w: memory %s: %v", ErrBackendDown, g.host, g.err)
			}
			continue
		}
		c.fetchAnswered(results, tokens, idxs, &reply, g.host, from, g.replicas)
	}
	c.putFanout(f)
	return results, tokens
}

// fetchAnswered fills the results (and the tokens, when kept) at idxs
// from a batch reply that from served for the primary host; a replica's
// answer re-homes the series it served onto from.
func (c *Client) fetchAnswered(results []Result, tokens []proto.WindowToken, idxs []int, reply *proto.Message, host, from string, replicas []string) {
	var served []string
	for k, i := range idxs {
		if k >= len(reply.Results) {
			results[i].Err = fmt.Errorf("%w: memory %s: short batch reply", ErrBackendDown, from)
			continue
		}
		r := reply.Results[k]
		if r.Error != "" {
			results[i].Err = fmt.Errorf("%w: memory %s: %s", ErrBackendDown, from, r.Error)
			continue
		}
		results[i].Samples = r.Samples
		if tokens != nil && k < len(reply.ResultTokens) {
			tokens[i] = reply.ResultTokens[k]
		}
		if r.Replica && r.Lag > 0 {
			// Served from a lagging replica: the samples stand, the
			// error reports how far behind the window may be.
			results[i].Err = &DegradedError{Lag: r.Lag, Msg: "memory " + from}
		}
		if from != host {
			served = append(served, results[i].Series)
		}
	}
	if from != host {
		c.rebind(served, from, replicas, host)
	}
}

// failoverFetch retries a fetch batch against a failed primary's
// replicas in placement order; the first one answering wins and counts
// on replica/failovers_total. Returns the reply and the answering host.
func (c *Client) failoverFetch(root *telemetry.ActiveSpan, replicas []string, batch []proto.SeriesRequest) (proto.Message, string, error) {
	for _, rh := range replicas {
		if rh == "" {
			continue
		}
		var bsp *telemetry.ActiveSpan
		if root != nil {
			bsp = root.Child("failover", telemetry.Attr{Key: "host", Value: rh})
		}
		reply, err := c.port.Call(rh, proto.Message{
			Type: proto.MsgBatchFetch, Version: proto.V3, Queries: batch,
		}, DefaultTimeout)
		bsp.End()
		if err != nil {
			continue
		}
		c.tFailovers.Inc()
		return reply, rh, nil
	}
	return proto.Message{}, "", fmt.Errorf("no replica answered (%d tried)", len(replicas))
}

// rebind re-homes successfully failed-over series onto the replica that
// answered, so follow-up queries go straight there instead of timing
// out against the dead primary once per cache miss until the directory
// catches up. The surviving replicas (minus the dead primary and the
// new owner) stay attached for a second-hop failover.
func (c *Client) rebind(series []string, to string, replicas []string, dead string) {
	if len(series) == 0 {
		return
	}
	var rest []string
	for _, r := range replicas {
		if r != to && r != dead {
			rest = append(rest, r)
		}
	}
	c.mu.Lock()
	exp := c.rt.Now() + c.ttl
	for _, name := range series {
		c.series[name] = regEntry{
			reg:     proto.Registration{Name: name, Kind: "series", Host: to, Replicas: rest},
			expires: exp,
		}
	}
	c.mu.Unlock()
}

// ForecastMany predicts every requested series: cache hits answer
// locally, the misses shard across the registered forecasters (stable
// by series hash) with one round-trip per forecaster.
func (c *Client) ForecastMany(reqs []proto.SeriesRequest) []ForecastResult {
	var root *telemetry.ActiveSpan
	if c.tele != nil {
		root = c.tele.StartSpan("query", "forecast_many",
			telemetry.Attr{Key: "series", Value: strconv.Itoa(len(reqs))})
		defer root.End()
	}
	results := make([]ForecastResult, len(reqs))
	now := c.rt.Now()
	hits := 0
	c.mu.Lock()
	f := c.fanoutLocked()
	for i, q := range reqs {
		results[i].Series = q.Series
		if e, ok := c.forecasts[fcKey{q.Series, q.Count}]; ok && e.expires > now {
			results[i].Prediction = e.pred
			hits++
			continue
		}
		f.misses = append(f.misses, i)
	}
	c.mu.Unlock()
	c.tForecastHits.Add(int64(hits))
	if len(f.misses) == 0 {
		c.putFanout(f)
		return results
	}

	fcs, err := c.forecasterList()
	if err != nil {
		for _, i := range f.misses {
			results[i].Err = err
		}
		c.putFanout(f)
		return results
	}

	// Stable sharding: a series always goes to the same forecaster (the
	// list is sorted), so its history stays warm there.
	for _, r := range fcs {
		f.groups = append(f.groups, backend{host: r.Host})
	}
	for _, i := range f.misses {
		f.binds = append(f.binds, binding{i, shardOf(reqs[i].Series, len(fcs))})
	}
	f.carve(reqs)
	c.tForecastCalls.Add(int64(len(f.misses)))

	f.forecasts = results
	c.scatter(root, proto.MsgBatchForecast, f)
	c.putFanout(f)
	return results
}

// forecastAnswered fills the results at idxs (asked for as batch) from
// host's batch reply, or fails them with err, dropping host from the
// forecaster list.
func (c *Client) forecastAnswered(results []ForecastResult, idxs []int, batch []proto.SeriesRequest, reply *proto.Message, host string, err error) {
	if err != nil {
		c.dropForecaster(host)
		for _, i := range idxs {
			results[i].Err = fmt.Errorf("%w: forecaster %s: %v", ErrBackendDown, host, err)
		}
		return
	}
	exp := c.rt.Now() + c.forecastTTL
	for k, i := range idxs {
		if k >= len(reply.Forecasts) {
			results[i].Err = fmt.Errorf("%w: forecaster %s: short batch reply", ErrBackendDown, host)
			continue
		}
		f := reply.Forecasts[k]
		if f.Error != "" {
			// A failure has no prediction. A degraded one, computed from
			// a lagging replica's history, stands with its advisory, as on
			// FetchMany, but is not cached: the next probe should see
			// fresh degradation state, not a TTL'd echo of this one.
			if results[i].Err = DecodeOutcome("forecaster "+host, f.Error, f.Code, f.Lag); f.Code != proto.CodeDegraded {
				continue
			}
		}
		results[i].Prediction = predict.Prediction{
			Value: f.Value, MAE: f.MAE, MSE: f.MSE, Method: f.Method, N: f.Count,
		}
		if results[i].Err == nil && c.forecastTTL > 0 {
			c.mu.Lock()
			c.storeForecast(fcKey{batch[k].Series, batch[k].Count}, fcEntry{pred: results[i].Prediction, expires: exp})
			c.mu.Unlock()
		}
	}
}

// forecasterList returns the registered forecasters (sorted by name),
// through the TTL'd cache and singleflight.
func (c *Client) forecasterList() ([]proto.Registration, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.forecasters) > 0 && c.fcExpires > c.rt.Now() {
		return c.forecasters, nil
	}
	run, ferr := c.await("kind:forecaster")
	if !run {
		if len(c.forecasters) > 0 && c.fcExpires > c.rt.Now() {
			return c.forecasters, nil
		}
		if ferr != nil {
			return nil, ferr
		}
		return nil, fmt.Errorf("%w: no forecaster registered", ErrBackendDown)
	}
	c.tLookupCalls.Inc()
	c.mu.Unlock()
	regs, err := c.ns.LookupKind("forecaster", "")
	c.mu.Lock()
	if err != nil {
		err = fmt.Errorf("%w: name server: %v", ErrBackendDown, err)
	} else if len(regs) == 0 {
		err = fmt.Errorf("%w: no forecaster registered", ErrBackendDown)
	} else {
		c.forecasters = regs
		c.fcExpires = c.rt.Now() + c.ttl
	}
	c.land("kind:forecaster", err)
	if err != nil {
		return nil, err
	}
	return c.forecasters, nil
}

// dropForecaster removes one failed forecaster from the cached list, so
// the next batch shards across the survivors instead of re-fetching the
// same directory listing (which would still contain the stale entry
// until its TTL lapses). An emptied list forces a fresh lookup. The
// replacement is a fresh slice: forecasterList's callers hold the old
// backing array outside the lock.
func (c *Client) dropForecaster(host string) {
	c.mu.Lock()
	var kept []proto.Registration
	for _, r := range c.forecasters {
		if r.Host != host {
			kept = append(kept, r)
		}
	}
	c.forecasters = kept
	if len(c.forecasters) == 0 {
		c.fcExpires = 0
	}
	c.mu.Unlock()
}

// EncodeOutcome writes a series' error in its wire form (the Error,
// Code, Replica and Lag of a proto.SeriesResult or ForecastResult): its
// message, its proto.Code* class ("" when it has none), and for a
// degraded answer the replica flag and lag. A nil error is all zeros.
func EncodeOutcome(err error) (msg, code string, replica bool, lag int64) {
	if err == nil {
		return "", "", false, 0
	}
	var de *DegradedError
	if errors.As(err, &de) {
		replica, lag = true, de.Lag
	}
	switch {
	case errors.Is(err, ErrSeriesUnknown):
		code = proto.CodeUnknownSeries
	case errors.Is(err, ErrBackendDown):
		code = proto.CodeBackendDown
	case errors.Is(err, ErrDegraded):
		code = proto.CodeDegraded
	case errors.Is(err, ErrOverloaded):
		code = proto.CodeOverloaded
	}
	return err.Error(), code, replica, lag
}

// DecodeOutcome is EncodeOutcome's inverse: the structured error a wire
// outcome stands for (nil when msg is empty), so errors.Is and errors.As
// work across the wire without anyone sniffing message text. from names
// the hop it came back through ("forecaster fc", "via gateway"). A
// degraded outcome keeps its lag, and from is its provenance.
func DecodeOutcome(from, msg, code string, lag int64) error {
	switch {
	case msg == "":
		return nil
	case code == proto.CodeUnknownSeries:
		return fmt.Errorf("%w: %s: %s", ErrSeriesUnknown, from, msg)
	case code == proto.CodeBackendDown:
		return fmt.Errorf("%w: %s: %s", ErrBackendDown, from, msg)
	case code == proto.CodeDegraded:
		return &DegradedError{Lag: lag, Msg: from}
	case code == proto.CodeOverloaded:
		return &OverloadedError{Msg: from + ": " + msg}
	}
	return errors.New("query: " + from + ": " + msg)
}

// storeForecast inserts a cache entry, sweeping expired entries (and,
// as a last resort, resetting the map) when the cap is reached so the
// cache stays bounded over a long-lived client. c.mu must be held.
func (c *Client) storeForecast(key fcKey, e fcEntry) {
	if len(c.forecasts) >= maxForecastEntries {
		now := c.rt.Now()
		for k, v := range c.forecasts {
			if v.expires <= now {
				delete(c.forecasts, k)
			}
		}
		if len(c.forecasts) >= maxForecastEntries {
			c.forecasts = map[fcKey]fcEntry{}
		}
	}
	c.forecasts[key] = e
}

// fcKey keys the forecast cache: a series and the history length asked.
type fcKey struct {
	series string
	count  int
}

// shardOf is the series' forecaster: its 32-bit FNV-1a hash modulo n.
func shardOf(series string, n int) int {
	h := uint32(2166136261)
	for i := 0; i < len(series); i++ {
		h ^= uint32(series[i])
		h *= 16777619
	}
	return int(h % uint32(n))
}
