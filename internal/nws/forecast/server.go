package forecast

import (
	"errors"
	"time"

	"nwsenv/internal/nws/nameserver"
	"nwsenv/internal/nws/proto"
	"nwsenv/internal/query"
	"nwsenv/internal/telemetry"
)

// Server is a running NWS forecaster. Each request follows the four-step
// flow of §2.1: the client asks the forecaster (1), the forecaster asks
// the name server which memory server holds the series (2), fetches its
// history (3), and replies with the battery's prediction (4). Requests
// are batches: many series (or one) answered in one round-trip.
//
// Steps 2 and 3 go through an embedded query.Client — the same unified
// resolution plane every other consumer of the deployment uses — so the
// forecaster inherits its TTL'd discovery cache, lookup singleflight,
// bulk cold-batch discovery, eviction of failed backends, and one
// batched fetch per owning memory server, instead of maintaining a
// parallel series→owner cache.
//
// Step 4 is remembered, and step 3 moves only windows that changed. The
// answer to a forecast is predict.Run over the series' current window,
// a pure function of that window's values, so the server keeps, per
// series, the values it last replayed, the clean result they gave, and
// the memory server's token for that window (proto.WindowToken: the
// stamp of its last write) with the Count it was fetched at. Every fetch carries the remembered token when the
// Count matches, proto.AskToken otherwise. A memory server whose window
// is still the one the token names answers "unchanged" with no samples,
// and the remembered result is the answer: no window crosses the wire,
// nothing is decoded or compared, the battery is not replayed. Any
// other answer is a full window with its new token; when it is bit-equal
// to the remembered one (same length, every Value equal by
// math.Float64bits) the remembered result still stands, and anything
// else — a new sample, a different Count, a series re-created shorter
// after a memory-server restart — replays. Every write to a window
// draws a stamp no other write of any server ever had, so a token
// matches only the window it was issued for, on the server that issued
// it: a new sample, a restart, a failover to a replica or a restore
// from disk answers with a full window, and the memo is never stale. It trades memory for CPU and bytes, where the gateway's TTL'd
// forecast cache trades staleness for a round trip, and the two do not
// stand in for each other. Only clean predictions are remembered: the
// per-request degraded overlay (Replica, Lag, Code, Error), which rides
// an unchanged answer too, is applied after the memo, and empty,
// insufficient-history and backend-error results are never stored.
//
// The memo is owned by the server loop (Run answers one request at a
// time on either runtime), so it takes no lock. It is bounded by
// maxMemoSamples retained values — samples rather than entries, because
// a request may ask for any Count up to the memory server's retention —
// and evicts one victim at a time, picked from a dense slice by a
// fixed-seed xorshift: no map-iteration order and no global rand, so
// hit, miss and eviction counts repeat exactly under the virtual clock,
// and a cyclic scan just over the bound loses a fraction of its hits
// instead of all of them, as LRU or a reset-on-full would.
type Server struct {
	st      proto.Port
	ns      *nameserver.Client
	qc      *query.Client
	history int
	memo    memo
}

// NewServer creates a forecaster on st using the given directory client.
// history bounds how many samples are fetched per forecast (<=0: 256).
func NewServer(st proto.Port, ns *nameserver.Client, history int) *Server {
	if history <= 0 {
		history = 256
	}
	return &Server{
		st: st, ns: ns, qc: query.New(st, ns.NSHost), history: history,
		memo: memo{index: map[string]int{}, max: maxMemoSamples, rng: 0x9E3779B97F4A7C15},
	}
}

// Name returns the forecaster's directory name.
func (s *Server) Name() string { return "forecaster." + s.st.Host() }

// SetTelemetry instruments the forecaster against r: its embedded query
// client's cache hit/miss, lookup and, with replication on, failover
// counters ride the same registry as every other role's, and the
// forecast memo reports forecast/memo_hits, memo_misses and
// memo_evictions (counters) and memo_entries, memo_samples (gauges),
// written by the server loop as it answers. Call before Run; a nil
// registry leaves the forecaster uninstrumented.
func (s *Server) SetTelemetry(r *telemetry.Registry) {
	s.qc.SetTelemetry(r)
	s.memo.hits = r.Counter("forecast", "memo_hits", nil)
	s.memo.misses = r.Counter("forecast", "memo_misses", nil)
	s.memo.evictions = r.Counter("forecast", "memo_evictions", nil)
	s.memo.entriesG = r.Gauge("forecast", "memo_entries", nil)
	s.memo.samplesG = r.Gauge("forecast", "memo_samples", nil)
}

// Run serves forecast requests until the station closes. The directory
// registration is kept fresh so query-plane discovery (LookupKind
// "forecaster") outlives the directory TTL.
func (s *Server) Run() {
	reg := proto.Registration{Name: s.Name(), Kind: "forecaster", Host: s.st.Host()}
	s.ns.Register(reg)
	s.st.Runtime().Go("forecaster-refresh:"+s.st.Host(), func() { s.ns.KeepRegistered(reg, nil) })
	for {
		req, ok := s.st.Recv()
		if !ok {
			return
		}
		switch req.Type {
		case proto.MsgBatchForecast:
			s.handleBatchForecast(req)
		case proto.MsgPing:
			s.st.Reply(req, proto.Message{Type: proto.MsgPong})
		default:
			s.st.ReplyError(req, "forecaster: unexpected %v", req.Type)
		}
	}
}

// boundedCount applies the server's default history to a request that
// names none. A larger Count is not clamped here: it is honoured up to
// the owning memory server's retention.
func (s *Server) boundedCount(n int) int {
	if n <= 0 {
		return s.history
	}
	return n
}

// handleBatchForecast answers a batch: one FetchMany through the
// query plane resolves every series (bulk directory discovery on a cold
// cache, a directory outage failing the unresolved remainder at once)
// and groups the history fetches into one batched round-trip per owning
// memory server. Per-series failures (unknown, backend down, empty,
// insufficient history) are inline in the results; only a
// protocol-level problem fails the whole batch.
func (s *Server) handleBatchForecast(req *proto.Message) {
	if req.Version > proto.V3 {
		s.st.ReplyError(req, "forecaster: unsupported protocol version %d (max %d)", req.Version, proto.V3)
		return
	}
	fetches := make([]proto.SeriesRequest, len(req.Queries))
	for i, q := range req.Queries {
		n := s.boundedCount(q.Count)
		fetches[i] = proto.SeriesRequest{Series: q.Series, Count: n, Token: s.memo.token(q.Series, n)}
	}
	results := make([]proto.ForecastResult, len(req.Queries))
	fetched, tokens := s.qc.FetchWindows(fetches)
	// Unchanged windows first: they read the entries their tokens came
	// from, which a replay below may evict.
	for i, fr := range fetched {
		results[i].Series = fr.Series
		if !failed(fr.Err) && tokens[i] == fetches[i].Token {
			var ok bool
			if results[i], ok = s.memo.held(fr.Series, fetches[i].Count, tokens[i]); !ok {
				results[i] = proto.ForecastResult{Series: fr.Series, Error: "forecaster: no window held for " + fr.Series}
			}
		}
	}
	for i, fr := range fetched {
		if !failed(fr.Err) && tokens[i] != fetches[i].Token {
			results[i] = s.memo.forecast(fr.Series, fetches[i].Count, tokens[i], fr.Samples)
		}
		// A failed fetch is the series' outcome. A prediction from a
		// degraded (replica-served, lagging) history keeps the staleness
		// advisory, lag watermark included, as on the fetch path.
		if results[i].Error == "" {
			results[i].Error, results[i].Code, results[i].Replica, results[i].Lag = query.EncodeOutcome(fr.Err)
		}
	}
	s.memo.entriesG.Set(float64(len(s.memo.entries)))
	s.memo.samplesG.Set(float64(s.memo.samples))
	s.st.Reply(req, proto.Message{Type: proto.MsgBatchForecastReply, Version: proto.V3, Forecasts: results})
}

// failed reports whether a fetch error leaves no window to forecast
// from: anything but a degraded (replica-served) answer.
func failed(err error) bool { return err != nil && !errors.Is(err, query.ErrDegraded) }

// Client requests forecasts from a forecaster server.
type Client struct {
	St      proto.Port
	Host    string
	Timeout time.Duration
}

// NewClient returns a client for the forecaster on host.
func NewClient(st proto.Port, host string) *Client {
	return &Client{St: st, Host: host, Timeout: 10 * time.Second}
}

// BatchForecast asks for many series in one round-trip. Results keep
// the request order; per-series failures are inline.
func (c *Client) BatchForecast(reqs []proto.SeriesRequest) ([]proto.ForecastResult, error) {
	reply, err := c.St.Call(c.Host, proto.Message{Type: proto.MsgBatchForecast, Version: proto.V3, Queries: reqs}, c.Timeout)
	if err != nil {
		return nil, err
	}
	return reply.Forecasts, nil
}
