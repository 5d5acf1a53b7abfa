package forecast

import (
	"errors"
	"fmt"
	"time"

	"nwsenv/internal/nws/nameserver"
	"nwsenv/internal/nws/predict"
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
// bulk cold-batch discovery, negative caching, eviction of failed
// backends, and one batched fetch per owning memory server, instead of
// maintaining a parallel series→owner cache.
//
// Step 4 is remembered. The answer to a forecast is predict.Run over the
// window just fetched, a pure function of that window's values, so the
// server keeps, per series, the values it last replayed and the clean
// result they gave. A request still fetches its window; when the fetched
// window is bit-equal to the remembered one (same length, every Value
// equal by math.Float64bits) the remembered result is the answer and the
// battery is not replayed. Anything else — a new sample, a different
// Count, a series re-created shorter after a memory-server restart —
// fails the comparison and replays. The memo is therefore never stale;
// it trades memory for CPU, where the gateway's TTL'd forecast cache
// trades staleness for a round trip, and the two do not stand in for
// each other. Only clean predictions are remembered: the per-request
// degraded overlay (Replica, Lag, Code, Error) is applied after the
// memo, and empty, insufficient-history and backend-error results are
// never stored.
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
func (s *Server) handleBatchForecast(req proto.Message) {
	if req.Version > proto.V3 {
		s.st.ReplyError(req, "forecaster: unsupported protocol version %d (max %d)", req.Version, proto.V3)
		return
	}
	fetches := make([]proto.SeriesRequest, len(req.Queries))
	for i, q := range req.Queries {
		fetches[i] = proto.SeriesRequest{Series: q.Series, Count: s.boundedCount(q.Count)}
	}
	results := make([]proto.ForecastResult, len(req.Queries))
	for i, fr := range s.qc.FetchMany(fetches) {
		if fr.Err != nil && !errors.Is(fr.Err, query.ErrDegraded) {
			results[i] = proto.ForecastResult{
				Series: fr.Series, Error: fr.Err.Error(), Code: query.ErrCode(fr.Err),
			}
			continue
		}
		results[i] = s.memo.forecast(fr.Series, fr.Samples)
		// A prediction computed from a degraded (replica-served, lagging)
		// history keeps the staleness advisory: the lag watermark rides
		// the result exactly as it does on the fetch path, so gateway
		// clients can rehydrate query.DegradedError end to end.
		var de *query.DegradedError
		if results[i].Error == "" && errors.As(fr.Err, &de) {
			results[i].Replica, results[i].Lag = true, de.Lag
			results[i].Error = fr.Err.Error()
			results[i].Code = proto.CodeDegraded
		}
	}
	s.memo.entriesG.Set(float64(len(s.memo.entries)))
	s.memo.samplesG.Set(float64(s.memo.samples))
	s.st.Reply(req, proto.Message{Type: proto.MsgBatchForecastReply, Version: proto.V3, Forecasts: results})
}

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

// Forecast asks for the next value of series, optionally bounding the
// history length used. Over the wire Prediction.N is that history length
// (the reply's Count), not the best member's scored-sample count that an
// in-process predict.Run reports.
func (c *Client) Forecast(series string, history int) (predict.Prediction, error) {
	res, err := c.BatchForecast([]proto.SeriesRequest{{Series: series, Count: history}})
	if err != nil {
		return predict.Prediction{}, err
	}
	if len(res) != 1 {
		return predict.Prediction{}, fmt.Errorf("forecaster: %d results for a batch of one", len(res))
	}
	f := res[0]
	// A degraded result still carries its prediction (made from a lagging
	// replica's history); any other per-series failure fails the call.
	if f.Error != "" && f.Code != proto.CodeDegraded {
		return predict.Prediction{}, fmt.Errorf("forecaster: %s", f.Error)
	}
	return predict.Prediction{Value: f.Value, MAE: f.MAE, MSE: f.MSE, Method: f.Method, N: f.Count}, nil
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
