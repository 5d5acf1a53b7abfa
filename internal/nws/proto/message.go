// Package proto defines the NWS wire protocol: the message vocabulary
// exchanged between sensors, memory servers, forecasters and the name
// server (§2.1), a request/reply station with correlation and timeouts,
// and two interchangeable transports — a simulated one running on the
// simnet/vclock substrate and a real TCP transport over loopback
// sockets. Both speak one encoding, the binary codec in codec.go: TCP
// writes its frames, the simulator charges their exact length.
package proto

import (
	"math"
	"time"
)

// MsgType enumerates protocol messages.
type MsgType int

const (
	// Directory (name server).
	MsgRegister MsgType = iota + 1
	MsgRegisterAck
	MsgUnregister
	MsgLookup
	MsgLookupReply

	// Time-series storage (memory server).
	MsgStore
	MsgStoreAck

	// Clique token-ring protocol.
	MsgToken
	MsgTokenAck
	MsgElection
	MsgElectionOK
	MsgCoordinator

	// Pairwise measurement scheduling (the §6 relaxation of cliques).
	MsgProbeCmd
	MsgProbeDone

	// Liveness.
	MsgPing
	MsgPong

	// Query plane. Batch messages answer many series in one round-trip
	// (memory server, forecaster); Query* are the gateway's
	// client-facing forms.
	MsgBatchFetch
	MsgBatchFetchReply
	MsgBatchForecast
	MsgBatchForecastReply
	MsgQueryFetch
	MsgQueryFetchReply
	MsgQueryForecast
	MsgQueryForecastReply

	// Bulk directory refresh: one round-trip re-registers every entry a
	// host owns (Regs carries the batch; the ack is MsgRegisterAck).
	MsgRegisterBulk

	// Replication plane. ReplStore appends fan-out samples on a
	// replica (Total carries the primary's cumulative per-series count,
	// so the replica can compute its lag watermark), or, merged, several
	// stores at once, one per Results entry with its total in Lag;
	// ReplWindow replaces
	// a replica's retained window wholesale (anti-entropy backfill);
	// ReplSync asks a survivor for every series owned by a dead primary
	// (ReplSyncReply answers with Results, reusing SeriesResult.Lag as
	// the sender's cumulative total); ReplRepair tells a new primary to
	// adopt a dead primary's series from a survivor (the Reg bag names
	// the dead primary, the survivor node and the new replica set);
	// ReplAck is the generic replication ack.
	MsgReplStore
	MsgReplWindow
	MsgReplSync
	MsgReplSyncReply
	MsgReplRepair
	MsgReplAck
)

var msgNames = map[MsgType]string{
	MsgRegister: "Register", MsgRegisterAck: "RegisterAck",
	MsgUnregister: "Unregister",
	MsgLookup:     "Lookup", MsgLookupReply: "LookupReply",
	MsgStore: "Store", MsgStoreAck: "StoreAck",
	MsgToken: "Token", MsgTokenAck: "TokenAck",
	MsgElection: "Election", MsgElectionOK: "ElectionOK",
	MsgCoordinator: "Coordinator",
	MsgProbeCmd:    "ProbeCmd", MsgProbeDone: "ProbeDone",
	MsgPing: "Ping", MsgPong: "Pong",
	MsgBatchFetch: "BatchFetch", MsgBatchFetchReply: "BatchFetchReply",
	MsgBatchForecast: "BatchForecast", MsgBatchForecastReply: "BatchForecastReply",
	MsgQueryFetch: "QueryFetch", MsgQueryFetchReply: "QueryFetchReply",
	MsgQueryForecast: "QueryForecast", MsgQueryForecastReply: "QueryForecastReply",
	MsgRegisterBulk: "RegisterBulk",
	MsgReplStore:    "ReplStore", MsgReplWindow: "ReplWindow",
	MsgReplSync: "ReplSync", MsgReplSyncReply: "ReplSyncReply",
	MsgReplRepair: "ReplRepair", MsgReplAck: "ReplAck",
}

func (t MsgType) String() string {
	if s, ok := msgNames[t]; ok {
		return s
	}
	return "MsgType(?)"
}

// Registration describes a directory entry in the name server.
type Registration struct {
	Name    string        // unique object name, e.g. "memory.host3" or a series name
	Kind    string        // "sensor", "memory", "forecaster", "nameserver", "series", "clique"
	Host    string        // host running the object (for series: the memory server's host)
	Owner   string        // for series: the memory server name storing it
	TTL     time.Duration // registration lifetime; refreshed by re-registering
	Expires time.Duration // absolute virtual expiry (set by the name server)
	// Replicas lists replica hosts holding a copy of this series (node
	// IDs, primary excluded), so query clients learn the failover set
	// from the directory entry itself.
	Replicas []string
}

// Sample is one time-series measurement.
type Sample struct {
	At    time.Duration // virtual timestamp
	Value float64
}

// V3 is the protocol version: the byte the TCP handshake exchanges and
// the highest Message.Version a server accepts. There is no other.
const V3 = 3

// Per-series error codes carried inside batch results, so structured
// errors survive serialization without clients sniffing message text.
const (
	// CodeUnknownSeries: the directory has no entry for the series.
	CodeUnknownSeries = "unknown_series"
	// CodeBackendDown: a backend behind the answering server (name
	// server, memory server) did not answer.
	CodeBackendDown = "backend_down"
	// CodeDegraded: the answer was served by a lagging replica after the
	// primary failed; samples are present but may trail the primary by
	// the lag watermark carried alongside.
	CodeDegraded = "degraded"
	// CodeOverloaded: the answering server shed the whole request because
	// its admission queue crossed the shed threshold. Carried on the
	// message itself (Message.Code) rather than per series; RetryAfter
	// holds the server's backoff hint. Clients should retry against
	// another replica before surfacing the error.
	CodeOverloaded = "overloaded"
)

// SeriesRequest names one series inside a batch query. Count bounds the
// samples returned (<= 0: the full retained window). Token is the
// window the requester already holds for this Series and Count: a
// memory server still holding that window answers "unchanged" with no
// samples. The zero token asks for today's answer, untokened; AskToken
// asks for a token without claiming a window.
type SeriesRequest struct {
	Series string
	Count  int
	Token  WindowToken
}

// WindowToken names one state of one series' window on one memory
// server: the stamp of the last write to it. Stamps come from one
// process-wide counter that starts at a random point and is drawn on
// every write to any window of any server, a restore's included, so a
// stamp names one write: equal tokens name equal windows (for equal
// Counts), and a token from another server, or from before a restart
// or a restore, never matches. Eight bytes keep SeriesRequest within
// four words, which the compiler keeps in registers.
type WindowToken uint64

// AskToken is the token a request carries for a window it does not
// hold: it asks the memory server to stamp its answer, and no write is
// ever stamped with it (nor with the zero token).
const AskToken WindowToken = math.MaxUint64

// SeriesResult is one series' answer inside a batch fetch reply. Error
// is non-empty when this series (and only this series) failed; Code
// classifies the failure (one of the Code* constants, or "" for other
// failures).
type SeriesResult struct {
	Series  string
	Samples []Sample
	Error   string
	Code    string
	// Replica marks an answer served by a replica rather than the
	// series' primary; Lag is the replica's watermark at answer time
	// (samples the primary had accepted that the replica had not). In a
	// ReplSyncReply, Lag is reused as the sender's cumulative total for
	// the series, and in a merged ReplStore as the store's total.
	Replica bool
	Lag     int64
}

// ForecastResult is one series' answer inside a batch forecast reply.
type ForecastResult struct {
	Series string
	Value  float64
	MAE    float64
	MSE    float64
	Method string
	Count  int    // history samples the prediction used
	Error  string // non-empty when this series failed
	Code   string // failure classification (Code* constants, or "")
	// Replica marks a prediction computed from a history served by a
	// replica rather than the series' primary; Lag is that replica's
	// watermark at fetch time — the same degraded-staleness advisory
	// SeriesResult carries on the fetch path, so forecast consumers can
	// rehydrate query.DegradedError with its lag intact.
	Replica bool
	Lag     int64
}

// Message is the one wire message of every type: a flat struct whose
// unused fields stay zero, so a trace shows every message the same way.
// The codec writes the fields in declaration order, so a field added
// here needs a line in each of AppendEncode, EncodedSize and Decode
// (TestCodecCoversEveryField fails until it has all three). The window
// tokens (SeriesRequest.Token, ResultTokens) are the exception: they
// ride a trailing section written only when one of them is non-zero
// (see codec.go).
type Message struct {
	Type    MsgType
	Version int    // protocol version the sender stamped (0 = unstamped); servers reject > V3
	From    string // sending host
	ID      int64  // request correlation id (unique per sender)
	ReplyTo int64  // id of the request this message answers (0 = not a reply)
	Error   string // non-empty on failure replies

	// Directory fields.
	Reg  Registration
	Kind string // lookup filter
	Name string // lookup filter / unregister target
	Regs []Registration

	// Series fields.
	Series  string
	Samples []Sample
	Count   int

	// Batch query-plane fields. ResultTokens is nil, or one window token
	// per Results element: a memory server's answer to a batch fetch
	// that carried tokens. A result whose token equals its request's is
	// "unchanged": its Samples is empty and the requester's window
	// stands. The tokens sit beside Results rather than in them because
	// every reply allocates its Results, and only the forecaster's
	// fetches carry tokens.
	Queries      []SeriesRequest
	Results      []SeriesResult
	ResultTokens []WindowToken
	Forecasts    []ForecastResult

	// Clique fields.
	Clique   string
	TokenSeq int64
	Epoch    int64 // election epoch

	// Replication fields. Total is the sender's cumulative per-series
	// sample count: on ReplStore the replica derives its lag watermark
	// from it, on ReplWindow it becomes the replica's applied count, and
	// on a ReplRepair ack it reports samples backfilled.
	Total int64

	// Backpressure fields. Code classifies a whole-message error reply
	// (the Code* constants — today only CodeOverloaded travels here;
	// per-series failures keep their result-level codes), and RetryAfter
	// is the shedding server's backoff hint. Clients use the pair to
	// retry against another replica instead of sniffing Error text.
	Code       string
	RetryAfter time.Duration
}

// WireSize is the byte cost the simulated transport charges for a
// message: its exact encoded frame length (codec payload plus the
// 4-byte length prefix), the same bytes the TCP transport writes.
func (m *Message) WireSize() int64 {
	return int64(EncodedSize(m)) + frameHeaderSize
}
