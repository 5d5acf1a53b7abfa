package replica

import (
	"sync"
	"time"

	"nwsenv/internal/nws/proto"
)

// DefaultWindow bounds the stores in flight per replica. A slow or
// partitioned replica sheds writes instead of queuing without bound;
// its lag watermark surfaces the gap and anti-entropy repair closes it.
const DefaultWindow = 128

// DefaultTimeout bounds one fan-out delivery call.
const DefaultTimeout = 10 * time.Second

// Fanout replicates accepted stores to a fixed replica set
// asynchronously: the primary's store path enqueues and returns, and
// one sender process per replica drains a bounded in-flight window in
// arrival order. Once every store of the current virtual instant has
// queued, and after each round trip, the sender ships everything queued
// in one frame (group commit): consecutive stores travel as one
// ReplStore whose Results hold one entry per store, up to frame samples
// (a lone store is a frame of one entry); a window always travels
// alone. Delivery is at-most-once — a shed or failed frame is
// not retried; the replica's lag watermark records the gap.
type Fanout struct {
	port    proto.Port
	met     Metrics
	window  int
	frame   int
	timeout time.Duration

	mu     sync.Mutex
	queues map[string]*sendQueue
	closed bool
}

type sendQueue struct {
	inbox    proto.Inbox
	inflight int // stores (and windows) queued or in a frame on the wire
}

// NewFanout starts one sender process per replica host on port's
// runtime. frame caps the samples one merged frame carries (a store
// larger than it travels alone).
func NewFanout(port proto.Port, replicas []string, frame int, met Metrics) *Fanout {
	f := &Fanout{
		port:    port,
		met:     met,
		window:  DefaultWindow,
		frame:   frame,
		timeout: DefaultTimeout,
		queues:  make(map[string]*sendQueue, len(replicas)),
	}
	rt := port.Runtime()
	for _, host := range replicas {
		if host == port.Host() {
			continue // never replicate to self
		}
		q := &sendQueue{inbox: rt.NewInbox("replfan:" + port.Host() + "->" + host)}
		f.queues[host] = q
		h := host
		rt.Go("replfan:"+port.Host()+"->"+h, func() { f.sender(h, q) })
	}
	return f
}

// Replicas returns the replica hosts this fan-out feeds, sorted order
// not guaranteed.
func (f *Fanout) Replicas() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]string, 0, len(f.queues))
	for h := range f.queues {
		out = append(out, h)
	}
	return out
}

// Store fans one accepted store out to every replica. total is the
// primary's cumulative per-series count after accepting these samples;
// samples are retained in the queue, so they must never change: a
// caller-owned copy, or a capacity-pinned subslice of an append-only
// window.
func (f *Fanout) Store(series string, samples []proto.Sample, total int64) {
	f.send(proto.MsgReplStore, series, samples, total)
}

// Window pushes a full-window replacement (anti-entropy backfill) to
// every replica: the receiver discards its copy of the series and
// adopts samples with applied = total.
func (f *Fanout) Window(series string, samples []proto.Sample, total int64) {
	f.send(proto.MsgReplWindow, series, samples, total)
}

// send queues a store or window message for every replica, each queue
// its own from the runtime's free list; the sender drops it once its
// store is in a frame.
func (f *Fanout) send(typ proto.MsgType, series string, samples []proto.Sample, total int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return
	}
	for _, q := range f.queues {
		if q.inflight >= f.window {
			f.met.Drops.Inc()
			continue
		}
		q.inflight++
		qm := proto.NewMessage(f.port.Runtime())
		*qm = proto.Message{Type: typ, Version: proto.V3, Series: series, Samples: samples, Total: total}
		q.inbox.Send(qm)
	}
}

// Stop closes every sender queue; in-flight deliveries finish or time
// out on their own.
func (f *Fanout) Stop() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return
	}
	f.closed = true
	for _, q := range f.queues {
		q.inbox.Close()
	}
}

func (f *Fanout) sender(host string, q *sendQueue) {
	var m *proto.Message
	held := false // m was taken by the last merge and leads this frame
	for {
		if !held {
			var ok bool
			if m, ok = q.inbox.Recv(); !ok {
				return
			}
		}
		// Wait out the instant, so the stores landing with this one
		// queue before the frame is cut.
		f.port.Runtime().Settle()
		var frame proto.Message
		n := 1
		held = false
		if m.Type == proto.MsgReplStore {
			frame, n, m, held = f.merge(q, m)
		} else {
			frame = *m
			f.port.Drop(m)
		}
		_, err := f.port.Call(host, frame, f.timeout)
		f.mu.Lock()
		q.inflight -= n
		f.mu.Unlock()
		if err == nil {
			f.met.Writes.Add(int64(n))
			f.met.Frames.Inc()
		}
	}
}

// merge takes the stores queued behind first into one frame of at most
// f.frame samples, dropping each message it takes in. It returns the
// frame, the stores it carries, and the message it took but could not
// merge (a window, or a store past the cap), if any. A lone store's
// frame is a frame of one entry.
func (f *Fanout) merge(q *sendQueue, first *proto.Message) (frame proto.Message, n int, rest *proto.Message, held bool) {
	// The frame carries at most what is queued, first included, and at
	// most f.frame stores of one sample or more. A fresh slice per
	// frame: on the simulator the replica receives this very slice.
	f.mu.Lock()
	queued := q.inflight
	f.mu.Unlock()
	entries := make([]proto.SeriesResult, 1, max(1, min(queued, f.frame)))
	entries[0] = entry(first)
	samples := len(first.Samples)
	f.port.Drop(first)
	for {
		m, ok := q.inbox.TryRecv()
		if !ok {
			break
		}
		if m.Type != proto.MsgReplStore || samples+len(m.Samples) > f.frame {
			rest, held = m, true
			break
		}
		entries = append(entries, entry(m))
		samples += len(m.Samples)
		f.port.Drop(m)
	}
	return proto.Message{Type: proto.MsgReplStore, Version: proto.V3, Results: entries}, len(entries), rest, held
}

// entry is store m as one entry of a frame: Lag carries its total, as
// in a ReplSyncReply.
func entry(m *proto.Message) proto.SeriesResult {
	return proto.SeriesResult{Series: m.Series, Samples: m.Samples, Lag: m.Total}
}
