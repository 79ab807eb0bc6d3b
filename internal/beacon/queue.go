package beacon

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"qtag/internal/obs"
)

// BatchSink is a Sink that can deliver several events in one call, all
// or nothing: a nil error means every event was taken, an error means
// the caller re-delivers the whole batch (safe, because ingestion is
// idempotent everywhere in this package). *Store, *WALJournal (and its
// RequestSink), *Journal, *HTTPSink and Discard take a batch whole; the
// wrappers *CircuitBreaker, *StampSink and Tee implement it too and are
// as whole as what they wrap. QueueSink uses it to coalesce queued
// events into batch submissions, and Server to carry one request down
// the ingest chain in one call (see wholeBatch).
//
// As with Submit, the events' strings are valid only for the duration of
// SubmitBatch, and a sink that keeps an event past the call owns a copy.
// The slice is the caller's too: a sink may stamp its elements in place
// (StampSink) but keeps none of it.
type BatchSink interface {
	Sink
	SubmitBatch([]Event) error
}

// wholeBatch returns sink as a BatchSink when it, and every sink under
// it, takes a batch in one piece — nil when any member of the chain
// would fall back to a Submit per event (a SinkFunc, a QueueSink, a
// cluster.Node), because a per-event member can fail per event and only
// the per-event loop can report that. Wrapper sinks answer for what they
// wrap through the unexported batchWhole method; a BatchSink without one
// is a leaf and is taken at its word.
func wholeBatch(sink Sink) BatchSink {
	bs, ok := sink.(BatchSink)
	if !ok {
		return nil
	}
	if w, ok := sink.(interface{ batchWhole() bool }); ok && !w.batchWhole() {
		return nil
	}
	return bs
}

// Queue errors.
var (
	// ErrQueueFull is returned by Submit when the buffer is at capacity;
	// the event has been dropped and counted.
	ErrQueueFull = errors.New("beacon: queue full, event dropped")
	// ErrQueueClosed is returned by Submit after Close.
	ErrQueueClosed = errors.New("beacon: queue closed")
)

// QueueOptions tunes a QueueSink. The zero value picks sensible defaults.
type QueueOptions struct {
	// Capacity bounds the in-memory buffer; events submitted beyond it
	// are dropped (and counted). Default 4096.
	Capacity int
	// MaxBatch is the largest batch handed to the downstream sink in one
	// call. Default 128.
	MaxBatch int
	// RetryDelay is how long the drain goroutine waits after a retryable
	// flush failure before trying again. Default 250ms.
	RetryDelay time.Duration
	// Sleep overrides the retry delay function (tests); time.Sleep when
	// nil. The drain goroutine aborts a pending delay when the queue is
	// force-stopped regardless of the implementation.
	Sleep func(time.Duration)
}

func (o QueueOptions) withDefaults() QueueOptions {
	if o.Capacity <= 0 {
		o.Capacity = 4096
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = 128
	}
	if o.RetryDelay <= 0 {
		o.RetryDelay = 250 * time.Millisecond
	}
	return o
}

// QueueSink is a store-and-forward buffer between a tag and an unreliable
// downstream sink (typically CircuitBreaker over HTTPSink). Submit is
// non-blocking: it appends to a bounded in-memory buffer and returns; a
// background goroutine drains the buffer in batches. A retryable flush
// failure re-queues the batch at the front and backs off, so delivery is
// at-least-once for every event accepted below capacity — duplicates are
// absorbed downstream by idempotent ingestion. When the buffer is full,
// new events are dropped and counted (overflow-drop policy): under
// sustained outage the tag sheds load instead of growing memory.
//
// QueueSink keeps events past Submit, so it queues copies of its own:
// one allocation per event (see Sink).
//
// QueueSink is safe for concurrent use.
type QueueSink struct {
	next      Sink
	batchNext BatchSink // non-nil when next supports batching
	opts      QueueOptions

	mu   sync.Mutex
	cond *sync.Cond
	// The backlog is the size events of the ring from head on, wrapping,
	// oldest first. The drain zeroes each slot it consumes, so a flushed
	// event's strings are not kept, and no event moves once queued: the
	// ring only grows, doubling up to Capacity, when it is full.
	ring       []Event
	head, size int
	closed     bool
	// flush is the drain goroutine's batch, reused for every flush and
	// zeroed after each.
	flush []Event

	stop     chan struct{} // force-stop: abandon the buffer
	stopOnce sync.Once
	done     chan struct{} // drain goroutine exited

	enqueued atomic.Int64
	dropped  atomic.Int64
	flushed  atomic.Int64
	failed   atomic.Int64
	retried  atomic.Int64

	// dropped, split by reason for the labeled metric series:
	// droppedOverflow counts ErrQueueFull rejects, droppedShutdown
	// counts closed-queue submits plus buffers abandoned at Close
	// deadline. Permanent downstream rejections are tracked by failed.
	// droppedOverflow + droppedShutdown == dropped, always.
	droppedOverflow atomic.Int64
	droppedShutdown atomic.Int64

	// Flush instrumentation: batch size and downstream delivery latency
	// per flush attempt. Always collected (the cost is one atomic add per
	// flush); export them by registering the queue on an obs.Registry.
	flushBatch   *obs.Histogram
	flushLatency *obs.Histogram
	now          func() time.Time
	tracer       atomic.Pointer[obs.LifecycleTracer]
}

// NewQueueSink wraps next and starts the drain goroutine. Call Close to
// flush and stop it.
func NewQueueSink(next Sink, opts QueueOptions) *QueueSink {
	q := &QueueSink{
		next:         next,
		opts:         opts.withDefaults(),
		stop:         make(chan struct{}),
		done:         make(chan struct{}),
		flushBatch:   obs.NewHistogram(obs.SizeBuckets...),
		flushLatency: obs.NewHistogram(obs.LatencyBuckets...),
		now:          time.Now,
	}
	if b, ok := next.(BatchSink); ok {
		q.batchNext = b
	}
	q.cond = sync.NewCond(&q.mu)
	go q.drain()
	return q
}

// Submit implements Sink. It never blocks on the network: the event is
// buffered (or dropped with ErrQueueFull when the buffer is at capacity).
func (q *QueueSink) Submit(e Event) error {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		q.dropped.Add(1)
		q.droppedShutdown.Add(1)
		return ErrQueueClosed
	}
	if q.size >= q.opts.Capacity {
		q.mu.Unlock()
		q.dropped.Add(1)
		q.droppedOverflow.Add(1)
		return ErrQueueFull
	}
	q.push(e)
	q.enqueued.Add(1)
	q.cond.Signal()
	q.mu.Unlock()
	return nil
}

// Close stops intake and drains the remaining buffer, blocking until it
// is empty or ctx expires. On expiry the drain goroutine is stopped and
// the undelivered events are counted as dropped.
func (q *QueueSink) Close(ctx context.Context) error {
	q.mu.Lock()
	alreadyClosed := q.closed
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
	if alreadyClosed {
		<-q.done
		return nil
	}
	select {
	case <-q.done:
		return nil
	case <-ctx.Done():
		q.stopOnce.Do(func() { close(q.stop) })
		<-q.done
		q.mu.Lock()
		abandoned := q.size
		q.ring, q.head, q.size = nil, 0, 0
		q.mu.Unlock()
		q.dropped.Add(int64(abandoned))
		q.droppedShutdown.Add(int64(abandoned))
		return fmt.Errorf("beacon: queue closed with %d undelivered events: %w", abandoned, ctx.Err())
	}
}

// drain is the background flush loop.
func (q *QueueSink) drain() {
	defer close(q.done)
	for {
		q.mu.Lock()
		for q.size == 0 && !q.closed {
			q.cond.Wait()
		}
		if q.size == 0 && q.closed {
			q.mu.Unlock()
			return
		}
		if q.stopped() {
			q.mu.Unlock()
			return
		}
		n := min(q.size, q.opts.MaxBatch)
		a, b := q.oldest(n)
		batch := append(append(q.flush[:0], a...), b...)
		q.flush = batch
		q.mu.Unlock()

		start := q.now()
		rejected, err := q.deliver(batch)
		q.flushLatency.ObserveDuration(q.now().Sub(start))
		q.flushBatch.Observe(float64(n))

		q.mu.Lock()
		if err == nil || IsPermanent(err) {
			// The n oldest events are exactly the batch: Submit only
			// appends at the tail and overflow drops the incoming event,
			// never queued ones.
			q.consume(n)
			if err == nil {
				q.flushed.Add(int64(n - rejected))
				q.failed.Add(int64(rejected))
			} else {
				// Delivered-and-rejected: retrying identical bytes cannot
				// succeed, so drop the batch rather than wedge the queue.
				q.failed.Add(int64(n))
			}
			q.mu.Unlock()
			if tr := q.tracer.Load(); tr != nil {
				stage := obs.StageFlushed
				if err != nil {
					stage = obs.StageDropped
				}
				for _, e := range batch {
					tr.Record(e.ImpressionID, e.CampaignID, stage, e.At, string(e.Type))
				}
			}
			clear(batch)
			continue
		}
		q.mu.Unlock()
		clear(batch)
		// Retryable failure: leave the batch at the front and back off.
		q.retried.Add(1)
		if !q.pause(q.opts.RetryDelay) {
			return
		}
	}
}

// The ring's operations; the caller holds q.mu.

// push appends a copy of e that owns its strings to the backlog, growing
// a full ring.
func (q *QueueSink) push(e Event) {
	if q.size == len(q.ring) {
		a, b := q.oldest(q.size)
		ring := make([]Event, min(max(2*len(q.ring), 64), q.opts.Capacity))
		copy(ring, a)
		copy(ring[len(a):], b)
		q.ring, q.head = ring, 0
	}
	q.ring[(q.head+q.size)%len(q.ring)] = e.owned()
	q.size++
}

// oldest returns the n oldest events of the backlog, as at most two runs
// of the ring.
func (q *QueueSink) oldest(n int) (a, b []Event) {
	if end := q.head + n; end > len(q.ring) {
		return q.ring[q.head:], q.ring[:end-len(q.ring)]
	}
	return q.ring[q.head : q.head+n], nil
}

// consume zeroes and drops the n oldest events of the backlog.
func (q *QueueSink) consume(n int) {
	a, b := q.oldest(n)
	clear(a)
	clear(b)
	q.head = (q.head + n) % len(q.ring)
	q.size -= n
}

// deliver pushes one batch downstream, preferring the batch interface.
// rejected counts events the downstream permanently refused while the
// batch as a whole succeeded (per-event path only).
func (q *QueueSink) deliver(batch []Event) (rejected int, err error) {
	if q.batchNext != nil {
		return 0, q.batchNext.SubmitBatch(batch)
	}
	for _, e := range batch {
		if err := q.next.Submit(e); err != nil {
			if IsPermanent(err) {
				// Skip the poison event and keep going; earlier events
				// already landed and idempotency covers re-delivery.
				rejected++
				continue
			}
			// A retryable failure re-queues the whole batch; re-delivery
			// of the already-landed prefix is safe (idempotent ingest).
			return 0, err
		}
	}
	return rejected, nil
}

// pause sleeps for d unless the queue is force-stopped first; it reports
// whether draining should continue.
func (q *QueueSink) pause(d time.Duration) bool {
	if q.opts.Sleep != nil {
		q.opts.Sleep(d)
		return !q.stopped()
	}
	select {
	case <-time.After(d):
		return true
	case <-q.stop:
		return false
	}
}

func (q *QueueSink) stopped() bool {
	select {
	case <-q.stop:
		return true
	default:
		return false
	}
}

// Depth returns the number of events currently buffered.
func (q *QueueSink) Depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.size
}

// QueueStats is a point-in-time snapshot of a QueueSink's delivery-health
// counters.
type QueueStats struct {
	// Depth is the current buffer occupancy.
	Depth int
	// Enqueued counts events accepted into the buffer.
	Enqueued int64
	// Dropped counts events lost to overflow, closed-queue submits, or an
	// abandoned drain (Close deadline).
	Dropped int64
	// Flushed counts events delivered downstream.
	Flushed int64
	// Failed counts events the downstream permanently rejected.
	Failed int64
	// Retried counts flush attempts that failed retryably and were
	// re-queued.
	Retried int64
}

// Stats returns a snapshot of the queue's counters.
func (q *QueueSink) Stats() QueueStats {
	return QueueStats{
		Depth:    q.Depth(),
		Enqueued: q.enqueued.Load(),
		Dropped:  q.dropped.Load(),
		Flushed:  q.flushed.Load(),
		Failed:   q.failed.Load(),
		Retried:  q.retried.Load(),
	}
}

// String implements fmt.Stringer for log lines.
func (s QueueStats) String() string {
	return fmt.Sprintf("depth=%d enqueued=%d flushed=%d dropped=%d failed=%d retried=%d",
		s.Depth, s.Enqueued, s.Flushed, s.Dropped, s.Failed, s.Retried)
}

// SetTracer attaches a lifecycle tracer: every flushed (or permanently
// dropped) event records a span with the event's own timestamp, so the
// trace stream stays virtual-clock-driven even though flushing happens
// on a background goroutine.
func (q *QueueSink) SetTracer(tr *obs.LifecycleTracer) { q.tracer.Store(tr) }

// FlushLatency exposes the per-flush downstream delivery latency
// histogram.
func (q *QueueSink) FlushLatency() *obs.Histogram { return q.flushLatency }

// RegisterMetrics exports the queue's delivery-health counters and flush
// histograms on the registry.
func (q *QueueSink) RegisterMetrics(r *obs.Registry) {
	r.GaugeFunc("qtag_queue_depth", "Events currently buffered in the store-and-forward queue.",
		func() float64 { return float64(q.Depth()) })
	r.CounterFunc("qtag_queue_enqueued_total", "Events accepted into the queue buffer.", q.enqueued.Load)
	r.CounterFunc("qtag_queue_dropped_total", "Events lost to overflow, closed-queue submits, or an abandoned drain.", q.dropped.Load)
	// The same losses, split by reason. The unlabeled total above is kept
	// for dashboard compatibility; permanent-error mirrors
	// qtag_queue_failed_total under the shared dropped-by-reason name so
	// one query surfaces every way an event leaves the queue undelivered.
	r.CounterFunc("qtag_queue_dropped_total", "Events dropped because the buffer was at capacity.",
		q.droppedOverflow.Load, obs.Label{Name: "reason", Value: "overflow"})
	r.CounterFunc("qtag_queue_dropped_total", "Events dropped at shutdown: closed-queue submits and abandoned drains.",
		q.droppedShutdown.Load, obs.Label{Name: "reason", Value: "shutdown"})
	r.CounterFunc("qtag_queue_dropped_total", "Events the downstream permanently rejected.",
		q.failed.Load, obs.Label{Name: "reason", Value: "permanent-error"})
	r.CounterFunc("qtag_queue_flushed_total", "Events delivered downstream.", q.flushed.Load)
	r.CounterFunc("qtag_queue_failed_total", "Events the downstream permanently rejected.", q.failed.Load)
	r.CounterFunc("qtag_queue_retries_total", "Flush attempts that failed retryably and were re-queued.", q.retried.Load)
	r.RegisterHistogram("qtag_queue_flush_batch_size", "Batch size per flush attempt.", q.flushBatch)
	r.RegisterHistogram("qtag_queue_flush_latency_seconds", "Downstream delivery latency per flush attempt.", q.flushLatency)
}
