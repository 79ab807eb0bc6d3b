package wal

import (
	"sync"
	"time"
)

// groupCommitMaxBatch caps the records a group takes from the queue; a
// request is never split, so one larger than this still commits whole.
const groupCommitMaxBatch = 256

// commitReq is one caller's pending append: its payloads (one request's
// records stay together — a request is never split across groups),
// whether it came from AppendBatch (the FsyncOnBatch trigger), and the
// channel the commit outcome is delivered on.
type commitReq struct {
	payloads [][]byte
	batch    bool
	enqueued time.Time
	err      chan error
}

// groupCommitter serializes concurrent Append callers through one
// committer goroutine: callers enqueue records and block; the committer
// drains the queue, writes one coalesced frame and performs one fsync
// per group (policy permitting), then releases every caller in the
// group. Per-caller durability semantics are unchanged — an Append under
// FsyncAlways still returns only after the fsync covering its record —
// but the syscall cost is amortized across every caller that queued up
// while the previous fsync was in flight (natural batching). A group is
// never held open waiting for more callers.
type groupCommitter struct {
	w       *WAL
	observe func(records int, latency time.Duration)
	now     func() time.Time

	mu      sync.Mutex
	cond    *sync.Cond
	queue   []*commitReq
	stopped bool
	done    chan struct{}

	// group and payloads are the committer goroutine's scratch, reused
	// from one commit to the next: every caller of a group blocks until
	// its write has returned, so nothing outlives the commit.
	group    []*commitReq
	payloads [][]byte
}

// commitReqPool recycles requests with their reply channel. A request is
// the caller's again once it has received from err — the committer's
// send is the last thing it does with it.
var commitReqPool = sync.Pool{New: func() any { return &commitReq{err: make(chan error, 1)} }}

func newGroupCommitter(w *WAL) *groupCommitter {
	g := &groupCommitter{
		w:       w,
		observe: w.opts.CommitObserver,
		now:     w.opts.Now,
		done:    make(chan struct{}),
	}
	g.cond = sync.NewCond(&g.mu)
	go g.run()
	return g
}

// submit enqueues one caller's records and blocks until the group commit
// covering them completes (or fails — every caller in a failed group
// gets the error; retrying re-appends the whole request, which is safe
// because replay feeds an idempotent store).
func (g *groupCommitter) submit(payloads [][]byte, batch bool) error {
	g.mu.Lock()
	if g.stopped {
		g.mu.Unlock()
		return ErrClosed
	}
	req := commitReqPool.Get().(*commitReq)
	req.payloads, req.batch, req.enqueued = payloads, batch, g.now()
	g.queue = append(g.queue, req)
	if len(g.queue) == 1 {
		g.cond.Signal()
	}
	g.mu.Unlock()
	err := <-req.err
	req.payloads = nil
	commitReqPool.Put(req)
	return err
}

// depth returns the number of callers waiting for a commit.
func (g *groupCommitter) depth() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.queue)
}

// stop drains the queue (remaining requests are committed, not dropped)
// and retires the committer goroutine. Idempotent; safe to call
// concurrently with submit — later submits fail with ErrClosed.
func (g *groupCommitter) stop() {
	g.mu.Lock()
	if !g.stopped {
		g.stopped = true
		g.cond.Broadcast()
	}
	g.mu.Unlock()
	<-g.done
}

// run is the committer loop.
func (g *groupCommitter) run() {
	defer close(g.done)
	for {
		g.mu.Lock()
		for len(g.queue) == 0 && !g.stopped {
			g.cond.Wait()
		}
		if len(g.queue) == 0 {
			g.mu.Unlock()
			return // stopped and drained
		}
		take, records := g.takeLocked(g.group[:0])
		g.mu.Unlock()
		g.commit(take, records)
		clear(take)
		g.group = take
	}
}

// takeLocked moves requests from the queue into the in-progress group
// until the group reaches groupCommitMaxBatch records (a request is never
// split, so one AppendRecords or AppendBatch larger than that exceeds it).
func (g *groupCommitter) takeLocked(group []*commitReq) ([]*commitReq, int) {
	n, records := 0, 0
	for n < len(g.queue) && records < groupCommitMaxBatch {
		group = append(group, g.queue[n])
		records += len(g.queue[n].payloads)
		n++
	}
	// Shift the rest down instead of slicing the front off, so the queue
	// keeps its backing array from one commit to the next.
	rest := copy(g.queue, g.queue[n:])
	clear(g.queue[rest:])
	g.queue = g.queue[:rest]
	return group, records
}

// commit writes one coalesced group and releases its callers.
func (g *groupCommitter) commit(group []*commitReq, records int) {
	payloads := g.payloads[:0]
	batch := false
	for _, req := range group {
		payloads = append(payloads, req.payloads...)
		batch = batch || req.batch
	}
	err := g.w.append(payloads, batch)
	clear(payloads)
	g.payloads = payloads
	if err == nil {
		g.w.groupCommits.Add(1)
	}
	if g.observe != nil {
		g.observe(records, g.now().Sub(group[0].enqueued))
	}
	for _, req := range group {
		req.err <- err
	}
}
