package cluster

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"qtag/internal/beacon"
	"qtag/internal/wal"
)

// hintSegmentBytes is the per-peer hint WAL segment size: small, so
// drained segments compact away promptly.
const hintSegmentBytes = 4 << 20

// HintOptions configures the hinted-handoff journal. Every hint WAL
// runs under wal.FsyncAlways: a hint substitutes for a synchronous
// forward, so it must be durable before the beacon is acked — otherwise
// a crash after the ack silently loses the write and breaks the acked ⊆
// recovered invariant.
type HintOptions struct {
	// Dir is the handoff root; each peer gets a WAL under Dir/<peerID>.
	Dir string
	// FS is the filesystem seam (real filesystem when nil); the crash
	// suites inject faults.CrashFS here.
	FS wal.FS
	// DrainBatch is how many hints each replay forward carries
	// (default 128).
	DrainBatch int
}

// HintLog is the durable hinted-handoff journal: one WAL namespace per
// unreachable peer, holding the beacons this node acked on the peer's
// behalf. Append must complete (durably, under FsyncAlways) before the
// beacon is acked; Drain replays the backlog to the recovered owner and
// compacts what was delivered.
//
// The log never needs a persisted drain cursor: after a crash every
// surviving hint is considered pending again and is redelivered, and
// the owner's idempotent store absorbs the duplicates. Over-delivery is
// free; under-delivery would be a lost ack.
type HintLog struct {
	opts HintOptions

	mu    sync.Mutex
	peers map[string]*peerHints

	written  int64 // total hints appended (atomic via mu)
	replayed int64 // total hints successfully forwarded by drains
}

type peerHints struct {
	drainMu sync.Mutex // serializes drains per peer
	mu      sync.Mutex // guards w and watermark
	w       *wal.WAL
	// watermark is the highest WAL index known delivered to the owner.
	// In-memory only — see the HintLog doc for why that is safe.
	watermark uint64
}

// OpenHintLog opens the handoff root, recovering any per-peer backlogs
// left by a previous process. Hints recovered from disk count as
// pending in full (the drain cursor is not persisted).
func OpenHintLog(opts HintOptions) (*HintLog, error) {
	if opts.DrainBatch <= 0 {
		opts.DrainBatch = 128
	}
	if opts.Dir == "" {
		return nil, fmt.Errorf("cluster: hint log needs a directory")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("cluster: create handoff dir: %w", err)
	}
	h := &HintLog{opts: opts, peers: make(map[string]*peerHints)}
	entries, err := os.ReadDir(opts.Dir)
	if err != nil {
		return nil, fmt.Errorf("cluster: read handoff dir: %w", err)
	}
	for _, ent := range entries {
		if !ent.IsDir() {
			continue
		}
		if _, err := h.peer(ent.Name()); err != nil {
			return nil, err
		}
	}
	return h, nil
}

// peer returns (opening lazily) the hint state for peerID.
func (h *HintLog) peer(peerID string) (*peerHints, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if p, ok := h.peers[peerID]; ok {
		return p, nil
	}
	recovered := uint64(0)
	w, _, err := wal.Open(wal.Options{
		Dir:          filepath.Join(h.opts.Dir, peerID),
		SegmentBytes: hintSegmentBytes,
		Fsync:        wal.FsyncAlways,
		FS:           h.opts.FS,
	}, func(index uint64, payload []byte) error {
		recovered++
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cluster: open hint wal for %s: %w", peerID, err)
	}
	p := &peerHints{w: w}
	// Everything that survived on disk is pending; anything older was
	// compacted away by a completed drain before the restart.
	p.watermark = w.LastIndex() - recovered
	h.peers[peerID] = p
	return p, nil
}

// hintBufPool recycles hint-record encode buffers. The WAL blocks
// Append until the record is durable, so the buffer is free again when
// Append returns.
var hintBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 512)
		return &b
	},
}

// Append durably journals a beacon for later delivery to peerID. When
// it returns nil the hint has hit the WAL under the configured fsync
// policy — under the FsyncAlways default the caller may ack the beacon.
// Hints are written in the binary beacon codec; Drain dispatches on the
// payload's version tag, so backlogs left by a pre-binary process (JSON
// hints) still deliver after an upgrade.
func (h *HintLog) Append(peerID string, e beacon.Event) error {
	p, err := h.peer(peerID)
	if err != nil {
		return err
	}
	buf := hintBufPool.Get().(*[]byte)
	payload := beacon.AppendBinaryEvent((*buf)[:0], e)
	p.mu.Lock()
	err = p.w.Append(payload)
	p.mu.Unlock()
	*buf = payload[:0]
	hintBufPool.Put(buf)
	if err != nil {
		return fmt.Errorf("cluster: append hint for %s: %w", peerID, err)
	}
	h.mu.Lock()
	h.written++
	h.mu.Unlock()
	return nil
}

// Pending returns the number of hints not yet known delivered to
// peerID.
func (h *HintLog) Pending(peerID string) int64 {
	h.mu.Lock()
	p, ok := h.peers[peerID]
	h.mu.Unlock()
	if !ok {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return int64(p.w.LastIndex() - p.watermark)
}

// TotalPending returns the backlog summed across all peers — the
// readiness probe's signal.
func (h *HintLog) TotalPending() int64 {
	h.mu.Lock()
	ids := make([]string, 0, len(h.peers))
	for id := range h.peers {
		ids = append(ids, id)
	}
	h.mu.Unlock()
	var n int64
	for _, id := range ids {
		n += h.Pending(id)
	}
	return n
}

// Written and Replayed report lifetime hint counters for metrics.
func (h *HintLog) Written() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.written
}

func (h *HintLog) Replayed() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.replayed
}

// Drain replays peerID's backlog through forward in DrainBatch-sized
// batches and compacts what was delivered. Drains for one peer are
// serialized; appends may continue concurrently (they land above the
// drain's cut index and stay pending for the next round).
//
// forward must deliver the batch to the owner (or fail). On any forward
// error the drain stops: earlier batches in this drain may already have
// been delivered but are NOT yet marked drained, so the next drain
// redelivers them — safe, because the owner's store dedups. Returns the
// number of hints forwarded.
func (h *HintLog) Drain(peerID string, forward func([]beacon.Event) error) (int, error) {
	p, err := h.peer(peerID)
	if err != nil {
		return 0, err
	}
	p.drainMu.Lock()
	defer p.drainMu.Unlock()

	p.mu.Lock()
	// The cut is the highest durable index at drain start: everything at
	// or below it is on disk and eligible; appends racing past it wait
	// for the next drain.
	cut, err := p.w.SyncIndex()
	low := p.watermark
	p.mu.Unlock()
	if err != nil {
		return 0, fmt.Errorf("cluster: sync hint wal for %s: %w", peerID, err)
	}
	if cut <= low {
		return 0, nil
	}

	fsys := h.opts.FS
	dir := filepath.Join(h.opts.Dir, peerID)
	var batch []beacon.Event
	sent := 0
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		if err := forward(batch); err != nil {
			return err
		}
		sent += len(batch)
		batch = batch[:0]
		return nil
	}
	_, scanErr := wal.Scan(fsys, dir, func(index uint64, payload []byte) error {
		if index <= low || index > cut {
			return nil
		}
		// DecodeStoredEvent copies the event's strings out of the scan
		// buffer — required, because wal.Scan reuses that buffer while the
		// batch accumulates across records — and accepts both the binary
		// hints this version writes and JSON hints from an older process.
		e, err := beacon.DecodeStoredEvent(payload)
		if err != nil {
			// A corrupt hint is unrecoverable; dropping it is the only
			// option that lets the rest of the backlog deliver. The WAL
			// layer's checksums make this a torn-write artifact, not a
			// silent data error.
			return nil
		}
		batch = append(batch, e)
		if len(batch) >= h.opts.DrainBatch {
			return flush()
		}
		return nil
	})
	if scanErr == nil {
		scanErr = flush()
	}
	if scanErr != nil {
		return sent, fmt.Errorf("cluster: drain hints for %s: %w", peerID, scanErr)
	}

	p.mu.Lock()
	p.watermark = cut
	// Seal the active segment so the delivered records become
	// compactable, then drop every sealed segment fully at or below the
	// cut. Hints appended during the drain live above the cut and
	// survive in the newly sealed segment.
	if err := p.w.Rotate(); err == nil {
		p.w.Compact(cut)
	}
	p.mu.Unlock()

	h.mu.Lock()
	h.replayed += int64(sent)
	h.mu.Unlock()
	return sent, nil
}

// Close closes every per-peer WAL.
func (h *HintLog) Close() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	var first error
	for id, p := range h.peers {
		p.mu.Lock()
		if err := p.w.Close(); err != nil && first == nil {
			first = fmt.Errorf("cluster: close hint wal for %s: %w", id, err)
		}
		p.mu.Unlock()
	}
	return first
}
