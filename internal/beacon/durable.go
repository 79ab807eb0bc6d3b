package beacon

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"qtag/internal/obs"
	"qtag/internal/wal"
)

// DurableRecovery is the full boot-time recovery accounting: the WAL
// scan result plus what the snapshot contributed and how the replayed
// payloads decoded.
type DurableRecovery struct {
	wal.RecoverResult

	// SnapshotIndex is the WAL record index the restored snapshot covers
	// (0 when no snapshot was found).
	SnapshotIndex uint64
	// SnapshotRestored counts events rebuilt from the snapshot payload.
	SnapshotRestored int
	// SnapshotSkipped counts malformed lines inside the snapshot payload
	// (should be zero — the payload is checksummed).
	SnapshotSkipped int
	// CorruptSnapshots counts snapshot files that failed validation and
	// were skipped in favour of an older snapshot or a full replay.
	CorruptSnapshots int
	// Replayed counts WAL records decoded and submitted to the store.
	Replayed int
	// ReplaySkipped counts WAL records whose payload passed the CRC but
	// did not decode into a valid event; they are counted, not fatal.
	ReplaySkipped int
}

// WALJournal is the Journal API layered on the segmented WAL: a
// Sink/BatchSink whose records are binary-codec-encoded events
// (DESIGN.md §16), giving the collection server crash-safe durability.
// Replay dispatches on the payload's version tag, so directories
// written by pre-binary versions — whose records are JSONL events —
// replay unchanged, and qtag-replay reads both. Snapshots stay JSONL
// either way: they are line-framed event sets, not per-event records.
// It is safe for concurrent use.
//
// The journal has two faces, and which one a chain holds — not how many
// events a call carries — decides what a nil return means:
//
//   - WALJournal itself ends a queue flush. Submit is one wal.Append;
//     SubmitBatch is one wal.AppendBatch, a batch boundary, which under
//     -fsync batch is the one fsync per flush that policy is named for.
//   - RequestSink sits on an HTTP request's ack path (-durable-sync).
//     One event or a whole request, it is wal.AppendRecords: one
//     hand-off to the group committer and one write, durable as the
//     policy says and no more. always: the fsync covering the request
//     has returned before the 202 (one per request — per commit group —
//     not one per event). batch: the records are written to the file
//     but not fsynced; a process crash keeps them, a power loss may not,
//     until the next rotation, snapshot, Flush or Close. interval: as
//     batch, plus an fsync whenever -fsync-every has elapsed.
type WALJournal struct {
	w   *wal.WAL
	fs  wal.FS
	dir string
	now func() time.Time

	recovery DurableRecovery // immutable after OpenDurable

	// snapMu makes Snapshot one at a time: two calls that saw the same
	// coverage index would share one snap-<index>.snap.tmp, and the
	// loser's rename would publish whatever both had appended to it.
	snapMu    sync.Mutex
	mu        sync.Mutex
	snapIndex uint64
	snapAt    time.Time

	snapshots atomic.Int64
	compacted atomic.Int64

	// Group-commit instrumentation, populated by the WAL's CommitObserver
	// hook (always collected; registering on an obs.Registry exports it).
	commitBatch   *obs.Histogram
	commitLatency *obs.Histogram
}

// OpenDurable recovers the WAL directory into the store and returns a
// WALJournal positioned to append: newest valid snapshot first, then
// every WAL record past the snapshot's coverage. Corrupt snapshots,
// quarantined records and undecodable payloads are counted in the
// returned DurableRecovery, never fatal — the only hard errors are I/O
// failures that leave the directory unusable.
func OpenDurable(opts wal.Options, store *Store) (*WALJournal, DurableRecovery, error) {
	commitBatch := obs.NewHistogram(obs.SizeBuckets...)
	commitLatency := obs.NewHistogram(obs.LatencyBuckets...)
	if opts.GroupCommit && opts.CommitObserver == nil {
		opts.CommitObserver = func(records int, latency time.Duration) {
			commitBatch.Observe(float64(records))
			commitLatency.ObserveDuration(latency)
		}
	}
	var w *wal.WAL
	rec, snapAt, err := replayDir(opts.FS, opts.Dir, store, func(replay func(uint64, []byte) error) (res wal.RecoverResult, err error) {
		w, res, err = wal.Open(opts, replay)
		return res, err
	})
	if err != nil {
		return nil, rec, err
	}
	// Recovery can leave the WAL's next index below the snapshot's
	// coverage (truncated torn tail, quarantined final segment). New
	// appends must never reuse covered indices — replayDir skips them
	// would silently drop them on the next boot — so skip forward past
	// the snapshot before accepting events.
	if err := w.SkipTo(rec.SnapshotIndex + 1); err != nil {
		w.Close()
		return nil, rec, fmt.Errorf("beacon: advance wal past snapshot: %w", err)
	}
	now := opts.Now
	if now == nil {
		now = time.Now
	}
	j := &WALJournal{
		w:             w,
		fs:            opts.FS,
		dir:           opts.Dir,
		now:           now,
		recovery:      rec,
		snapIndex:     rec.SnapshotIndex,
		snapAt:        snapAt,
		commitBatch:   commitBatch,
		commitLatency: commitLatency,
	}
	return j, rec, nil
}

// Submit implements Sink: the event becomes one binary-codec WAL
// record, encoded into a pooled buffer. The WAL blocks until the
// record is written (group commit releases callers only after their
// group's write), so returning the buffer to the pool afterwards is
// safe.
func (j *WALJournal) Submit(e Event) error {
	if err := e.Validate(); err != nil {
		return err
	}
	buf := getEncBuf()
	payload := AppendBinaryEvent((*buf)[:0], e)
	err := j.w.Append(payload)
	*buf = payload[:0]
	putEncBuf(buf)
	return err
}

// SubmitBatch implements BatchSink: the batch lands as consecutive WAL
// records in a single write and ends a batch for the fsync policy
// (wal.AppendBatch) — the queue-flush face of the journal. A failed
// batch may leave a prefix behind; retrying callers re-append the whole
// batch, which is safe because replay feeds an idempotent store.
func (j *WALJournal) SubmitBatch(events []Event) error {
	return j.appendEvents(events, j.w.AppendBatch)
}

// RequestSink returns the journal as it sits on a request's ack path:
// the same records through wal.AppendRecords, so that a request of any
// size is one hand-off and one write and is exactly as durable as the
// fsync policy says (see WALJournal) — in particular a request is not a
// batch boundary, and under -fsync batch costs no fsync.
func (j *WALJournal) RequestSink() BatchSink { return walRequestSink{j} }

type walRequestSink struct{ j *WALJournal }

func (r walRequestSink) Submit(e Event) error { return r.j.Submit(e) }

func (r walRequestSink) SubmitBatch(events []Event) error {
	return r.j.appendEvents(events, r.j.w.AppendRecords)
}

// recordBatch is appendEvents' pooled working memory: all records of a
// batch encoded back to back in buf, where each ends, and the
// per-record views handed to the WAL. The WAL call blocks until the
// write has returned, so all three are free for reuse afterwards — the
// reason the single-event encode buffer's reuse is safe.
type recordBatch struct {
	buf      []byte
	ends     []int
	payloads [][]byte
}

var recordBatchPool = sync.Pool{New: func() any { return new(recordBatch) }}

// appendEvents validates and encodes the events and hands the records
// to one of the WAL's multi-record entry points.
func (j *WALJournal) appendEvents(events []Event, appendFn func([][]byte) error) error {
	rb := recordBatchPool.Get().(*recordBatch)
	defer recordBatchPool.Put(rb)
	buf, ends := rb.buf[:0], rb.ends[:0]
	for i := range events {
		if err := events[i].Validate(); err != nil {
			return err
		}
		buf = AppendBinaryEvent(buf, events[i])
		ends = append(ends, len(buf))
	}
	// Sliced only now: appending first would invalidate earlier slices
	// on growth.
	payloads, from := rb.payloads[:0], 0
	for _, end := range ends {
		payloads = append(payloads, buf[from:end])
		from = end
	}
	rb.buf, rb.ends, rb.payloads = buf, ends, payloads
	return appendFn(payloads)
}

// Snapshot publishes a WAL snapshot and compacts the segments it
// covers. It returns whether a snapshot was actually written — when no
// records arrived since the last one it is a no-op. The snapshot is
// built from the archive, not from memory: the previous snapshot and the
// WAL records up to the coverage index are replayed (replayDir, the
// restart path) into a scratch store, and its first-seen events, sorted
// by key, are the JSONL payload — every distinct event the WAL holds,
// complete, so that a restored store rebuilds its whole dedup state and
// replaying a WAL region that overlaps the snapshot is idempotent, which
// is what makes compaction safe. It takes no lock of the live store
// (the parameter is kept for callers that pass it), so a beacon the
// store applied and the WAL never took — one the chain refused — is not
// brought back by a restart. The WAL is synced first and the index
// captured atomically with the sync, so coverage never exceeds the
// durable tail — a crash right after the snapshot must not leave it
// claiming records the WAL lost. Concurrent calls run one after the
// other; one that waited out a snapshot covering the same index returns
// false like any other no-op.
func (j *WALJournal) Snapshot(*Store) (bool, error) {
	j.snapMu.Lock()
	defer j.snapMu.Unlock()
	last, err := j.w.SyncIndex()
	if err != nil {
		return false, err
	}
	j.mu.Lock()
	prev := j.snapIndex
	j.mu.Unlock()
	if last == prev {
		return false, nil
	}
	payload, err := j.archive(prev, last)
	if err != nil {
		return false, err
	}
	at := j.now()
	if _, err := wal.WriteSnapshot(j.fs, j.dir, last, at, payload); err != nil {
		return false, err
	}
	removed, cerr := j.w.Compact(last)
	j.mu.Lock()
	j.snapIndex = last
	j.snapAt = at
	j.mu.Unlock()
	j.snapshots.Add(1)
	j.compacted.Add(int64(removed))
	return true, cerr
}

// archive returns the snapshot payload covering the WAL through index
// last: the distinct events of the newest snapshot, which covers prev,
// and of the records up to last, as JSONL in key order. It reads the
// directory only (wal.Scan), so the appends that go on meanwhile are past
// last and left out. It fails when the archive has lost events the store
// applied, because the segments the new snapshot covers are compacted
// after it and a payload without those events would lose them for good:
// when the newest snapshot that loads is not the one covering prev (the
// segments it compacted are gone), and when the scan sets aside a record
// in (prev, last] that boot recovery did not already set aside — one
// that rotted on disk since.
func (j *WALJournal) archive(prev, last uint64) ([]byte, error) {
	scratch := NewStoreWithShards(1)
	kept := Record(scratch)
	rec, _, err := replayDir(j.fs, j.dir, scratch, func(replay func(uint64, []byte) error) (wal.RecoverResult, error) {
		return wal.Scan(j.fs, j.dir, func(index uint64, payload []byte) error {
			if index > last {
				return nil
			}
			return replay(index, payload)
		})
	})
	if err != nil {
		return nil, err
	}
	if rec.SnapshotIndex != prev {
		return nil, fmt.Errorf("beacon: the snapshot covering record %d does not load (the newest that does covers %d)", prev, rec.SnapshotIndex)
	}
	for _, sp := range rec.QuarantinedSpans {
		if sp.First <= last && sp.Last > prev && !slices.Contains(j.recovery.QuarantinedSpans, sp) {
			return nil, fmt.Errorf("beacon: WAL records %d–%d no longer read back; the snapshot would lose them", max(sp.First, prev+1), min(sp.Last, last))
		}
	}
	rs, keys := kept.sorted()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, k := range keys {
		if err := enc.Encode(rs.at(k.off)); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

// SnapshotInfo returns the coverage index and creation time of the
// newest snapshot (zero values when none exists yet).
func (j *WALJournal) SnapshotInfo() (uint64, time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.snapIndex, j.snapAt
}

// Recovery returns the boot-time recovery accounting.
func (j *WALJournal) Recovery() DurableRecovery { return j.recovery }

// WAL exposes the underlying journal for telemetry and tests.
func (j *WALJournal) WAL() *wal.WAL { return j.w }

// Len returns the number of events appended since startup (compatible
// with Journal.Len).
func (j *WALJournal) Len() int { return int(j.w.Appended()) }

// Pending returns the number of events appended but not yet fsynced —
// the window a crash can lose, and the admission backstop's backlog signal.
func (j *WALJournal) Pending() int { return j.w.Pending() }

// Flush forces everything appended so far to stable storage — the same
// durability contract as Journal.Flush. Under the batch/interval fsync
// policies this is what drains Pending to zero.
func (j *WALJournal) Flush() error { return j.w.Sync() }

// Sync forces everything appended so far to stable storage.
func (j *WALJournal) Sync() error { return j.w.Sync() }

// SetFsyncPolicy switches the underlying WAL's durability policy at
// runtime (disk-watermark degradation: always → batch under low space).
func (j *WALJournal) SetFsyncPolicy(p wal.FsyncPolicy) { j.w.SetFsyncPolicy(p) }

// FsyncPolicy reports the WAL's currently active durability policy.
func (j *WALJournal) FsyncPolicy() wal.FsyncPolicy { return j.w.FsyncPolicyNow() }

// DiskFull reports whether the most recent append or sync hit an
// out-of-space error.
func (j *WALJournal) DiskFull() bool { return j.w.DiskFull() }

// Close syncs and closes the WAL. Close is idempotent.
func (j *WALJournal) Close() error { return j.w.Close() }

// RegisterMetrics exports the durability counters: the compatibility
// pair the plain Journal exposed, plus the WAL lifecycle, recovery,
// quarantine and snapshot series the /metrics contract requires.
func (j *WALJournal) RegisterMetrics(r *obs.Registry) {
	r.GaugeFunc("qtag_journal_pending", "Events accepted since the last fsync — the durability backlog.",
		func() float64 { return float64(j.Pending()) })
	r.GaugeFunc("qtag_journal_events", "Events written to the journal since startup.",
		func() float64 { return float64(j.Len()) })

	r.GaugeFunc("qtag_wal_segments", "Live WAL segment files (sealed + active).",
		func() float64 { return float64(j.w.Segments()) })
	r.GaugeFunc("qtag_wal_active_segment_bytes", "Size of the active WAL segment.",
		func() float64 { return float64(j.w.ActiveSegmentBytes()) })
	r.CounterFunc("qtag_wal_appended_total", "WAL records appended since startup.", j.w.Appended)
	r.CounterFunc("qtag_wal_syncs_total", "Successful WAL fsyncs since startup.", j.w.Syncs)
	r.CounterFunc("qtag_wal_rotations_total", "WAL segment rotations since startup.", j.w.Rotations)
	r.CounterFunc("qtag_wal_append_errors_total", "Failed WAL appends since startup.", j.w.AppendErrors)
	r.GaugeFunc("qtag_wal_disk_full", "1 while the WAL is hitting out-of-space errors, else 0.",
		func() float64 {
			if j.w.DiskFull() {
				return 1
			}
			return 0
		})

	rec := j.recovery
	r.GaugeFunc("qtag_wal_recovery_seconds", "Wall time of the boot-time WAL recovery.",
		func() float64 { return rec.Duration.Seconds() })
	r.GaugeFunc("qtag_wal_recovery_segments", "Segments scanned during boot-time recovery.",
		func() float64 { return float64(rec.Segments) })
	r.GaugeFunc("qtag_wal_recovery_records", "Records replayed during boot-time recovery (snapshot events included).",
		func() float64 { return float64(rec.Records + rec.SnapshotRestored) })
	r.GaugeFunc("qtag_wal_quarantined_records_total", "Corrupted chunks quarantined by boot-time recovery.",
		func() float64 { return float64(rec.Quarantined) })
	r.GaugeFunc("qtag_wal_replay_skipped_total", "WAL records that passed the CRC but did not decode into valid events.",
		func() float64 { return float64(rec.ReplaySkipped + rec.SnapshotSkipped) })

	r.GaugeFunc("qtag_wal_group_commit_enabled", "1 when WAL appends go through the group committer, else 0.",
		func() float64 {
			if j.w.GroupCommitEnabled() {
				return 1
			}
			return 0
		})
	r.CounterFunc("qtag_wal_group_commits_total", "Successful WAL group commits since startup.", j.w.GroupCommits)
	r.GaugeFunc("qtag_wal_group_commit_queue", "Callers currently waiting on the group committer.",
		func() float64 { return float64(j.w.GroupQueueDepth()) })
	r.RegisterHistogram("qtag_wal_group_commit_batch_size", "Records coalesced per WAL group commit.", j.commitBatch)
	r.RegisterHistogram("qtag_wal_group_commit_latency_seconds", "Enqueue-to-durable latency per WAL group commit.", j.commitLatency)

	r.CounterFunc("qtag_wal_snapshots_total", "Snapshots written since startup.", j.snapshots.Load)
	r.CounterFunc("qtag_wal_compacted_segments_total", "Sealed segments retired by compaction since startup.", j.compacted.Load)
	r.GaugeFunc("qtag_wal_snapshot_age_seconds", "Age of the newest snapshot; -1 when none exists.",
		func() float64 {
			_, at := j.SnapshotInfo()
			if at.IsZero() {
				return -1
			}
			return j.now().Sub(at).Seconds()
		})
}

// ReplayWALDir is the read-only replay used by qtag-replay: it rebuilds
// state from a WAL directory — newest valid snapshot, then every record
// past its coverage — without truncating, quarantining or creating
// anything, so it is safe to point at a live or crashed server's
// directory.
func ReplayWALDir(dir string, sink Sink) (DurableRecovery, error) {
	rec, _, err := replayDir(nil, dir, sink, func(replay func(uint64, []byte) error) (wal.RecoverResult, error) {
		return wal.Scan(nil, dir, replay)
	})
	return rec, err
}

// replayDir is the one snapshot-then-tail replay: it restores dir's
// newest valid snapshot into sink, then runs tail — wal.Open at boot,
// wal.Scan read-only — with the callback that submits every record past
// the snapshot's coverage. Undecodable or refused records are counted,
// not fatal. It returns the accounting and the snapshot's creation time
// (zero without one).
func replayDir(fsys wal.FS, dir string, sink Sink, tail func(replay func(uint64, []byte) error) (wal.RecoverResult, error)) (DurableRecovery, time.Time, error) {
	var rec DurableRecovery
	snap, corrupt, err := wal.LoadSnapshot(fsys, dir)
	if err != nil {
		return rec, time.Time{}, err
	}
	rec.CorruptSnapshots = corrupt
	var snapAt time.Time
	if snap != nil {
		st, err := ReplayJournal(bytes.NewReader(snap.Payload), sink)
		if err != nil {
			return rec, time.Time{}, fmt.Errorf("beacon: replay snapshot: %w", err)
		}
		rec.SnapshotIndex = snap.LastIndex
		rec.SnapshotRestored = st.Replayed
		rec.SnapshotSkipped = st.Skipped
		snapAt = snap.CreatedAt
	}
	rec.RecoverResult, err = tail(func(index uint64, payload []byte) error {
		if index <= rec.SnapshotIndex {
			return nil // already covered by the snapshot
		}
		e, err := DecodeStoredEvent(payload)
		if err != nil {
			rec.ReplaySkipped++
			return nil
		}
		if err := sink.Submit(e); err != nil {
			rec.ReplaySkipped++
			return nil
		}
		rec.Replayed++
		return nil
	})
	return rec, snapAt, err
}
