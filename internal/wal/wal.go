// Package wal is a crash-safe, segmented write-ahead journal: the
// durability layer under the beacon collection server's in-memory store.
//
// Layout: a WAL directory holds numbered segment files
// (wal-<firstIndex>.seg), each a 16-byte header followed by
// length-prefixed, CRC32C-checksummed records, plus at most one
// checksummed snapshot (snap-<lastIndex>.snap) and any quarantine
// sidecars produced by recovery (*.quarantine).
//
// Guarantees:
//
//   - Append durability follows the fsync policy (see FsyncPolicy):
//     FsyncAlways syncs every append call, FsyncOnBatch syncs at the end
//     of each AppendBatch only, and FsyncInterval syncs when FsyncEvery
//     has elapsed (checked on append; pair it with a periodic Sync for
//     idle streams).
//   - Recovery (Open) scans segments in index order, replays every valid
//     record, truncates a torn tail (a crash mid-write loses at most the
//     records appended after the last fsync), and quarantines corrupted
//     mid-stream records into a <segment>.quarantine sidecar instead of
//     aborting — with exact loss accounting in RecoverResult.
//   - Snapshot + Compact bound disk use: a snapshot covering records
//     [1, lastIndex] lets Compact retire every sealed segment whose
//     records are all <= lastIndex.
//
// The package has no dependencies beyond the standard library; callers
// decide what record payloads mean (internal/beacon stores JSONL-encoded
// events, keeping qtag-replay compatibility).
package wal

import (
	"errors"
	"fmt"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// FsyncPolicy selects when appends are forced to stable storage. What a
// returned append — and so an acknowledged request — means is a property
// of the policy, never of how many records the call carried: Append and
// AppendRecords are the same promise for one record or sixty-four.
//
//	policy    Append / AppendRecords return after   AppendBatch returns after
//	always    write + the fsync covering the call   write + fsync
//	batch     write (page cache; no fsync)          write + fsync (flush boundary)
//	interval  write; fsync if FsyncEvery elapsed    the same
//
// Whatever the policy, rotation, Sync/SyncIndex (snapshots) and Close
// fsync, and Pending counts the records a crash could still lose.
type FsyncPolicy int

const (
	// FsyncOnBatch syncs at the end of every AppendBatch (and on
	// rotation and Close). Append and AppendRecords are not synced — the
	// default trade: one fsync per queue flush, none on a request path.
	FsyncOnBatch FsyncPolicy = iota
	// FsyncAlways syncs before every Append, AppendRecords and
	// AppendBatch returns: one fsync per call (per commit group with
	// group commit), whatever the number of records in it.
	FsyncAlways
	// FsyncInterval syncs when FsyncEvery has elapsed since the last
	// sync, checked after each append.
	FsyncInterval
)

// String implements fmt.Stringer.
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncInterval:
		return "interval"
	default:
		return "batch"
	}
}

// ParseFsyncPolicy maps a flag value onto a policy.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "always":
		return FsyncAlways, nil
	case "interval":
		return FsyncInterval, nil
	case "batch", "on-batch", "onbatch":
		return FsyncOnBatch, nil
	}
	return FsyncOnBatch, fmt.Errorf("wal: unknown fsync policy %q (want always, interval or batch)", s)
}

// Options tunes a WAL. Dir is required; everything else has defaults.
type Options struct {
	// Dir is the WAL directory; created when absent.
	Dir string
	// SegmentBytes rotates the active segment when appending would push
	// it past this size. Default 64 MiB. A record larger than the limit
	// still lands in one (oversized) segment.
	SegmentBytes int64
	// Fsync selects the durability policy; FsyncOnBatch by default.
	Fsync FsyncPolicy
	// FsyncEvery is the FsyncInterval period. Default 1s.
	FsyncEvery time.Duration
	// MaxRecordBytes bounds one record payload. Default 16 MiB.
	MaxRecordBytes int
	// FS is the filesystem seam; the real filesystem when nil.
	FS FS
	// Now is the clock; time.Now when nil.
	Now func() time.Time

	// GroupCommit routes concurrent Append/AppendBatch callers through a
	// single committer goroutine that writes one coalesced buffer and
	// performs one fsync per group. Per-caller durability is unchanged —
	// an Append under FsyncAlways still returns only after the fsync
	// covering its record — but the fsync cost is amortized across every
	// caller that arrived while the previous group was committing. A
	// group is never held open to wait for callers: groups form only
	// under fsync backpressure, up to groupCommitMaxBatch records.
	GroupCommit bool
	// CommitObserver, when set, is called after every group commit with
	// the number of records in the group and the wall time from the first
	// caller's enqueue to commit completion (per Now). It must be safe
	// for use from the committer goroutine.
	CommitObserver func(records int, latency time.Duration)
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 64 << 20
	}
	if o.FsyncEvery <= 0 {
		o.FsyncEvery = time.Second
	}
	if o.MaxRecordBytes <= 0 {
		o.MaxRecordBytes = DefaultMaxRecordBytes
	}
	if o.FS == nil {
		o.FS = OS
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	return o
}

// sealedSeg is one closed segment: its file and the record index range
// it covers.
type sealedSeg struct {
	path  string
	first uint64
	last  uint64
}

// WAL is a segmented, checksummed append-only journal. It is safe for
// concurrent use.
type WAL struct {
	opts Options
	fs   FS

	mu          sync.Mutex
	sealed      []sealedSeg
	active      File
	activePath  string
	activeStart uint64 // first record index of the active segment
	activeSize  int64
	nextIndex   uint64 // index the next appended record will get
	pending     int    // records appended since the last successful sync
	lastSync    time.Time
	torn        bool // a failed partial write could not be rolled back
	closed      bool

	// gc is the group committer; nil unless Options.GroupCommit. It sits
	// in front of mu: group-mode appends enqueue on gc and the committer
	// goroutine is the only append path that takes mu.
	gc *groupCommitter

	appended     atomic.Int64
	syncs        atomic.Int64
	rotations    atomic.Int64
	appendErrs   atomic.Int64
	groupCommits atomic.Int64
	diskFull     atomic.Bool
}

func segmentName(firstIndex uint64) string { return fmt.Sprintf("wal-%016x.seg", firstIndex) }

// parseSegmentName extracts the first record index from a segment file
// name, reporting whether the name is a segment at all.
func parseSegmentName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".seg") {
		return 0, false
	}
	hex := strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".seg")
	if len(hex) != 16 {
		return 0, false
	}
	v, err := strconv.ParseUint(hex, 16, 64)
	return v, err == nil
}

// listSegments returns the segment files in dir ordered by first record
// index. A missing directory yields an empty list.
func listSegments(fsys FS, dir string) ([]sealedSeg, error) {
	names, err := fsys.List(dir)
	if err != nil {
		if errors.Is(err, syscall.ENOENT) {
			return nil, nil
		}
		return nil, err
	}
	segs := make([]sealedSeg, 0, len(names))
	for _, name := range names {
		if first, ok := parseSegmentName(name); ok {
			segs = append(segs, sealedSeg{path: filepath.Join(dir, name), first: first})
		}
	}
	// names are sorted and the index is fixed-width hex, so segs is
	// already in index order.
	return segs, nil
}

// Open recovers the WAL in dir and returns it positioned to append.
// Every valid record is passed to replay in index order (replay may be
// nil to validate without consuming); a replay error aborts Open.
// Recovery truncates a torn tail on the final segment and quarantines
// corrupted mid-stream records into <segment>.quarantine sidecars; the
// exact accounting comes back in RecoverResult.
func Open(opts Options, replay func(index uint64, payload []byte) error) (*WAL, RecoverResult, error) {
	opts = opts.withDefaults()
	var res RecoverResult
	if opts.Dir == "" {
		return nil, res, errors.New("wal: Options.Dir is required")
	}
	start := opts.Now()
	if err := opts.FS.MkdirAll(opts.Dir); err != nil {
		return nil, res, fmt.Errorf("wal: create dir: %w", err)
	}
	w := &WAL{opts: opts, fs: opts.FS, nextIndex: 1, lastSync: start}
	if err := w.recover(replay, &res); err != nil {
		return nil, res, err
	}
	res.Duration = opts.Now().Sub(start)
	if opts.GroupCommit {
		w.gc = newGroupCommitter(w)
	}
	return w, res, nil
}

// framePool recycles append's frame buffers. File.Write does not retain
// its argument, so a buffer is free again the moment the write returns.
var framePool = sync.Pool{New: func() any { return new([]byte) }}

// append frames the payloads (already size-checked by submit) and writes
// them as one Write call, applying rotation and the fsync policy. batch
// reports whether the call came from AppendBatch (for FsyncOnBatch).
func (w *WAL) append(payloads [][]byte, batch bool) error {
	size := 0
	for _, p := range payloads {
		size += RecordHeaderSize + len(p)
	}
	fb := framePool.Get().(*[]byte)
	defer framePool.Put(fb)
	if cap(*fb) < size {
		*fb = make([]byte, 0, size)
	}
	frame := (*fb)[:0]
	for _, p := range payloads {
		frame = EncodeRecord(frame, p)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	if w.torn {
		// A previous partial write could not be rolled back; the active
		// segment's tail is garbage. Seal it (recovery will truncate the
		// tear) and continue on a fresh segment.
		if err := w.rotateLocked(); err != nil {
			return err
		}
		w.torn = false
	}
	if w.shouldRotateLocked(int64(len(frame))) {
		if err := w.rotateLocked(); err != nil {
			return err
		}
	}
	n, err := w.active.Write(frame)
	if err != nil {
		w.appendErrs.Add(1)
		if IsDiskFull(err) {
			w.diskFull.Store(true)
		}
		if n > 0 {
			// Partial write: roll the file back to the last record
			// boundary so the next append does not interleave with a
			// torn frame. If even that fails, poison the segment.
			if terr := w.active.Truncate(w.activeSize); terr != nil {
				w.torn = true
			}
		}
		return fmt.Errorf("wal: append: %w", err)
	}
	w.diskFull.Store(false)
	w.activeSize += int64(n)
	w.nextIndex += uint64(len(payloads))
	w.pending += len(payloads)
	w.appended.Add(int64(len(payloads)))
	switch w.opts.Fsync {
	case FsyncAlways:
		return w.syncLocked()
	case FsyncOnBatch:
		if batch {
			return w.syncLocked()
		}
	case FsyncInterval:
		if w.opts.Now().Sub(w.lastSync) >= w.opts.FsyncEvery {
			return w.syncLocked()
		}
	}
	return nil
}

// submit is the one way into the journal: it size-checks the payloads in
// the caller — an oversized record must fail its own caller, never an
// innocent member of its commit group — and hands them to the group
// committer when there is one, or writes them itself.
func (w *WAL) submit(payloads [][]byte, batch bool) error {
	for _, p := range payloads {
		if len(p) > w.opts.MaxRecordBytes {
			return fmt.Errorf("%w: %d > %d", ErrRecordTooLarge, len(p), w.opts.MaxRecordBytes)
		}
	}
	if w.gc != nil {
		return w.gc.submit(payloads, batch)
	}
	return w.append(payloads, batch)
}

// Append writes one record. Durability follows the fsync policy. With
// group commit enabled, concurrent Appends coalesce into one write and
// one fsync; each call still returns only after the fsync covering its
// record (policy permitting).
func (w *WAL) Append(payload []byte) error {
	return w.submit([][]byte{payload}, false)
}

// AppendRecords writes the payloads as consecutive records from one
// caller: one group-commit hand-off and one write call, durable exactly
// as an Append of each payload in turn would be under the active policy.
// FsyncAlways: one fsync covering all of them, before the call returns.
// FsyncOnBatch: none — the call is not a batch boundary, however many
// records it carries; use AppendBatch to end a flush. FsyncInterval: by
// the timer. It is the entry point for a request acknowledged as a
// whole: what an ack means must follow from the policy, not from how
// many records the request held.
func (w *WAL) AppendRecords(payloads [][]byte) error {
	if len(payloads) == 0 {
		return nil
	}
	return w.submit(payloads, false)
}

// AppendBatch writes the payloads as consecutive records in one write
// call and marks the end of a batch: under FsyncOnBatch the batch is
// synced before returning.
func (w *WAL) AppendBatch(payloads [][]byte) error {
	if len(payloads) == 0 {
		return nil
	}
	return w.submit(payloads, true)
}

// shouldRotateLocked reports whether the active segment must be sealed
// before writing incoming more bytes.
func (w *WAL) shouldRotateLocked(incoming int64) bool {
	if w.activeSize <= SegmentHeaderSize {
		return false // never rotate an empty segment
	}
	return w.activeSize+incoming > w.opts.SegmentBytes
}

// rotateLocked seals the active segment and opens a fresh one. An empty
// active segment is left in place. The replacement is created (and its
// directory entry fsynced) BEFORE the old segment is closed: if creation
// fails — ENOSPC at rotation is the classic case — the old file stays
// active and the next append simply retries the rotation, instead of
// wedging every future append against a closed file.
func (w *WAL) rotateLocked() error {
	if w.activeSize <= SegmentHeaderSize {
		return nil
	}
	if err := w.syncLocked(); err != nil {
		return err
	}
	old, oldPath, oldStart, oldLast := w.active, w.activePath, w.activeStart, w.nextIndex-1
	if err := w.createActiveLocked(); err != nil {
		return err // old segment untouched, still active
	}
	w.sealed = append(w.sealed, sealedSeg{path: oldPath, first: oldStart, last: oldLast})
	w.rotations.Add(1)
	if err := old.Close(); err != nil {
		// The data is already synced; a close failure costs a descriptor,
		// not durability. The new segment stays active.
		return fmt.Errorf("wal: seal segment: %w", err)
	}
	return nil
}

// createActiveLocked opens a brand-new active segment whose first record
// index is nextIndex. The header is written and synced — and the
// directory entry fsynced — immediately, so a crash right after rotation
// leaves a well-formed, durably linked empty segment. On failure w's
// active-segment fields are untouched.
func (w *WAL) createActiveLocked() error {
	path := filepath.Join(w.opts.Dir, segmentName(w.nextIndex))
	f, err := w.fs.Create(path)
	if err != nil {
		if IsDiskFull(err) {
			w.diskFull.Store(true)
		}
		return fmt.Errorf("wal: create segment: %w", err)
	}
	if _, err := f.Write(encodeSegmentHeader(w.nextIndex)); err != nil {
		f.Close()
		if IsDiskFull(err) {
			w.diskFull.Store(true)
		}
		return fmt.Errorf("wal: write segment header: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: sync segment header: %w", err)
	}
	if err := w.fs.SyncDir(w.opts.Dir); err != nil {
		f.Close()
		return fmt.Errorf("wal: sync dir: %w", err)
	}
	w.active = f
	w.activePath = path
	w.activeStart = w.nextIndex
	w.activeSize = SegmentHeaderSize
	return nil
}

func (w *WAL) syncLocked() error {
	if err := w.active.Sync(); err != nil {
		if IsDiskFull(err) {
			w.diskFull.Store(true)
		}
		return fmt.Errorf("wal: sync: %w", err)
	}
	w.pending = 0
	w.lastSync = w.opts.Now()
	w.syncs.Add(1)
	return nil
}

// SetFsyncPolicy switches the durability policy at runtime. The
// admission layer's disk watermark uses this to degrade fsync=always to
// fsync=batch when free space runs low (fewer barriers, less write
// amplification) and to restore the original policy once space is
// reclaimed. Safe under concurrent appends: append reads the policy
// under the same mutex.
func (w *WAL) SetFsyncPolicy(p FsyncPolicy) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.opts.Fsync = p
}

// FsyncPolicyNow reports the currently active durability policy.
func (w *WAL) FsyncPolicyNow() FsyncPolicy {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.opts.Fsync
}

// Sync forces everything appended so far to stable storage.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	return w.syncLocked()
}

// SyncIndex forces everything appended so far to stable storage and
// returns the index of the last durable record (0 when the WAL holds
// none). Snapshot coverage must be captured through this, not
// LastIndex: under the batch/interval fsync policies LastIndex can run
// ahead of the durable tail, and a crash would leave a snapshot
// claiming to cover records the WAL lost.
func (w *WAL) SyncIndex() (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, ErrClosed
	}
	if err := w.syncLocked(); err != nil {
		return 0, err
	}
	return w.nextIndex - 1, nil
}

// SkipTo advances the WAL so the next appended record gets index at
// least next (no-op when it already would). Recovery can leave
// nextIndex behind a published snapshot's coverage — a truncated torn
// tail or a quarantined final segment rewinds it — and appends would
// then reuse indices the snapshot already covers, which the replay
// skip would silently drop on the NEXT recovery. The jump is made
// durable by sealing the active segment and starting a fresh one whose
// header declares the new first index.
func (w *WAL) SkipTo(next uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	if next <= w.nextIndex {
		return nil
	}
	hasRecords := w.activeSize > SegmentHeaderSize
	if hasRecords {
		if err := w.syncLocked(); err != nil {
			return err
		}
	}
	old, oldPath, oldStart, oldLast := w.active, w.activePath, w.activeStart, w.nextIndex-1
	prev := w.nextIndex
	w.nextIndex = next
	if err := w.createActiveLocked(); err != nil {
		w.nextIndex = prev
		return err
	}
	if hasRecords {
		w.sealed = append(w.sealed, sealedSeg{path: oldPath, first: oldStart, last: oldLast})
		w.rotations.Add(1)
		if err := old.Close(); err != nil {
			return fmt.Errorf("wal: seal segment: %w", err)
		}
		return nil
	}
	// The outgoing active segment held no records: retire the empty
	// file. Best effort — a leftover empty segment is recovered as an
	// empty sealed segment and compacted away later.
	old.Close()
	w.fs.Remove(oldPath)
	return nil
}

// Rotate seals the active segment and starts a new one (no-op when the
// active segment holds no records).
func (w *WAL) Rotate() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	return w.rotateLocked()
}

// Close syncs and closes the active segment. Close is idempotent. With
// group commit enabled the committer is drained first — queued appends
// are committed, not dropped — before the segment is sealed.
func (w *WAL) Close() error {
	if w.gc != nil {
		// Outside w.mu: the committer's final groups need the lock.
		w.gc.stop()
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	serr := w.syncLocked()
	cerr := w.active.Close()
	if serr != nil {
		return serr
	}
	return cerr
}

// Compact removes every sealed segment whose records are all covered by
// a snapshot at upTo (record indexes <= upTo). The active segment is
// never removed. It returns the number of segments retired.
func (w *WAL) Compact(upTo uint64) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	removed := 0
	var firstErr error
	keep := w.sealed[:0]
	for _, s := range w.sealed {
		if s.last <= upTo {
			if err := w.fs.Remove(s.path); err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("wal: compact: %w", err)
				}
				keep = append(keep, s)
				continue
			}
			removed++
			continue
		}
		keep = append(keep, s)
	}
	w.sealed = keep
	return removed, firstErr
}

// Dir returns the WAL directory.
func (w *WAL) Dir() string { return w.opts.Dir }

// NextIndex returns the index the next appended record will get.
func (w *WAL) NextIndex() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.nextIndex
}

// LastIndex returns the index of the most recently appended record (0
// when the WAL holds none).
func (w *WAL) LastIndex() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.nextIndex - 1
}

// Segments returns the number of live segment files (sealed + active).
func (w *WAL) Segments() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.sealed) + 1
}

// ActiveSegmentBytes returns the size of the active segment file.
func (w *WAL) ActiveSegmentBytes() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.activeSize
}

// Pending returns the number of records appended since the last
// successful sync — the window a crash can lose.
func (w *WAL) Pending() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.pending
}

// Appended returns the number of records appended since Open.
func (w *WAL) Appended() int64 { return w.appended.Load() }

// GroupCommitEnabled reports whether appends go through the group
// committer.
func (w *WAL) GroupCommitEnabled() bool { return w.gc != nil }

// GroupCommits returns the number of successful group commits since
// Open (0 when group commit is disabled). Appended()/GroupCommits() is
// the amortization ratio.
func (w *WAL) GroupCommits() int64 { return w.groupCommits.Load() }

// GroupQueueDepth returns the number of callers waiting on the group
// committer (0 when group commit is disabled).
func (w *WAL) GroupQueueDepth() int {
	if w.gc == nil {
		return 0
	}
	return w.gc.depth()
}

// Syncs returns the number of successful fsyncs since Open.
func (w *WAL) Syncs() int64 { return w.syncs.Load() }

// Rotations returns the number of segment rotations since Open.
func (w *WAL) Rotations() int64 { return w.rotations.Load() }

// AppendErrors returns the number of failed appends since Open.
func (w *WAL) AppendErrors() int64 { return w.appendErrs.Load() }

// DiskFull reports whether the most recent append or sync failed with
// an out-of-space error; it resets on the next successful append.
func (w *WAL) DiskFull() bool { return w.diskFull.Load() }

// IsDiskFull reports whether err is an out-of-space condition.
func IsDiskFull(err error) bool {
	return errors.Is(err, syscall.ENOSPC) || errors.Is(err, syscall.EDQUOT)
}
