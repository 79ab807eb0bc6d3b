// The durable-layer tests live in an external test package so they can
// drive the WAL through the fault-injection harness: internal/faults
// imports internal/beacon, so an in-package test importing faults would
// be an import cycle.
package beacon_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	. "qtag/internal/beacon"
	"qtag/internal/faults"
	"qtag/internal/obs"
	"qtag/internal/wal"
)

// durEvent builds the i-th event of a deterministic workload; every
// index yields a distinct idempotency key.
func durEvent(i int) Event {
	return Event{
		ImpressionID: fmt.Sprintf("i-%04d", i),
		CampaignID:   "c1",
		Source:       SourceQTag,
		Type:         EventLoaded,
		At:           time.Unix(0, int64(i+1)).UTC(),
	}
}

func TestOpenDurableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	store := NewStore()
	j, rec, err := OpenDurable(wal.Options{Dir: dir}, store)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Records != 0 || rec.SnapshotRestored != 0 {
		t.Fatalf("fresh dir recovered %+v", rec)
	}
	for i := 0; i < 5; i++ {
		if err := j.Submit(durEvent(i)); err != nil {
			t.Fatal(err)
		}
	}
	batch := []Event{durEvent(5), durEvent(6), durEvent(7)}
	if err := j.SubmitBatch(batch); err != nil {
		t.Fatal(err)
	}
	if j.Len() != 8 {
		t.Fatalf("Len = %d, want 8", j.Len())
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	restored := NewStore()
	kept := Record(restored)
	j2, rec2, err := OpenDurable(wal.Options{Dir: dir}, restored)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if rec2.Replayed != 8 || restored.Len() != 8 {
		t.Fatalf("replayed %d into %d events, want 8/8 (%+v)", rec2.Replayed, restored.Len(), rec2)
	}
	if rec2.ReplaySkipped != 0 || rec2.Quarantined != 0 || rec2.TornTail {
		t.Fatalf("clean journal recovered dirty: %+v", rec2)
	}
	// The replayed store holds exactly the submitted workload.
	keys := make(map[string]bool)
	for _, e := range kept.Events() {
		keys[e.Key()] = true
	}
	for i := 0; i < 8; i++ {
		if !keys[durEvent(i).Key()] {
			t.Fatalf("event %d missing after replay", i)
		}
	}
}

func TestWALJournalSubmitValidates(t *testing.T) {
	dir := t.TempDir()
	j, _, err := OpenDurable(wal.Options{Dir: dir}, NewStore())
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.Submit(Event{}); !errors.Is(err, ErrNoImpression) {
		t.Fatalf("invalid event: %v", err)
	}
	if err := j.SubmitBatch([]Event{durEvent(0), {}}); !errors.Is(err, ErrNoImpression) {
		t.Fatalf("invalid batch: %v", err)
	}
	if j.Len() != 0 {
		t.Fatalf("invalid submissions landed: Len=%d", j.Len())
	}
}

func TestWALJournalSnapshotAndCompact(t *testing.T) {
	dir := t.TempDir()
	store := NewStore()
	// Tiny segments so the workload spans several files.
	opts := wal.Options{Dir: dir, SegmentBytes: 512}
	j, _, err := OpenDurable(opts, store)
	if err != nil {
		t.Fatal(err)
	}
	const total = 40
	for i := 0; i < total; i++ {
		e := durEvent(i)
		if err := store.Submit(e); err != nil { // Tee order: store first
			t.Fatal(err)
		}
		if err := j.Submit(e); err != nil {
			t.Fatal(err)
		}
	}
	if j.WAL().Segments() < 3 {
		t.Fatalf("workload did not rotate: %d segments", j.WAL().Segments())
	}
	wrote, err := j.Snapshot(store)
	if err != nil || !wrote {
		t.Fatalf("snapshot: wrote=%v err=%v", wrote, err)
	}
	// Every sealed segment is covered by the snapshot; only the active
	// segment survives compaction.
	if got := j.WAL().Segments(); got != 1 {
		t.Fatalf("segments after compaction = %d, want 1", got)
	}
	idx, at := j.SnapshotInfo()
	if idx != uint64(total) || at.IsZero() {
		t.Fatalf("snapshot info: idx=%d at=%v", idx, at)
	}
	// No new records: the next snapshot is a no-op.
	if wrote, err := j.Snapshot(store); err != nil || wrote {
		t.Fatalf("idle snapshot: wrote=%v err=%v", wrote, err)
	}
	// More events after the snapshot land in the WAL tail.
	for i := total; i < total+10; i++ {
		e := durEvent(i)
		store.Submit(e)
		if err := j.Submit(e); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	restored := NewStore()
	j2, rec, err := OpenDurable(opts, restored)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if rec.SnapshotIndex != uint64(total) || rec.SnapshotRestored != total {
		t.Fatalf("snapshot recovery: %+v", rec)
	}
	if rec.Replayed != 10 {
		t.Fatalf("tail replay = %d, want 10 (%+v)", rec.Replayed, rec)
	}
	if restored.Len() != total+10 {
		t.Fatalf("restored %d events, want %d", restored.Len(), total+10)
	}
	// Appending must continue from the pre-restart index.
	if got := j2.WAL().NextIndex(); got != uint64(total+10+1) {
		t.Fatalf("NextIndex = %d, want %d", got, total+10+1)
	}
}

func TestWALJournalSnapshotOverlapIsIdempotent(t *testing.T) {
	// A snapshot taken while the WAL still holds the same records (no
	// compaction possible: all in the active segment) makes recovery see
	// the data twice. The index check must skip the overlap.
	dir := t.TempDir()
	store := NewStore()
	j, _, err := OpenDurable(wal.Options{Dir: dir}, store)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		e := durEvent(i)
		store.Submit(e)
		if err := j.Submit(e); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := j.Snapshot(store); err != nil {
		t.Fatal(err)
	}
	j.Close()
	restored := NewStore()
	j2, rec, err := OpenDurable(wal.Options{Dir: dir}, restored)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if restored.Len() != 7 {
		t.Fatalf("restored %d events, want 7 (duplicates?)", restored.Len())
	}
	if rec.SnapshotRestored != 7 || rec.Replayed != 0 {
		t.Fatalf("overlap not skipped: %+v", rec)
	}
}

func TestWALJournalFlushIsDurable(t *testing.T) {
	// Flush is a durability boundary: after it returns, nothing is
	// pending. Under the default on-batch policy a lone
	// Submit is unsynced until then.
	dir := t.TempDir()
	j, _, err := OpenDurable(wal.Options{Dir: dir}, NewStore())
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.Submit(durEvent(0)); err != nil {
		t.Fatal(err)
	}
	if j.Pending() != 1 {
		t.Fatalf("pending before Flush = %d, want 1", j.Pending())
	}
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	if j.Pending() != 0 {
		t.Fatalf("pending after Flush = %d, want 0", j.Pending())
	}
}

func TestSnapshotCoverageNeverExceedsDurableTail(t *testing.T) {
	// The review scenario: under a deferred-fsync policy, a snapshot
	// whose coverage index ran ahead of the fsynced tail would — after a
	// crash that loses the page cache — leave the WAL's next index BELOW
	// the snapshot's coverage. Post-restart appends would then reuse
	// covered indices, and the next recovery's skip would silently drop
	// them. Snapshot now syncs before capturing coverage, and OpenDurable
	// skips the WAL forward past the snapshot, so events accepted after
	// the crash must always survive the following restart.
	dir := t.TempDir()
	cfs := faults.NewCrashFS(nil)
	cfs.DiscardUnsynced(true)
	store := NewStore()
	opts := wal.Options{Dir: dir, FS: cfs, Fsync: wal.FsyncInterval, FsyncEvery: time.Hour}
	j, _, err := OpenDurable(opts, store)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		e := durEvent(i)
		store.Submit(e)
		if err := j.Submit(e); err != nil {
			t.Fatal(err)
		}
	}
	if j.Pending() != 5 {
		t.Fatalf("pending = %d, want 5 (interval policy must defer fsync)", j.Pending())
	}
	wrote, err := j.Snapshot(store)
	if err != nil || !wrote {
		t.Fatalf("snapshot: wrote=%v err=%v", wrote, err)
	}
	// Coverage was captured with a sync: nothing the snapshot claims can
	// be lost by the crash below.
	if j.Pending() != 0 {
		t.Fatalf("pending after snapshot = %d, want 0", j.Pending())
	}
	// Crash with page-cache loss on the next write.
	cfs.CrashAfterBytes(0)
	if err := j.Submit(durEvent(5)); err == nil {
		t.Fatal("submit after crash point must fail")
	}

	// Restart 1: the snapshot restores everything; new events must get
	// indices past its coverage.
	restored := NewStore()
	j2, rec, err := OpenDurable(wal.Options{Dir: dir}, restored)
	if err != nil {
		t.Fatal(err)
	}
	if rec.SnapshotIndex != 5 || restored.Len() != 5 {
		t.Fatalf("restart 1: snapIndex=%d len=%d, want 5/5 (%+v)", rec.SnapshotIndex, restored.Len(), rec)
	}
	if got := j2.WAL().NextIndex(); got != 6 {
		t.Fatalf("restart 1: NextIndex = %d, want 6 (must not regress below snapshot coverage)", got)
	}
	for i := 5; i < 8; i++ {
		e := durEvent(i)
		restored.Submit(e)
		if err := j2.Submit(e); err != nil {
			t.Fatal(err)
		}
	}
	j2.Close()

	// Restart 2: the post-crash events must replay — with the old index
	// regression they would have been skipped as snapshot-covered.
	final := NewStore()
	j3, rec3, err := OpenDurable(wal.Options{Dir: dir}, final)
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	if rec3.Replayed != 3 || final.Len() != 8 {
		t.Fatalf("restart 2: replayed=%d len=%d, want 3/8 (%+v)", rec3.Replayed, final.Len(), rec3)
	}
}

func TestWALJournalDiskFullDegrades(t *testing.T) {
	dir := t.TempDir()
	cfs := faults.NewCrashFS(nil)
	cfs.FailWith(syscall.ENOSPC)
	store := NewStore()
	j, _, err := OpenDurable(wal.Options{Dir: dir, FS: cfs, Fsync: wal.FsyncAlways}, store)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	cfs.CrashAfterBytes(256) // the "disk" has 256 bytes left
	acked := 0
	var full error
	for i := 0; i < 100; i++ {
		if err := j.Submit(durEvent(i)); err != nil {
			full = err
			break
		}
		acked++
	}
	if full == nil || !wal.IsDiskFull(full) {
		t.Fatalf("want ENOSPC after %d acks, got %v", acked, full)
	}
	if !j.DiskFull() {
		t.Fatal("DiskFull must report the condition")
	}
	// The process survives: freeing space lets appends resume and clears
	// the alarm.
	cfs.Refill(1 << 20)
	if err := j.Submit(durEvent(200)); err != nil {
		t.Fatalf("append after refill: %v", err)
	}
	if j.DiskFull() {
		t.Fatal("DiskFull must clear on the next successful append")
	}
}

func TestWALJournalCorruptRecordQuarantined(t *testing.T) {
	dir := t.TempDir()
	store := NewStore()
	j, _, err := OpenDurable(wal.Options{Dir: dir}, store)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := j.Submit(durEvent(i)); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments: %v %v", segs, err)
	}
	// Flip a payload bit in the middle of the file: one record fails its
	// CRC, the rest replay.
	info, err := os.Stat(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := faults.FlipBit(segs[0], info.Size()/2, 1); err != nil {
		t.Fatal(err)
	}
	restored := NewStore()
	j2, rec, err := OpenDurable(wal.Options{Dir: dir}, restored)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Quarantined != 1 || len(rec.QuarantineFiles) != 1 {
		t.Fatalf("quarantine accounting: %+v", rec)
	}
	if restored.Len() != 5 || rec.Replayed != 5 {
		t.Fatalf("recovered %d events (replayed %d), want 5", restored.Len(), rec.Replayed)
	}
	side1, err := os.ReadFile(rec.QuarantineFiles[0])
	if err != nil {
		t.Fatal(err)
	}
	j2.Close()
	// A second recovery produces a byte-identical sidecar: quarantine
	// contents are a pure function of the segment.
	j3, rec3, err := OpenDurable(wal.Options{Dir: dir}, NewStore())
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	side2, err := os.ReadFile(rec3.QuarantineFiles[0])
	if err != nil {
		t.Fatal(err)
	}
	if string(side1) != string(side2) {
		t.Fatalf("quarantine sidecar not deterministic: %d vs %d bytes", len(side1), len(side2))
	}
}

func TestWALJournalMetrics(t *testing.T) {
	dir := t.TempDir()
	store := NewStore()
	j, _, err := OpenDurable(wal.Options{Dir: dir}, store)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	reg := obs.NewRegistry()
	j.RegisterMetrics(reg)
	vals := reg.Values()
	for _, name := range []string{
		"qtag_journal_events", "qtag_journal_pending",
		"qtag_wal_segments", "qtag_wal_active_segment_bytes",
		"qtag_wal_appended_total", "qtag_wal_syncs_total",
		"qtag_wal_rotations_total", "qtag_wal_append_errors_total",
		"qtag_wal_disk_full", "qtag_wal_recovery_seconds",
		"qtag_wal_recovery_segments", "qtag_wal_recovery_records",
		"qtag_wal_quarantined_records_total", "qtag_wal_replay_skipped_total",
		"qtag_wal_snapshots_total", "qtag_wal_compacted_segments_total",
		"qtag_wal_snapshot_age_seconds",
	} {
		if _, ok := vals[name]; !ok {
			t.Fatalf("metric %s missing (have %v)", name, vals)
		}
	}
	if vals["qtag_wal_snapshot_age_seconds"] != -1 {
		t.Fatalf("snapshot age before any snapshot = %v, want -1", vals["qtag_wal_snapshot_age_seconds"])
	}
	e := durEvent(0)
	store.Submit(e)
	j.Submit(e)
	if _, err := j.Snapshot(store); err != nil {
		t.Fatal(err)
	}
	vals = reg.Values()
	if vals["qtag_wal_snapshots_total"] != 1 {
		t.Fatalf("snapshots_total = %v", vals["qtag_wal_snapshots_total"])
	}
	if age := vals["qtag_wal_snapshot_age_seconds"]; age < 0 || age > 60 {
		t.Fatalf("snapshot age = %v", age)
	}
	if vals["qtag_wal_appended_total"] != 1 || vals["qtag_journal_events"] != 1 {
		t.Fatalf("append counters: %v", vals)
	}
}

func TestReplayWALDirReadOnly(t *testing.T) {
	dir := t.TempDir()
	store := NewStore()
	j, _, err := OpenDurable(wal.Options{Dir: dir, SegmentBytes: 512}, store)
	if err != nil {
		t.Fatal(err)
	}
	const total = 20
	for i := 0; i < total; i++ {
		e := durEvent(i)
		store.Submit(e)
		if err := j.Submit(e); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := j.Snapshot(store); err != nil {
		t.Fatal(err)
	}
	for i := total; i < total+5; i++ {
		e := durEvent(i)
		store.Submit(e)
		if err := j.Submit(e); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	// Corrupt one record in the tail segment.
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if len(segs) == 0 {
		t.Fatal("no segments")
	}
	last := segs[len(segs)-1]
	info, _ := os.Stat(last)
	if err := faults.FlipBit(last, info.Size()-3, 0); err != nil {
		t.Fatal(err)
	}

	sink := NewStore()
	rec, err := ReplayWALDir(dir, sink)
	if err != nil {
		t.Fatal(err)
	}
	if rec.SnapshotRestored != total {
		t.Fatalf("snapshot restored %d, want %d (%+v)", rec.SnapshotRestored, total, rec)
	}
	if rec.Quarantined != 1 {
		t.Fatalf("quarantined = %d, want 1 (%+v)", rec.Quarantined, rec)
	}
	if sink.Len() != total+4 {
		t.Fatalf("replayed into %d events, want %d", sink.Len(), total+4)
	}
	// Read-only: the scan must not have created quarantine sidecars or
	// modified the directory.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".quarantine") {
			t.Fatalf("read-only replay wrote %s", e.Name())
		}
	}
	// A missing directory replays to nothing, without error.
	rec, err = ReplayWALDir(filepath.Join(dir, "nope"), NewStore())
	if err != nil || rec.Records != 0 || rec.SnapshotRestored != 0 {
		t.Fatalf("missing dir: %+v %v", rec, err)
	}
}

// parkFS parks the first Create of a snapshot temp file until released,
// and reports every such Create.
type parkFS struct {
	wal.FS
	created chan string   // one send per *.snap.tmp Create, before it proceeds
	release chan struct{} // closed to let the parked first Create go on
	first   sync.Once
}

func (p *parkFS) Create(name string) (wal.File, error) {
	if strings.HasSuffix(name, ".snap.tmp") {
		p.created <- name
		p.first.Do(func() { <-p.release })
	}
	return p.FS.Create(name)
}

// TestWALJournalSnapshotIsOneAtATime: the periodic snapshot ticker and
// the parting snapshot of a shutdown can overlap. Two calls that saw the
// same coverage index used to open the same snap-<index>.snap.tmp (the
// second truncating what the first had written, both then appending to
// it), so the published snapshot could hold two payloads under one
// header — corrupt, with the segments it covers already compacted away.
// The second caller must wait for the first and then find nothing to do.
func TestWALJournalSnapshotIsOneAtATime(t *testing.T) {
	const n = 200
	dir := t.TempDir()
	fs := &parkFS{FS: wal.OS, created: make(chan string, 2), release: make(chan struct{})}
	store := NewStore()
	j, _, err := OpenDurable(wal.Options{Dir: dir, SegmentBytes: 2048, FS: fs}, store)
	if err != nil {
		t.Fatal(err)
	}
	sink := Tee(store, j)
	for i := 0; i < n; i++ {
		if err := sink.Submit(durEvent(i)); err != nil {
			t.Fatal(err)
		}
	}

	type result struct {
		wrote bool
		err   error
	}
	results := make(chan result, 2)
	snapshot := func() {
		wrote, err := j.Snapshot(store)
		results <- result{wrote, err}
	}
	go snapshot()
	<-fs.created // the first call is parked inside WriteSnapshot
	go snapshot()
	// The second call either reaches Create on the same temp file (the
	// bug: it arrives within microseconds) or is held off by the journal;
	// only then may the first go on.
	select {
	case name := <-fs.created:
		t.Errorf("a second snapshot opened %s while the first was still writing it", filepath.Base(name))
	case <-time.After(200 * time.Millisecond):
	}
	close(fs.release)

	wrote := 0
	for i := 0; i < 2; i++ {
		r := <-results
		if r.err != nil {
			t.Errorf("overlapping snapshot: %v", r.err)
		}
		if r.wrote {
			wrote++
		}
	}
	if wrote != 1 || len(fs.created) != 0 {
		t.Errorf("%d of 2 overlapping calls wrote a snapshot and %d more temp files were created, want 1 and 0",
			wrote, len(fs.created))
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	restored := NewStore()
	j2, rec, err := OpenDurable(wal.Options{Dir: dir}, restored)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if rec.CorruptSnapshots != 0 || rec.SnapshotRestored != n {
		t.Errorf("reopen: %d corrupt snapshots, %d events from the snapshot, want 0 and %d",
			rec.CorruptSnapshots, rec.SnapshotRestored, n)
	}
	if restored.Len() != n {
		t.Errorf("restored %d events, want %d", restored.Len(), n)
	}
}

// TestSnapshotKeepsALostSnapshotsEvents: a snapshot is rebuilt from the
// previous one and the WAL past it, and the segments the previous one
// covered may be compacted away, so when it no longer loads (bit rot)
// Snapshot fails rather than publish a payload that may lack the events
// only it held, and writes and compacts nothing.
func TestSnapshotKeepsALostSnapshotsEvents(t *testing.T) {
	dir := t.TempDir()
	j, _, err := OpenDurable(wal.Options{Dir: dir, Fsync: wal.FsyncAlways}, NewStore())
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	for i := 0; i < 10; i++ {
		if err := j.Submit(durEvent(i)); err != nil {
			t.Fatal(err)
		}
	}
	if wrote, err := j.Snapshot(nil); err != nil || !wrote {
		t.Fatalf("first snapshot: wrote=%v err=%v", wrote, err)
	}
	snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	if len(snaps) != 1 {
		t.Fatalf("%d snapshots, want 1", len(snaps))
	}
	info, _ := os.Stat(snaps[0])
	if err := faults.FlipBit(snaps[0], info.Size()-3, 0); err != nil {
		t.Fatal(err)
	}
	if err := j.Submit(durEvent(10)); err != nil {
		t.Fatal(err)
	}
	if wrote, err := j.Snapshot(nil); err == nil || wrote {
		t.Fatalf("snapshot over an unreadable one: wrote=%v err=%v, want an error", wrote, err)
	}
	if after, _ := filepath.Glob(filepath.Join(dir, "snap-*.snap")); len(after) != 1 || after[0] != snaps[0] {
		t.Fatalf("snapshots after the refusal: %v, want only %v", after, snaps)
	}
}

// TestSnapshotKeepsARottedRecordsSegment: a record past the previous
// snapshot that rots in a sealed segment after the store applied it no
// longer reads back, so Snapshot fails, writing nothing and compacting
// nothing — the segment stays, and the parent's snapshot with it. Once a
// restart has set the record aside (and counted it), it no longer holds
// snapshots back.
func TestSnapshotKeepsARottedRecordsSegment(t *testing.T) {
	dir := t.TempDir()
	opts := wal.Options{Dir: dir, Fsync: wal.FsyncAlways, SegmentBytes: 200}
	j, _, err := OpenDurable(opts, NewStore())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := j.Submit(durEvent(i)); err != nil {
			t.Fatal(err)
		}
	}
	if wrote, err := j.Snapshot(nil); err != nil || !wrote {
		t.Fatalf("first snapshot: wrote=%v err=%v", wrote, err)
	}
	snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	for i := 10; i < 20; i++ {
		if err := j.Submit(durEvent(i)); err != nil {
			t.Fatal(err)
		}
	}
	// A sealed segment whose records all come after the snapshot.
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if len(segs) < 3 {
		t.Fatalf("%d segments, want a sealed one past the snapshot", len(segs))
	}
	sealed := segs[len(segs)-2]
	if first, _ := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(filepath.Base(sealed), "wal-"), ".seg"), 16, 64); first <= 10 {
		t.Fatalf("segment %s holds records the snapshot covers", sealed)
	}
	info, _ := os.Stat(sealed)
	if err := faults.FlipBit(sealed, info.Size()-1, 0); err != nil {
		t.Fatal(err)
	}
	if wrote, err := j.Snapshot(nil); err == nil || wrote {
		t.Fatalf("snapshot over a rotted record: wrote=%v err=%v, want an error", wrote, err)
	}
	if _, err := os.Stat(sealed); err != nil {
		t.Fatalf("the rotted record's segment was compacted: %v", err)
	}
	if after, _ := filepath.Glob(filepath.Join(dir, "snap-*.snap")); !slices.Equal(after, snaps) {
		t.Fatalf("snapshots after the refusal: %v, want %v", after, snaps)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j, rec, err := OpenDurable(opts, NewStore())
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if rec.Quarantined != 1 {
		t.Fatalf("restart quarantined %d records, want the rotted one", rec.Quarantined)
	}
	if err := j.Submit(durEvent(20)); err != nil {
		t.Fatal(err)
	}
	if wrote, err := j.Snapshot(nil); err != nil || !wrote {
		t.Fatalf("snapshot after the restart set the record aside: wrote=%v err=%v", wrote, err)
	}
}

// stallingSink hands batches to the journal until stall is set, then
// fails them retryably: a journal that stopped taking writes.
type stallingSink struct {
	next  BatchSink
	stall atomic.Bool
}

func (s *stallingSink) Submit(e Event) error { return s.SubmitBatch([]Event{e}) }

func (s *stallingSink) SubmitBatch(events []Event) error {
	if s.stall.Load() {
		return errors.New("journal stalled")
	}
	return s.next.SubmitBatch(events)
}

// TestDrainDeadlineLosesQueuedBeacons: in async mode a beacon is acked
// once the store has applied it and the queue has taken it, and the WAL
// gets it when the queue drains. Beacons still queued when Close's drain
// deadline passes are abandoned and counted as dropped; the parting
// snapshot is built from the WAL, not from the store, so a restart does
// not bring them back although the store counted them.
func TestDrainDeadlineLosesQueuedBeacons(t *testing.T) {
	dir := t.TempDir()
	store := NewStore()
	j, _, err := OpenDurable(wal.Options{Dir: dir, Fsync: wal.FsyncAlways}, store)
	if err != nil {
		t.Fatal(err)
	}
	journal := &stallingSink{next: j}
	q := NewQueueSink(journal, QueueOptions{RetryDelay: time.Millisecond})
	chain := Tee(store, q)
	if err := chain.Submit(durEvent(0)); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); q.Stats().Flushed != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the first beacon never reached the journal")
		}
	}
	journal.stall.Store(true)
	for i := 1; i < 4; i++ {
		if err := chain.Submit(durEvent(i)); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := q.Close(ctx); err == nil {
		t.Fatal("the drain met its deadline with the journal stalled")
	}
	if st := q.Stats(); st.Dropped != 3 || store.Len() != 4 {
		t.Fatalf("after the deadline: %d dropped with %d events in the store, want 3 and 4", st.Dropped, store.Len())
	}
	if wrote, err := j.Snapshot(store); err != nil || !wrote {
		t.Fatalf("parting snapshot: wrote=%v err=%v", wrote, err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	restored := NewStore()
	if _, err := ReplayWALDir(dir, restored); err != nil {
		t.Fatal(err)
	}
	if restored.Len() != 1 {
		t.Fatalf("restart restored %d events, want only the one the journal took", restored.Len())
	}
}
