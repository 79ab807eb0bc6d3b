// Crash-point sweep: the durability layer is driven through the
// deterministic crash harness at every interesting byte offset, and the
// recovery invariants are asserted after each simulated crash:
//
//   - zero loss after fsync: every event acked before the last
//     successful sync is recovered;
//   - zero duplicates: every recovered record lands in the store exactly
//     once (replayed count == store size);
//   - prefix property: the recovered set is exactly the first N events
//     of the submission order — a crash never creates holes;
//   - exactness under FsyncAlways with page-cache loss: recovered ==
//     acked, byte for byte of the contract.
//
// External test package for the same reason as durable_test.go.
package beacon_test

import (
	"encoding/json"
	"sync"
	"testing"
	"time"

	. "qtag/internal/beacon"
	"qtag/internal/faults"
	"qtag/internal/wal"
)

const (
	crashBatchSize = 5
	crashBatches   = 6
	crashTotal     = crashBatchSize * crashBatches
)

// crashWorkload submits the fixed workload through j, returning how
// many events were acked and how many were acked at the time of the
// last known-successful fsync. syncEvery asks for an explicit Sync
// after every second batch (the FsyncInterval regime, where appends
// alone promise nothing).
func crashWorkload(j *WALJournal, policy wal.FsyncPolicy) (acked, synced int) {
	for b := 0; b < crashBatches; b++ {
		batch := make([]Event, 0, crashBatchSize)
		for i := 0; i < crashBatchSize; i++ {
			batch = append(batch, durEvent(b*crashBatchSize+i))
		}
		if err := j.SubmitBatch(batch); err != nil {
			return acked, synced
		}
		acked += crashBatchSize
		switch policy {
		case wal.FsyncAlways, wal.FsyncOnBatch:
			// AppendBatch syncs before acking under both policies.
			synced = acked
		case wal.FsyncInterval:
			if b%2 == 1 {
				if err := j.Sync(); err != nil {
					return acked, synced
				}
				synced = acked
			}
		}
	}
	return acked, synced
}

func crashOpts(dir string, fsys wal.FS, policy wal.FsyncPolicy) wal.Options {
	return wal.Options{
		Dir:          dir,
		FS:           fsys,
		Fsync:        policy,
		FsyncEvery:   time.Hour, // FsyncInterval: only explicit Syncs count
		SegmentBytes: 512,       // force rotations inside the workload
	}
}

func TestCrashPointSweep(t *testing.T) {
	// Dry run on an unarmed harness to learn the workload's total write
	// volume and the byte boundaries of each batch/sync step.
	dryDir := t.TempDir()
	dry := faults.NewCrashFS(nil)
	j, _, err := OpenDurable(crashOpts(dryDir, dry, wal.FsyncOnBatch), NewStore())
	if err != nil {
		t.Fatal(err)
	}
	boundaries := []int64{dry.BytesWritten()} // after Open (segment header)
	for b := 0; b < crashBatches; b++ {
		batch := make([]Event, 0, crashBatchSize)
		for i := 0; i < crashBatchSize; i++ {
			batch = append(batch, durEvent(b*crashBatchSize+i))
		}
		if err := j.SubmitBatch(batch); err != nil {
			t.Fatal(err)
		}
		boundaries = append(boundaries, dry.BytesWritten())
	}
	j.Close()
	total := dry.BytesWritten()
	if acked := int(j.WAL().Appended()); acked != crashTotal {
		t.Fatalf("dry run acked %d, want %d", acked, crashTotal)
	}

	// Sweep offsets: every write boundary ±1 plus every 13th byte.
	offsets := map[int64]bool{}
	for _, b := range boundaries {
		for _, d := range []int64{-1, 0, 1} {
			if b+d > 0 {
				offsets[b+d] = true
			}
		}
	}
	for off := int64(1); off <= total+wal.SegmentHeaderSize; off += 13 {
		offsets[off] = true
	}

	cases := []struct {
		name    string
		policy  wal.FsyncPolicy
		discard bool // lose the page cache at the crash instant
		exact   bool // recovered must equal acked exactly
	}{
		{"always-discard", wal.FsyncAlways, true, true},
		{"always-keep", wal.FsyncAlways, false, false},
		{"batch-discard", wal.FsyncOnBatch, true, false},
		{"interval-discard", wal.FsyncInterval, true, false},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			for off := range offsets {
				sweepOne(t, tc.policy, tc.discard, tc.exact, off)
			}
		})
	}
}

// sweepOne crashes one workload run at byte offset off and asserts the
// recovery invariants.
func sweepOne(t *testing.T, policy wal.FsyncPolicy, discard, exact bool, off int64) {
	t.Helper()
	dir := t.TempDir()
	cfs := faults.NewCrashFS(nil)
	cfs.DiscardUnsynced(discard)
	cfs.CrashAfterBytes(off)

	acked, synced := 0, 0
	if j, _, err := OpenDurable(crashOpts(dir, cfs, policy), NewStore()); err == nil {
		acked, synced = crashWorkload(j, policy)
		j.Close() // post-crash close errors are irrelevant
	}
	if policy == wal.FsyncAlways {
		synced = acked
	}

	// "Restart": recover the same directory on the real filesystem.
	store := NewStore()
	kept := Record(store)
	j2, rec, err := OpenDurable(crashOpts(dir, nil, policy), store)
	if err != nil {
		t.Fatalf("off=%d: recovery failed: %v (%+v)", off, err, rec)
	}
	recovered := store.Len()

	// Zero duplicates: every replayed record hit the store exactly once.
	if rec.Replayed != recovered {
		t.Fatalf("off=%d: replayed %d but store holds %d — duplicates", off, rec.Replayed, recovered)
	}
	// Zero loss after fsync / no invented events.
	if recovered < synced || recovered > crashTotal {
		t.Fatalf("off=%d: recovered %d, synced %d, acked %d", off, recovered, synced, acked)
	}
	if exact && recovered != acked {
		t.Fatalf("off=%d: FsyncAlways must recover exactly the acked set: recovered %d, acked %d", off, recovered, acked)
	}
	if !discard && recovered < acked {
		t.Fatalf("off=%d: cache-survives crash lost acked data: recovered %d, acked %d", off, recovered, acked)
	}
	// Prefix property: the recovered set is the first N submitted events.
	keys := map[string]bool{}
	for _, e := range kept.Events() {
		keys[e.Key()] = true
	}
	for i := 0; i < recovered; i++ {
		if !keys[durEvent(i).Key()] {
			t.Fatalf("off=%d: recovered %d events but event %d is missing — hole in the prefix", off, recovered, i)
		}
	}
	j2.Close()

	// Double restart: the first recovery repaired the directory, so the
	// second must be clean and change nothing.
	store2 := NewStore()
	j3, rec2, err := OpenDurable(crashOpts(dir, nil, policy), store2)
	if err != nil {
		t.Fatalf("off=%d: second recovery failed: %v", off, err)
	}
	defer j3.Close()
	if store2.Len() != recovered {
		t.Fatalf("off=%d: second recovery yielded %d events, first %d", off, store2.Len(), recovered)
	}
	if rec2.TornTail || rec2.TruncatedBytes != 0 {
		t.Fatalf("off=%d: second recovery still dirty: %+v", off, rec2)
	}
}

// TestCrashDuringSnapshotKeepsOldSnapshot crashes in the middle of
// writing a snapshot and verifies recovery falls back cleanly: either
// the old snapshot or a full WAL replay, never data loss.
func TestCrashDuringSnapshotKeepsOldSnapshot(t *testing.T) {
	dir := t.TempDir()
	store := NewStore()
	cfs := faults.NewCrashFS(nil)
	j, _, err := OpenDurable(crashOpts(dir, cfs, wal.FsyncAlways), store)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		e := durEvent(i)
		store.Submit(e)
		if err := j.Submit(e); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := j.Snapshot(store); err != nil {
		t.Fatal(err)
	}
	for i := 10; i < 20; i++ {
		e := durEvent(i)
		store.Submit(e)
		if err := j.Submit(e); err != nil {
			t.Fatal(err)
		}
	}
	// Crash partway through the second snapshot's payload: the JSONL of
	// the 20 events, each as the codec keeps it.
	payload := 0
	for i := 0; i < 20; i++ {
		kept, err := DecodeBinaryEvent(AppendBinaryEvent(nil, durEvent(i)))
		if err != nil {
			t.Fatal(err)
		}
		line, err := json.Marshal(kept)
		if err != nil {
			t.Fatal(err)
		}
		payload += len(line) + 1
	}
	cfs.CrashAfterBytes(int64(payload / 2))
	if _, err := j.Snapshot(store); err == nil {
		t.Fatal("snapshot through a crashed filesystem must fail")
	}
	j.Close()

	restored := NewStore()
	j2, rec, err := OpenDurable(crashOpts(dir, nil, wal.FsyncAlways), restored)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if restored.Len() != 20 {
		t.Fatalf("restored %d events, want 20 (%+v)", restored.Len(), rec)
	}
	if rec.SnapshotIndex != 10 {
		t.Fatalf("recovery used snapshot index %d, want the intact one at 10 (%+v)", rec.SnapshotIndex, rec)
	}
}

// TestCrashPointSweepGroupCommit sweeps crash points through a
// concurrent group-commit workload under FsyncAlways with page-cache
// loss. Group commit coalesces many callers' records into one write +
// one fsync; the contract is unchanged per caller: an acked Submit means
// the fsync covering that record completed before the ack. So after a
// crash at ANY byte offset — including mid-batch, where only part of a
// coalesced buffer reached the disk image —
//
//   - every acked event must be recovered (zero loss after fsync), and
//   - rec.Replayed == store.Len() (zero duplicates).
//
// Unacked events MAY be recovered (a commit that failed after its write
// partially landed): at-least-once, never at-most-zero.
//
// Every fsync takes about 200 µs, so concurrent Submits queue behind
// the one in flight and groups of several callers form — the sweep must
// see at least one, or no crash landed mid-group.
func TestCrashPointSweepGroupCommit(t *testing.T) {
	const (
		gcWorkers   = 6
		gcPerWorker = 15
		gcTotal     = gcWorkers * gcPerWorker
	)
	gcOpts := func(dir string, fsys wal.FS) wal.Options {
		return wal.Options{
			Dir:          dir,
			FS:           fsys,
			Fsync:        wal.FsyncAlways,
			SegmentBytes: 512, // rotations inside the workload
			GroupCommit:  true,
		}
	}
	grouped := false // some commit carried more than one caller's record
	// run executes the concurrent workload against fsys, its fsyncs
	// slowed, and returns the set of acked (durably promised) event keys.
	run := func(dir string, fsys wal.FS) map[string]bool {
		acked := map[string]bool{}
		j, _, err := OpenDurable(gcOpts(dir, slowSyncFS{FS: fsys, delay: 200 * time.Microsecond}), NewStore())
		if err != nil {
			return acked
		}
		defer func() {
			w := j.WAL()
			grouped = grouped || w.GroupCommits() < w.Appended()
		}()
		var mu sync.Mutex
		var wg sync.WaitGroup
		for w := 0; w < gcWorkers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < gcPerWorker; i++ {
					e := durEvent(w*gcPerWorker + i)
					if err := j.Submit(e); err != nil {
						return // crashed; this and later events are unacked
					}
					mu.Lock()
					acked[e.Key()] = true
					mu.Unlock()
				}
			}(w)
		}
		wg.Wait()
		j.Close() // post-crash close errors are irrelevant
		return acked
	}

	// Dry run on an unarmed harness to size the sweep.
	dry := faults.NewCrashFS(nil)
	if got := len(run(t.TempDir(), dry)); got != gcTotal {
		t.Fatalf("dry run acked %d, want %d", got, gcTotal)
	}
	total := dry.BytesWritten()

	for off := int64(1); off <= total+wal.SegmentHeaderSize; off += 97 {
		cfs := faults.NewCrashFS(nil)
		cfs.DiscardUnsynced(true) // page-cache loss at the crash instant
		cfs.CrashAfterBytes(off)
		dir := t.TempDir()
		acked := run(dir, cfs)

		store := NewStore()
		kept := Record(store)
		j2, rec, err := OpenDurable(gcOpts(dir, nil), store)
		if err != nil {
			t.Fatalf("off=%d: recovery failed: %v (%+v)", off, err, rec)
		}
		if rec.Replayed != store.Len() {
			t.Fatalf("off=%d: replayed %d but store holds %d — duplicates", off, rec.Replayed, store.Len())
		}
		recovered := map[string]bool{}
		for _, e := range kept.Events() {
			recovered[e.Key()] = true
		}
		for key := range acked {
			if !recovered[key] {
				t.Fatalf("off=%d: acked event %s lost after crash (acked %d, recovered %d)",
					off, key, len(acked), len(recovered))
			}
		}
		if store.Len() > gcTotal {
			t.Fatalf("off=%d: recovered %d events, more than the %d ever submitted", off, store.Len(), gcTotal)
		}
		j2.Close()
	}
	if !grouped {
		t.Fatal("no commit group held more than one caller: the sweep never crashed mid-group")
	}
}

// slowSyncFS makes every Sync of the files it opens take about delay
// longer, so concurrent callers queue behind the fsync in flight.
type slowSyncFS struct {
	wal.FS
	delay time.Duration
}

func (s slowSyncFS) OpenAppend(name string) (wal.File, error) { return s.wrap(s.FS.OpenAppend(name)) }
func (s slowSyncFS) Create(name string) (wal.File, error)     { return s.wrap(s.FS.Create(name)) }

func (s slowSyncFS) wrap(f wal.File, err error) (wal.File, error) {
	if err != nil {
		return nil, err
	}
	return slowSyncFile{File: f, delay: s.delay}, nil
}

type slowSyncFile struct {
	wal.File
	delay time.Duration
}

func (f slowSyncFile) Sync() error {
	time.Sleep(f.delay)
	return f.File.Sync()
}

// TestCrashPointSweepRequestFrame crashes inside the single frame a
// 64-event request is written as (RequestSink: one hand-off, one write).
// A request is acked only when its whole frame — and under FsyncAlways
// the fsync covering it — has returned, so at ANY byte offset:
//
//   - every acked request is recovered whole (acked ⊆ recovered);
//   - zero duplicates (replayed == store size);
//   - a torn frame recovers a record-aligned prefix of its request —
//     never a hole — and that request was never acked;
//   - with page-cache loss under FsyncAlways, recovered == acked exactly.
func TestCrashPointSweepRequestFrame(t *testing.T) {
	const (
		reqSize  = 64
		requests = 3
	)
	opts := func(dir string, fsys wal.FS, policy wal.FsyncPolicy, group bool) wal.Options {
		return wal.Options{
			Dir:          dir,
			FS:           fsys,
			Fsync:        policy,
			SegmentBytes: 5 << 10, // two 2.1 KB request frames a segment: one rotation inside the workload
			GroupCommit:  group,
		}
	}
	// run posts the requests through j's request face and returns how
	// many events were acked.
	run := func(dir string, fsys wal.FS, policy wal.FsyncPolicy, group bool) int {
		j, _, err := OpenDurable(opts(dir, fsys, policy, group), NewStore())
		if err != nil {
			return 0
		}
		defer j.Close() // post-crash close errors are irrelevant
		sink := j.RequestSink()
		for r := 0; r < requests; r++ {
			batch := make([]Event, 0, reqSize)
			for i := 0; i < reqSize; i++ {
				batch = append(batch, durEvent(r*reqSize+i))
			}
			if err := sink.SubmitBatch(batch); err != nil {
				return r * reqSize
			}
		}
		return requests * reqSize
	}

	dry := faults.NewCrashFS(nil)
	if got := run(t.TempDir(), dry, wal.FsyncAlways, false); got != requests*reqSize {
		t.Fatalf("dry run acked %d, want %d", got, requests*reqSize)
	}
	total := dry.BytesWritten()

	for _, tc := range []struct {
		name    string
		policy  wal.FsyncPolicy
		group   bool
		discard bool
	}{
		{"always-discard", wal.FsyncAlways, false, true},
		{"always-discard-group", wal.FsyncAlways, true, true},
		{"always-keep", wal.FsyncAlways, false, false},
		{"batch-keep-group", wal.FsyncOnBatch, true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			torn := 0
			for off := int64(1); off <= total+wal.SegmentHeaderSize; off += 29 {
				cfs := faults.NewCrashFS(nil)
				cfs.DiscardUnsynced(tc.discard)
				cfs.CrashAfterBytes(off)
				dir := t.TempDir()
				acked := run(dir, cfs, tc.policy, tc.group)

				store := NewStore()
				kept := Record(store)
				j2, rec, err := OpenDurable(opts(dir, nil, tc.policy, tc.group), store)
				if err != nil {
					t.Fatalf("off=%d: recovery failed: %v (%+v)", off, err, rec)
				}
				j2.Close()
				recovered := store.Len()
				if rec.Replayed != recovered {
					t.Fatalf("off=%d: replayed %d but store holds %d — duplicates", off, rec.Replayed, recovered)
				}
				if recovered < acked {
					t.Fatalf("off=%d: acked %d events, recovered %d", off, acked, recovered)
				}
				if tc.discard && recovered != acked {
					t.Fatalf("off=%d: FsyncAlways with page-cache loss must recover exactly the acked set: recovered %d, acked %d", off, recovered, acked)
				}
				// Whatever survives beyond the acked requests is the front of
				// the one request whose frame was torn.
				if recovered >= acked+reqSize && acked < requests*reqSize {
					t.Fatalf("off=%d: recovered %d events: a whole unacked request on top of the %d acked", off, recovered, acked)
				}
				if recovered%reqSize != 0 {
					torn++
				}
				keys := map[string]bool{}
				for _, e := range kept.Events() {
					keys[e.Key()] = true
				}
				for i := 0; i < recovered; i++ {
					if !keys[durEvent(i).Key()] {
						t.Fatalf("off=%d: recovered %d events but event %d is missing — hole in the prefix", off, recovered, i)
					}
				}
			}
			if !tc.discard && torn == 0 {
				t.Fatal("the sweep never tore a request frame; it is not testing what it claims")
			}
		})
	}
}

// TestCrashSweepIsDeterministic reruns one crash offset twice and
// demands identical outcomes — the harness itself must not flake.
func TestCrashSweepIsDeterministic(t *testing.T) {
	run := func() (int, int, int) {
		dir := t.TempDir()
		cfs := faults.NewCrashFS(nil)
		cfs.DiscardUnsynced(true)
		cfs.CrashAfterBytes(700)
		acked := 0
		if j, _, err := OpenDurable(crashOpts(dir, cfs, wal.FsyncOnBatch), NewStore()); err == nil {
			acked, _ = crashWorkload(j, wal.FsyncOnBatch)
			j.Close()
		}
		store := NewStore()
		j2, rec, err := OpenDurable(crashOpts(dir, nil, wal.FsyncOnBatch), store)
		if err != nil {
			t.Fatal(err)
		}
		j2.Close()
		return acked, store.Len(), rec.Segments
	}
	a1, r1, s1 := run()
	a2, r2, s2 := run()
	if a1 != a2 || r1 != r2 || s1 != s2 {
		t.Fatalf("non-deterministic crash: (%d,%d,%d) vs (%d,%d,%d)", a1, r1, s1, a2, r2, s2)
	}
	if a1 == 0 || a1 == crashTotal {
		t.Fatalf("offset 700 should crash mid-workload, acked %d", a1)
	}
}
