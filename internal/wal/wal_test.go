package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func payloads(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = []byte(fmt.Sprintf(`{"rec":%d,"pad":"xxxxxxxxxxxxxxxx"}`, i))
	}
	return out
}

// collectReplay returns a replay callback appending (index, payload)
// pairs into the given slices.
func collectReplay(idx *[]uint64, recs *[][]byte) func(uint64, []byte) error {
	return func(i uint64, p []byte) error {
		*idx = append(*idx, i)
		*recs = append(*recs, append([]byte(nil), p...))
		return nil
	}
}

func TestRecordCodecRoundTrip(t *testing.T) {
	for _, payload := range [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte("ab"), 1000)} {
		frame := EncodeRecord(nil, payload)
		got, n, err := DecodeRecord(frame, 0)
		if err != nil || n != len(frame) {
			t.Fatalf("decode: n=%d err=%v", n, err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("payload mismatch: %q != %q", got, payload)
		}
	}
}

func TestRecordCodecErrors(t *testing.T) {
	frame := EncodeRecord(nil, []byte("hello world"))
	if _, _, err := DecodeRecord(frame[:5], 0); !errors.Is(err, ErrShortRecord) {
		t.Fatalf("short header: %v", err)
	}
	if _, _, err := DecodeRecord(frame[:len(frame)-1], 0); !errors.Is(err, ErrShortRecord) {
		t.Fatalf("short payload: %v", err)
	}
	corrupt := append([]byte(nil), frame...)
	corrupt[RecordHeaderSize] ^= 0x40
	_, n, err := DecodeRecord(corrupt, 0)
	if !errors.Is(err, ErrChecksum) || n != len(frame) {
		t.Fatalf("corrupt payload: n=%d err=%v", n, err)
	}
	big := EncodeRecord(nil, bytes.Repeat([]byte("x"), 100))
	if _, _, err := DecodeRecord(big, 10); !errors.Is(err, ErrRecordTooLarge) {
		t.Fatalf("oversized: %v", err)
	}
}

func TestOpenAppendReopenReplay(t *testing.T) {
	dir := t.TempDir()
	w, res, err := Open(Options{Dir: dir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Segments != 0 || res.Records != 0 {
		t.Fatalf("fresh dir recovery: %+v", res)
	}
	ps := payloads(10)
	for _, p := range ps[:5] {
		if err := w.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.AppendBatch(ps[5:]); err != nil {
		t.Fatal(err)
	}
	if got := w.LastIndex(); got != 10 {
		t.Fatalf("LastIndex = %d, want 10", got)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal("second Close must be a no-op:", err)
	}
	if err := w.Append([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: %v", err)
	}

	var idx []uint64
	var recs [][]byte
	w2, res2, err := Open(Options{Dir: dir}, collectReplay(&idx, &recs))
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if res2.Records != 10 || res2.Segments != 1 || res2.Quarantined != 0 || res2.TornTail {
		t.Fatalf("recovery: %+v", res2)
	}
	for i, p := range recs {
		if idx[i] != uint64(i+1) || !bytes.Equal(p, ps[i]) {
			t.Fatalf("record %d: idx=%d payload=%q", i, idx[i], p)
		}
	}
	if w2.NextIndex() != 11 {
		t.Fatalf("NextIndex = %d, want 11", w2.NextIndex())
	}
}

func TestRotationBySize(t *testing.T) {
	dir := t.TempDir()
	w, _, err := Open(Options{Dir: dir, SegmentBytes: 200}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ps := payloads(20)
	for _, p := range ps {
		if err := w.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if w.Segments() < 3 {
		t.Fatalf("expected several segments, got %d", w.Segments())
	}
	if w.Rotations() != int64(w.Segments()-1) {
		t.Fatalf("rotations %d vs segments %d", w.Rotations(), w.Segments())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var idx []uint64
	var recs [][]byte
	w2, res, err := Open(Options{Dir: dir, SegmentBytes: 200}, collectReplay(&idx, &recs))
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if res.Records != 20 || res.Segments < 3 {
		t.Fatalf("recovery across segments: %+v", res)
	}
	for i := range recs {
		if !bytes.Equal(recs[i], ps[i]) {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

func TestFsyncPolicies(t *testing.T) {
	t.Run("always", func(t *testing.T) {
		w, _, err := Open(Options{Dir: t.TempDir(), Fsync: FsyncAlways}, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		w.Append([]byte("a"))
		if w.Pending() != 0 {
			t.Fatalf("FsyncAlways left %d pending", w.Pending())
		}
		before := w.Syncs()
		w.AppendRecords(payloads(64))
		if got := w.Syncs() - before; got != 1 || w.Pending() != 0 {
			t.Fatalf("AppendRecords of 64 under FsyncAlways: %d fsyncs, %d pending; want one fsync covering all", got, w.Pending())
		}
	})
	t.Run("batch", func(t *testing.T) {
		w, _, err := Open(Options{Dir: t.TempDir(), Fsync: FsyncOnBatch}, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		w.Append([]byte("a"))
		if w.Pending() != 1 {
			t.Fatalf("single append under FsyncOnBatch should stay pending, got %d", w.Pending())
		}
		w.AppendRecords(payloads(64))
		if w.Pending() != 65 {
			t.Fatalf("AppendRecords is not a batch boundary: want 65 pending under FsyncOnBatch, got %d", w.Pending())
		}
		w.AppendBatch([][]byte{[]byte("b"), []byte("c")})
		if w.Pending() != 0 {
			t.Fatalf("AppendBatch under FsyncOnBatch left %d pending", w.Pending())
		}
	})
	t.Run("interval", func(t *testing.T) {
		now := time.Unix(1000, 0)
		clock := func() time.Time { return now }
		w, _, err := Open(Options{Dir: t.TempDir(), Fsync: FsyncInterval, FsyncEvery: time.Second, Now: clock}, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		w.Append([]byte("a"))
		if w.Pending() != 1 {
			t.Fatalf("interval not elapsed, want pending 1, got %d", w.Pending())
		}
		w.AppendRecords(payloads(3))
		if w.Pending() != 4 {
			t.Fatalf("interval not elapsed, want pending 4, got %d", w.Pending())
		}
		now = now.Add(2 * time.Second)
		w.Append([]byte("b"))
		if w.Pending() != 0 {
			t.Fatalf("interval elapsed, want pending 0, got %d", w.Pending())
		}
	})
}

func TestParseFsyncPolicy(t *testing.T) {
	for in, want := range map[string]FsyncPolicy{
		"always": FsyncAlways, "Interval": FsyncInterval, "batch": FsyncOnBatch, "on-batch": FsyncOnBatch,
	} {
		got, err := ParseFsyncPolicy(in)
		if err != nil || got != want {
			t.Fatalf("ParseFsyncPolicy(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseFsyncPolicy("bogus"); err == nil {
		t.Fatal("bogus policy accepted")
	}
	if FsyncAlways.String() != "always" || FsyncOnBatch.String() != "batch" || FsyncInterval.String() != "interval" {
		t.Fatal("FsyncPolicy.String mismatch")
	}
}

func TestCompactRetiresCoveredSegments(t *testing.T) {
	dir := t.TempDir()
	w, _, err := Open(Options{Dir: dir, SegmentBytes: 150}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ps := payloads(12)
	for _, p := range ps {
		if err := w.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	total := w.Segments()
	if total < 4 {
		t.Fatalf("want >= 4 segments, got %d", total)
	}
	// Compacting to 0 removes nothing.
	if n, err := w.Compact(0); n != 0 || err != nil {
		t.Fatalf("Compact(0) = %d, %v", n, err)
	}
	// Compacting the full range removes all sealed segments but never
	// the active one.
	n, err := w.Compact(w.LastIndex())
	if err != nil {
		t.Fatal(err)
	}
	if n != total-1 || w.Segments() != 1 {
		t.Fatalf("Compact removed %d, %d segments remain", n, w.Segments())
	}
	if err := w.Append([]byte("after-compact")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Recovery over a compacted directory starts from the surviving
	// segment's declared first index.
	var idx []uint64
	var recs [][]byte
	_, res, err := Open(Options{Dir: dir}, collectReplay(&idx, &recs))
	if err != nil {
		t.Fatal(err)
	}
	if res.Records == 0 || res.Records > len(ps)+1 {
		t.Fatalf("recovery after compact: %+v", res)
	}
	if idx[len(idx)-1] != 13 || !bytes.Equal(recs[len(recs)-1], []byte("after-compact")) {
		t.Fatalf("last record: idx=%d payload=%q", idx[len(idx)-1], recs[len(recs)-1])
	}
}

func TestRejectOversizedRecord(t *testing.T) {
	w, _, err := Open(Options{Dir: t.TempDir(), MaxRecordBytes: 8}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Append(bytes.Repeat([]byte("x"), 9)); !errors.Is(err, ErrRecordTooLarge) {
		t.Fatalf("oversized append: %v", err)
	}
	if err := w.Append([]byte("ok")); err != nil {
		t.Fatal(err)
	}
	if w.LastIndex() != 1 {
		t.Fatalf("rejected record consumed an index: last=%d", w.LastIndex())
	}
}

// segPath returns the path of the idx-th segment file in dir (sorted).
func segPath(t *testing.T, dir string, idx int) string {
	t.Helper()
	segs, err := listSegments(OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	if idx >= len(segs) {
		t.Fatalf("want segment %d, have %d", idx, len(segs))
	}
	return segs[idx].path
}

func TestRecoveryTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	w, _, err := Open(Options{Dir: dir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ps := payloads(5)
	for _, p := range ps {
		if err := w.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the tail: chop the last 10 bytes, splitting the final record.
	path := segPath(t, dir, 0)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-10], 0o644); err != nil {
		t.Fatal(err)
	}

	var idx []uint64
	var recs [][]byte
	w2, res, err := Open(Options{Dir: dir}, collectReplay(&idx, &recs))
	if err != nil {
		t.Fatal(err)
	}
	if !res.TornTail || res.Records != 4 || res.Quarantined != 0 {
		t.Fatalf("torn tail recovery: %+v", res)
	}
	if res.TruncatedBytes == 0 {
		t.Fatal("no truncation accounted")
	}
	// The torn record's index is reused: appending continues where the
	// valid prefix ended.
	if w2.NextIndex() != 5 {
		t.Fatalf("NextIndex = %d, want 5", w2.NextIndex())
	}
	if err := w2.Append([]byte("recovered")); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	var recs2 [][]byte
	var idx2 []uint64
	_, res3, err := Open(Options{Dir: dir}, collectReplay(&idx2, &recs2))
	if err != nil {
		t.Fatal(err)
	}
	if res3.TornTail || res3.Records != 5 {
		t.Fatalf("post-repair recovery: %+v", res3)
	}
	if !bytes.Equal(recs2[4], []byte("recovered")) {
		t.Fatalf("appended-after-tear record = %q", recs2[4])
	}
}

func TestRecoveryQuarantinesCorruptMidStreamRecord(t *testing.T) {
	dir := t.TempDir()
	w, _, err := Open(Options{Dir: dir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ps := payloads(6)
	for _, p := range ps {
		if err := w.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip one bit inside the payload of record 3 (records are equal
	// sized here, so compute its offset directly).
	frame := len(EncodeRecord(nil, ps[0]))
	path := segPath(t, dir, 0)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	off := SegmentHeaderSize + 2*frame + RecordHeaderSize + 3
	data[off] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	var idx []uint64
	var recs [][]byte
	w2, res, err := Open(Options{Dir: dir}, collectReplay(&idx, &recs))
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if res.Records != 5 || res.Quarantined != 1 || res.TornTail {
		t.Fatalf("mid-stream corruption recovery: %+v", res)
	}
	// Records after the corrupt one are still replayed, with their
	// original indexes (the corrupt record keeps its index 3).
	wantIdx := []uint64{1, 2, 4, 5, 6}
	for i, want := range wantIdx {
		if idx[i] != want {
			t.Fatalf("replayed indexes %v, want %v", idx, wantIdx)
		}
	}
	// The sidecar holds exactly the corrupted frame, deterministically.
	side, err := os.ReadFile(path + ".quarantine")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(side, data[SegmentHeaderSize+2*frame:SegmentHeaderSize+3*frame]) {
		t.Fatal("quarantine sidecar != corrupted frame bytes")
	}
	if res.QuarantinedBytes != int64(frame) {
		t.Fatalf("QuarantinedBytes = %d, want %d", res.QuarantinedBytes, frame)
	}

	// A second recovery of the same directory is byte-identical: same
	// stats, same sidecar.
	w3, res2, err := Open(Options{Dir: dir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w3.Close()
	if res2.Records != res.Records+0 || res2.Quarantined != 1 {
		t.Fatalf("second recovery drifted: %+v vs %+v", res2, res)
	}
	side2, err := os.ReadFile(path + ".quarantine")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(side, side2) {
		t.Fatal("quarantine sidecar not deterministic across recoveries")
	}
}

func TestRecoveryQuarantinesBadHeaderSegment(t *testing.T) {
	dir := t.TempDir()
	w, _, err := Open(Options{Dir: dir, SegmentBytes: 150}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ps := payloads(8)
	for _, p := range ps {
		if err := w.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if w.Segments() < 3 {
		t.Fatalf("want >= 3 segments, got %d", w.Segments())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Destroy the header of the middle segment.
	path := segPath(t, dir, 1)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	copy(data, "GARBAGE!")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	w2, res, err := Open(Options{Dir: dir, SegmentBytes: 150}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if res.Quarantined != 1 || res.QuarantinedBytes != int64(len(data)) {
		t.Fatalf("bad header recovery: %+v", res)
	}
	if _, err := os.Stat(path + ".quarantine"); err != nil {
		t.Fatal("quarantined segment not renamed:", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("bad segment still present under its original name")
	}
}

func TestRecoveryDropsTornSegmentStub(t *testing.T) {
	dir := t.TempDir()
	w, _, err := Open(Options{Dir: dir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash between segment Create and the header write: a
	// too-short stub with a name sorting after the real segment.
	stub := filepath.Join(dir, segmentName(99))
	if err := os.WriteFile(stub, []byte("QWAL"), 0o644); err != nil {
		t.Fatal(err)
	}
	w2, res, err := Open(Options{Dir: dir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if res.Records != 1 || !res.TornTail || res.TruncatedBytes != 4 {
		t.Fatalf("stub recovery: %+v", res)
	}
	if _, err := os.Stat(stub); !os.IsNotExist(err) {
		t.Fatal("torn stub still present")
	}
}

func TestScanIsReadOnlyAndMatchesRecovery(t *testing.T) {
	dir := t.TempDir()
	w, _, err := Open(Options{Dir: dir, SegmentBytes: 150}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ps := payloads(8)
	for _, p := range ps {
		if err := w.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the final segment.
	path := segPath(t, dir, 2)
	data, _ := os.ReadFile(path)
	os.WriteFile(path, data[:len(data)-5], 0o644)

	before, _ := os.ReadDir(dir)
	var recs [][]byte
	var idx []uint64
	res, err := Scan(nil, dir, collectReplay(&idx, &recs))
	if err != nil {
		t.Fatal(err)
	}
	if !res.TornTail || res.TruncatedBytes == 0 {
		t.Fatalf("scan of torn dir: %+v", res)
	}
	after, _ := os.ReadDir(dir)
	if len(before) != len(after) {
		t.Fatal("Scan mutated the directory")
	}
	got, _ := os.ReadFile(path)
	if !bytes.Equal(got, data[:len(data)-5]) {
		t.Fatal("Scan truncated the torn segment")
	}
	// Scan of a missing directory is empty, not an error.
	if res, err := Scan(nil, filepath.Join(dir, "missing"), nil); err != nil || res.Segments != 0 {
		t.Fatalf("scan of missing dir: %+v, %v", res, err)
	}
}

func TestSnapshotWriteLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	at := time.Unix(1234, 5678)
	payload := []byte("state-of-the-world")
	path, err := WriteSnapshot(nil, dir, 42, at, payload)
	if err != nil {
		t.Fatal(err)
	}
	snap, corrupt, err := LoadSnapshot(nil, dir)
	if err != nil || corrupt != 0 {
		t.Fatalf("load: corrupt=%d err=%v", corrupt, err)
	}
	if snap == nil || snap.LastIndex != 42 || !snap.CreatedAt.Equal(at) || !bytes.Equal(snap.Payload, payload) || snap.Path != path {
		t.Fatalf("snapshot mismatch: %+v", snap)
	}
	// A newer snapshot supersedes and retires the old one.
	if _, err := WriteSnapshot(nil, dir, 100, at.Add(time.Hour), []byte("newer")); err != nil {
		t.Fatal(err)
	}
	snap2, _, err := LoadSnapshot(nil, dir)
	if err != nil || snap2.LastIndex != 100 {
		t.Fatalf("newest snapshot: %+v, %v", snap2, err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("older snapshot not retired")
	}
}

func TestLoadSnapshotSkipsCorrupt(t *testing.T) {
	dir := t.TempDir()
	if _, err := WriteSnapshot(nil, dir, 10, time.Unix(1, 0), []byte("old-but-good")); err != nil {
		t.Fatal(err)
	}
	// Forge a newer, corrupt snapshot.
	newer := filepath.Join(dir, snapshotName(20))
	good, _ := os.ReadFile(filepath.Join(dir, snapshotName(10)))
	bad := append([]byte(nil), good...)
	bad[len(bad)-1] ^= 0xff
	if err := os.WriteFile(newer, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	snap, corrupt, err := LoadSnapshot(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	if corrupt != 1 || snap == nil || snap.LastIndex != 10 {
		t.Fatalf("fallback: corrupt=%d snap=%+v", corrupt, snap)
	}
	// Nothing at all → nil without error.
	snap, corrupt, err = LoadSnapshot(nil, t.TempDir())
	if err != nil || snap != nil || corrupt != 0 {
		t.Fatalf("empty dir: %+v %d %v", snap, corrupt, err)
	}
	snap, corrupt, err = LoadSnapshot(nil, filepath.Join(dir, "missing"))
	if err != nil || snap != nil || corrupt != 0 {
		t.Fatalf("missing dir: %+v %d %v", snap, corrupt, err)
	}
}

func TestConcurrentAppendsRecoverCompletely(t *testing.T) {
	dir := t.TempDir()
	w, _, err := Open(Options{Dir: dir, SegmentBytes: 4096}, nil)
	if err != nil {
		t.Fatal(err)
	}
	const writers, each = 8, 50
	done := make(chan struct{})
	for g := 0; g < writers; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < each; i++ {
				if err := w.Append([]byte(fmt.Sprintf("g%02d-%03d", g, i))); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	for g := 0; g < writers; g++ {
		<-done
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	_, res, err := Open(Options{Dir: dir}, func(_ uint64, p []byte) error {
		seen[string(p)] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Records != writers*each || len(seen) != writers*each {
		t.Fatalf("recovered %d records, %d distinct; want %d", res.Records, len(seen), writers*each)
	}
}
