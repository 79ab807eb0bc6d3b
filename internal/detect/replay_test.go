package detect_test

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"qtag/internal/beacon"
	. "qtag/internal/detect"
	"qtag/internal/wal"
)

// TestTornWALTailStillScores is the qtag-replay -detect durability
// contract: a journal whose tail was torn by a crash mid-write replays
// with the damage reported, and the fraud scores come out intact for
// everything before the tear — a flood that filled the journal is
// still flagged even though its final beacons are unreadable.
func TestTornWALTailStillScores(t *testing.T) {
	dir := t.TempDir()
	store := beacon.NewStore()
	wj, _, err := beacon.OpenDurable(wal.Options{Dir: dir, Fsync: wal.FsyncAlways}, store)
	if err != nil {
		t.Fatal(err)
	}
	sink := beacon.Tee(store, wj)
	t0 := time.Unix(1700000000, 0).UTC()
	// A duplicate flood: 20 impressions, every loaded beacon submitted
	// 5×. All accepted submissions — duplicates included — hit the WAL.
	for i := 0; i < 20; i++ {
		ev := beacon.Event{
			CampaignID:   "camp-flood",
			ImpressionID: fmt.Sprintf("imp-%03d", i),
			Source:       beacon.SourceQTag,
			Type:         beacon.EventLoaded,
			At:           t0.Add(time.Duration(i) * 50 * time.Millisecond),
		}
		for pass := 0; pass < 5; pass++ {
			if err := sink.Submit(ev); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := wj.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the tail: chop bytes off the final segment mid-record, the
	// signature of a crash during the last flush.
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments: %v", err)
	}
	sort.Strings(segs)
	last := segs[len(segs)-1]
	data, err := os.ReadFile(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(last, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	// The qtag-replay -detect wiring: fresh store, both detection hooks,
	// ReplayWALDir.
	replay := beacon.NewStore()
	det := New(Options{})
	replay.AddObserver(det.Observe)
	replay.AddDupObserver(det.ObserveDup)
	rec, err := beacon.ReplayWALDir(dir, replay)
	if err != nil {
		t.Fatalf("a torn tail must degrade, not fail: %v", err)
	}
	if !rec.TornTail {
		t.Fatalf("tear not reported: %+v", rec)
	}
	// Exactly one submission is lost — the one spanning the tear.
	if rec.Replayed != 99 {
		t.Fatalf("replayed %d of 100 submissions, want 99", rec.Replayed)
	}

	snap := det.Snapshot()
	if len(snap.Flagged) != 1 || snap.Flagged[0] != "camp-flood" {
		t.Fatalf("flood not flagged after torn-tail replay: %+v", snap)
	}
	row := snap.Rows[0]
	if row.Events+row.Dups != 99 {
		t.Fatalf("scored %d submissions, want 99: %+v", row.Events+row.Dups, row)
	}
	if row.Contribs[DetectorDuplicate] != 1 {
		t.Fatalf("duplicate contribution = %v, want 1", row.Contribs[DetectorDuplicate])
	}
}
