package cluster

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"qtag/internal/beacon"
	"qtag/internal/faults"
)

func hintEvent(i int) beacon.Event {
	return beacon.Event{
		ImpressionID: fmt.Sprintf("imp-%04d", i),
		CampaignID:   "c1",
		Source:       beacon.SourceQTag,
		Type:         beacon.EventLoaded,
		At:           time.Unix(1000, 0),
	}
}

func TestHintLogAppendDrainCompact(t *testing.T) {
	h, err := OpenHintLog(HintOptions{Dir: t.TempDir(), DrainBatch: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	for i := 0; i < 10; i++ {
		if err := h.Append("peer1", hintEvent(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := h.Pending("peer1"); got != 10 {
		t.Fatalf("pending = %d, want 10", got)
	}

	var got []beacon.Event
	n, err := h.Drain("peer1", func(batch []beacon.Event) error {
		got = append(got, batch...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 10 || len(got) != 10 {
		t.Fatalf("drained %d (%d events), want 10", n, len(got))
	}
	for i, e := range got {
		if e.ImpressionID != fmt.Sprintf("imp-%04d", i) {
			t.Fatalf("event %d out of order: %s", i, e.ImpressionID)
		}
	}
	if got := h.Pending("peer1"); got != 0 {
		t.Fatalf("pending after drain = %d, want 0", got)
	}
	// A second drain has nothing to deliver.
	n, err = h.Drain("peer1", func([]beacon.Event) error {
		t.Fatal("forward called with nothing pending")
		return nil
	})
	if err != nil || n != 0 {
		t.Fatalf("idle drain = (%d, %v), want (0, nil)", n, err)
	}
}

func TestHintLogDrainFailureRedelivers(t *testing.T) {
	h, err := OpenHintLog(HintOptions{Dir: t.TempDir(), DrainBatch: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	for i := 0; i < 6; i++ {
		if err := h.Append("p", hintEvent(i)); err != nil {
			t.Fatal(err)
		}
	}

	// First drain delivers one batch then dies: nothing is marked
	// drained, so the retry redelivers everything — including the batch
	// that already landed. The owner's dedup absorbs that.
	calls := 0
	boom := errors.New("peer fell over")
	_, err = h.Drain("p", func(batch []beacon.Event) error {
		calls++
		if calls == 2 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("drain error = %v, want %v", err, boom)
	}
	if got := h.Pending("p"); got != 6 {
		t.Fatalf("pending after failed drain = %d, want 6 (no partial credit)", got)
	}

	var redelivered int
	if _, err := h.Drain("p", func(batch []beacon.Event) error {
		redelivered += len(batch)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if redelivered != 6 {
		t.Fatalf("redelivered %d, want all 6", redelivered)
	}
}

func TestHintLogRecoversBacklogAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	h, err := OpenHintLog(HintOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := h.Append("p", hintEvent(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Drain 5, append 3 more, then "crash" (close without draining).
	if _, err := h.Drain("p", func([]beacon.Event) error { return nil }); err != nil {
		t.Fatal(err)
	}
	for i := 5; i < 8; i++ {
		if err := h.Append("p", hintEvent(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}

	h2, err := OpenHintLog(HintOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Close()
	// The drained 5 were compacted away; only the 3 survivors are
	// pending after reopen.
	if got := h2.Pending("p"); got != 3 {
		t.Fatalf("pending after reopen = %d, want 3", got)
	}
	var got []string
	if _, err := h2.Drain("p", func(batch []beacon.Event) error {
		for _, e := range batch {
			got = append(got, e.ImpressionID)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	want := []string{"imp-0005", "imp-0006", "imp-0007"}
	if len(got) != len(want) {
		t.Fatalf("recovered drain = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("recovered drain = %v, want %v", got, want)
		}
	}
}

func TestHintLogConcurrentAppendDuringDrainStaysPending(t *testing.T) {
	h, err := OpenHintLog(HintOptions{Dir: t.TempDir(), DrainBatch: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	for i := 0; i < 4; i++ {
		if err := h.Append("p", hintEvent(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Append DURING the drain: the new hint sits above the drain's cut
	// and must remain pending afterwards, not get lost by the compact.
	if _, err := h.Drain("p", func(batch []beacon.Event) error {
		return h.Append("p", hintEvent(99))
	}); err != nil {
		t.Fatal(err)
	}
	if got := h.Pending("p"); got != 1 {
		t.Fatalf("pending after drain-with-concurrent-append = %d, want 1", got)
	}
	var last []beacon.Event
	if _, err := h.Drain("p", func(batch []beacon.Event) error {
		last = append(last, batch...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(last) != 1 || last[0].ImpressionID != "imp-0099" {
		t.Fatalf("follow-up drain = %+v, want just imp-0099", last)
	}
}

func TestHintLogTotalPendingAcrossPeers(t *testing.T) {
	h, err := OpenHintLog(HintOptions{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	for i := 0; i < 3; i++ {
		if err := h.Append("a", hintEvent(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if err := h.Append("b", hintEvent(100+i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := h.TotalPending(); got != 5 {
		t.Fatalf("TotalPending = %d, want 5", got)
	}
	if h.Written() != 5 {
		t.Fatalf("Written = %d, want 5", h.Written())
	}
	if _, err := h.Drain("a", func([]beacon.Event) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if got := h.TotalPending(); got != 2 {
		t.Fatalf("TotalPending after draining a = %d, want 2", got)
	}
	if h.Replayed() != 3 {
		t.Fatalf("Replayed = %d, want 3", h.Replayed())
	}
}

// TestHintLogCrashPointSweep crashes the hint log's filesystem at every
// byte offset of a workload — hints for two peers, with a drain of one
// of them (its rotation and compaction) in the middle — losing the page
// cache at the crash instant. A hint whose Append returned was acked on
// the owner's behalf, so after a restart at ANY crash point it must
// drain, unless a drain before the crash already delivered it; and
// nothing drains that was never appended.
func TestHintLogCrashPointSweep(t *testing.T) {
	const hints = 24
	peerOf := func(i int) string { return []string{"a", "b"}[i%2] }
	// run drives the workload until it ends or the filesystem crashes,
	// and returns the acked hints and those a drain delivered.
	run := func(dir string, fsys *faults.CrashFS) (acked, delivered map[string]bool) {
		acked, delivered = map[string]bool{}, map[string]bool{}
		h, err := OpenHintLog(HintOptions{Dir: dir, FS: fsys, DrainBatch: 4})
		if err != nil {
			return acked, delivered
		}
		defer h.Close() // post-crash close errors are irrelevant
		for i := 0; i < hints; i++ {
			e := hintEvent(i)
			if err := h.Append(peerOf(i), e); err != nil {
				return acked, delivered
			}
			acked[e.ImpressionID] = true
			if i == hints/2 {
				var sent []string
				if _, err := h.Drain("a", func(batch []beacon.Event) error {
					for _, e := range batch {
						sent = append(sent, e.ImpressionID)
					}
					return nil
				}); err != nil {
					return acked, delivered
				}
				for _, id := range sent {
					delivered[id] = true
				}
			}
		}
		return acked, delivered
	}

	dry := faults.NewCrashFS(nil)
	if acked, _ := run(t.TempDir(), dry); len(acked) != hints {
		t.Fatalf("dry run acked %d hints, want %d", len(acked), hints)
	}
	total := dry.BytesWritten()
	for off := int64(1); off <= total; off += 7 {
		cfs := faults.NewCrashFS(nil)
		cfs.DiscardUnsynced(true)
		cfs.CrashAfterBytes(off)
		dir := t.TempDir()
		acked, delivered := run(dir, cfs)

		h, err := OpenHintLog(HintOptions{Dir: dir})
		if err != nil {
			t.Fatalf("off=%d: restart: %v", off, err)
		}
		drained := map[string]bool{}
		for _, peer := range []string{"a", "b"} {
			if _, err := h.Drain(peer, func(batch []beacon.Event) error {
				for _, e := range batch {
					drained[e.ImpressionID] = true
				}
				return nil
			}); err != nil {
				t.Fatalf("off=%d: drain %s after restart: %v", off, peer, err)
			}
		}
		h.Close()
		for id := range acked {
			if !drained[id] && !delivered[id] {
				t.Fatalf("off=%d: acked hint %s lost: neither delivered before the crash nor drained after it", off, id)
			}
		}
		for id := range drained {
			var i int
			if _, err := fmt.Sscanf(id, "imp-%d", &i); err != nil || i < 0 || i >= hints {
				t.Fatalf("off=%d: drained %s, which was never appended", off, id)
			}
		}
	}
}
