package beacon

import (
	"context"
	"errors"
	"testing"
	"time"

	"qtag/internal/obs"
)

// TestQueueDroppedReasonSplit exercises every way an event leaves the
// queue undelivered and asserts the reason-labeled metric series account
// for each, while the unlabeled total (the pre-split series dashboards
// already chart) still equals overflow + shutdown.
func TestQueueDroppedReasonSplit(t *testing.T) {
	ev := func(id string) Event {
		return Event{ImpressionID: id, CampaignID: "c1", Source: "qtag", Type: EventInView, At: time.Unix(0, 0)}
	}

	// Permanent rejection: flushed into a downstream that refuses it.
	reject := batchSinkFunc(func([]Event) error {
		return &PermanentError{Err: errors.New("server said 422")}
	})
	q := NewQueueSink(reject, QueueOptions{Sleep: func(time.Duration) {}})
	if err := q.Submit(ev("perm")); err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitFor(t, func() bool { return q.Stats().Failed == 1 })
	_ = q.Close(context.Background())

	// Overflow and shutdown drops, sequenced deterministically: the
	// drain blocks mid-delivery of "a" (which stays in the buffer until
	// acked), "b" fills the last slot, "c" overflows. Close force-stops
	// on an expired context, abandoning "b"; "d" arrives after close.
	block := make(chan struct{})
	release := make(chan struct{})
	blocking := batchSinkFunc(func([]Event) error {
		close(block)
		<-release
		return nil
	})
	q2 := NewQueueSink(blocking, QueueOptions{Capacity: 2, Sleep: func(time.Duration) {}})
	if err := q2.Submit(ev("a")); err != nil {
		t.Fatalf("submit a: %v", err)
	}
	<-block // drain is inside deliver("a"); "a" still occupies its slot
	if err := q2.Submit(ev("b")); err != nil {
		t.Fatalf("submit b: %v", err)
	}
	if err := q2.Submit(ev("c")); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("submit c: err = %v, want ErrQueueFull", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	closeDone := make(chan error, 1)
	go func() { closeDone <- q2.Close(ctx) }()
	// Only unblock the in-flight delivery after Close has force-stopped
	// the drain, so it exits before picking up "b".
	waitFor(t, q2.stopped)
	close(release)
	if err := <-closeDone; err == nil {
		t.Fatal("Close with expired ctx should report abandoned events")
	}
	if err := q2.Submit(ev("d")); !errors.Is(err, ErrQueueClosed) {
		t.Fatalf("post-close submit: err = %v, want ErrQueueClosed", err)
	}

	reg := obs.NewRegistry()
	q2.RegisterMetrics(reg)
	vals := reg.Values()
	if got := vals[`qtag_queue_dropped_total{reason="overflow"}`]; got != 1 {
		t.Fatalf(`dropped{overflow} = %v, want 1`, got)
	}
	if got := vals[`qtag_queue_dropped_total{reason="shutdown"}`]; got != 2 { // abandoned "b" + post-close "d"
		t.Fatalf(`dropped{shutdown} = %v, want 2`, got)
	}
	if got := vals[`qtag_queue_dropped_total`]; got != 3 {
		t.Fatalf("unlabeled dropped total = %v, want 3 (overflow+shutdown)", got)
	}

	regPerm := obs.NewRegistry()
	q.RegisterMetrics(regPerm)
	permVals := regPerm.Values()
	if got := permVals[`qtag_queue_dropped_total{reason="permanent-error"}`]; got != 1 {
		t.Fatalf(`dropped{permanent-error} = %v, want 1`, got)
	}
	if got := permVals[`qtag_queue_dropped_total`]; got != 0 {
		t.Fatalf("unlabeled total counts permanent rejections (%v); those belong to failed_total", got)
	}
}

// waitFor polls cond for up to 2s.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not reached within 2s")
}
