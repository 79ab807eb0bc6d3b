package beacon

import (
	"context"
	"errors"
	"math/rand/v2"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// scriptedSink fails batches until unblocked; it records delivered events.
type scriptedSink struct {
	mu        sync.Mutex
	failWith  error // returned while set
	delivered []Event
	batches   int
}

func (s *scriptedSink) SubmitBatch(events []Event) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.batches++
	if s.failWith != nil {
		return s.failWith
	}
	s.delivered = append(s.delivered, events...)
	return nil
}

func (s *scriptedSink) Submit(e Event) error { return s.SubmitBatch([]Event{e}) }

func (s *scriptedSink) setFail(err error) {
	s.mu.Lock()
	s.failWith = err
	s.mu.Unlock()
}

func (s *scriptedSink) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.delivered)
}

func drainAndClose(t *testing.T, q *QueueSink) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := q.Close(ctx); err != nil {
		t.Fatalf("close: %v", err)
	}
}

func TestQueueSinkDeliversAll(t *testing.T) {
	next := &scriptedSink{}
	q := NewQueueSink(next, QueueOptions{Capacity: 1000, MaxBatch: 32, RetryDelay: time.Millisecond})
	for i := 0; i < 500; i++ {
		if err := q.Submit(ev(itoa(i), "c1", SourceQTag, EventLoaded)); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	drainAndClose(t, q)
	if next.count() != 500 {
		t.Errorf("delivered %d, want 500", next.count())
	}
	st := q.Stats()
	if st.Enqueued != 500 || st.Flushed != 500 || st.Dropped != 0 || st.Failed != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestQueueSinkRetriesUntilDownstreamHeals(t *testing.T) {
	next := &scriptedSink{}
	next.setFail(errors.New("collector down"))
	q := NewQueueSink(next, QueueOptions{Capacity: 100, MaxBatch: 10, RetryDelay: time.Millisecond})
	for i := 0; i < 50; i++ {
		if err := q.Submit(ev(itoa(i), "c1", SourceQTag, EventLoaded)); err != nil {
			t.Fatalf("submit: %v", err)
		}
	}
	// Let a few failing flushes happen, then heal.
	time.Sleep(20 * time.Millisecond)
	if next.count() != 0 {
		t.Fatalf("delivered %d during outage", next.count())
	}
	next.setFail(nil)
	drainAndClose(t, q)
	if next.count() != 50 {
		t.Errorf("delivered %d after heal, want 50 (zero loss)", next.count())
	}
	if st := q.Stats(); st.Retried == 0 {
		t.Error("expected retried > 0 during outage")
	}
}

func TestQueueSinkOverflowDropsAndCounts(t *testing.T) {
	next := &scriptedSink{}
	next.setFail(errors.New("collector down"))
	q := NewQueueSink(next, QueueOptions{Capacity: 10, MaxBatch: 4, RetryDelay: time.Hour})
	var full int
	for i := 0; i < 25; i++ {
		if err := q.Submit(ev(itoa(i), "c1", SourceQTag, EventLoaded)); errors.Is(err, ErrQueueFull) {
			full++
		}
	}
	st := q.Stats()
	if st.Dropped < 10 || st.Enqueued > 14 {
		t.Errorf("overflow accounting: %+v (dropped submits seen: %d)", st, full)
	}
	if full != int(st.Dropped) {
		t.Errorf("ErrQueueFull count %d != dropped counter %d", full, st.Dropped)
	}
	if st.Enqueued+st.Dropped != 25 {
		t.Errorf("enqueued+dropped = %d, want 25", st.Enqueued+st.Dropped)
	}
	// Force-stop: the drain goroutine is parked in an hour-long retry
	// delay, so the deadline expires and the buffer is abandoned.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := q.Close(ctx); err == nil {
		t.Error("expected close deadline error with undeliverable buffer")
	}
	// Every submitted event is now accounted for: 10 abandoned in the
	// buffer plus 15 overflow drops.
	if st := q.Stats(); st.Dropped != 25 || st.Flushed != 0 || st.Depth != 0 {
		t.Errorf("after abandon, stats = %+v, want 25 dropped", st)
	}
}

func TestQueueSinkDropsPoisonBatch(t *testing.T) {
	next := &scriptedSink{}
	next.setFail(&PermanentError{Err: errors.New("rejected")})
	q := NewQueueSink(next, QueueOptions{Capacity: 10, MaxBatch: 10, RetryDelay: time.Millisecond})
	for i := 0; i < 5; i++ {
		_ = q.Submit(ev(itoa(i), "c1", SourceQTag, EventLoaded))
	}
	drainAndClose(t, q)
	st := q.Stats()
	if st.Failed != 5 || st.Flushed != 0 {
		t.Errorf("poison batch stats = %+v, want 5 failed", st)
	}
}

func TestQueueSinkSubmitAfterClose(t *testing.T) {
	q := NewQueueSink(&scriptedSink{}, QueueOptions{})
	drainAndClose(t, q)
	if err := q.Submit(ev("i1", "c1", SourceQTag, EventLoaded)); !errors.Is(err, ErrQueueClosed) {
		t.Errorf("submit after close = %v, want ErrQueueClosed", err)
	}
}

// gatedSink holds its first delivery until open is closed, then takes
// every batch at no cost and keeps nothing.
type gatedSink struct {
	open      chan struct{}
	delivered atomic.Int64
}

func (g *gatedSink) SubmitBatch(events []Event) error {
	<-g.open
	g.delivered.Add(int64(len(events)))
	return nil
}

func (g *gatedSink) Submit(e Event) error { return g.SubmitBatch([]Event{e}) }

// drainNsPerEvent queues n events behind a held delivery, then times the
// drain of all of them into a sink that costs nothing.
func drainNsPerEvent(t *testing.T, n int) float64 {
	g := &gatedSink{open: make(chan struct{})}
	q := NewQueueSink(g, QueueOptions{Capacity: n})
	e := ev("i", "c1", SourceQTag, EventLoaded)
	for i := 0; i < n; i++ {
		if err := q.Submit(e); err != nil {
			t.Fatal(err)
		}
	}
	start := time.Now()
	close(g.open)
	drainAndClose(t, q)
	elapsed := time.Since(start)
	if got := g.delivered.Load(); got != int64(n) {
		t.Fatalf("delivered %d of %d", got, n)
	}
	return float64(elapsed.Nanoseconds()) / float64(n)
}

// TestQueueSinkDrainLinear: draining a backlog costs the same per event
// whatever its size. Each flush used to shift the rest of the buffer
// down, so a 65 536-event backlog cost over ten times per event what a
// 4 096-event one did.
func TestQueueSinkDrainLinear(t *testing.T) {
	best := func(n int) float64 {
		b := drainNsPerEvent(t, n)
		for i := 0; i < 2; i++ {
			b = min(b, drainNsPerEvent(t, n))
		}
		return b
	}
	small, large := best(4096), best(65536)
	t.Logf("drain: %.0f ns/event at 4096, %.0f at 65536", small, large)
	if large > 2*small {
		t.Fatalf("draining 65536 events costs %.0f ns/event, over twice the %.0f of 4096", large, small)
	}
}

// TestQueueSinkRingModel: under any interleaving of pushes and
// consumes, across wraps and growth, the backlog is exactly the events
// not yet consumed, in order, and every other slot of the ring is
// zeroed.
func TestQueueSinkRingModel(t *testing.T) {
	for seed := uint64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewPCG(seed, 2))
		q := QueueSink{opts: QueueOptions{Capacity: 500}.withDefaults()}
		var model []Event
		next := 0
		for step := 0; step < 400; step++ {
			if rng.IntN(2) == 0 || len(model) == 0 {
				for k := rng.IntN(40); k > 0; k-- {
					e := ev(itoa(next), "c", SourceQTag, EventLoaded)
					next++
					q.push(e)
					model = append(model, e)
				}
			} else {
				n := 1 + rng.IntN(len(model))
				q.consume(n)
				model = model[n:]
			}
			a, b := q.oldest(q.size)
			if got := append(append([]Event{}, a...), b...); len(got) != len(model) || (len(got) > 0 && !reflect.DeepEqual(got, model)) {
				t.Fatalf("seed %d step %d: backlog %v, want %v", seed, step, got, model)
			}
			for i, e := range q.ring {
				if (i-q.head+len(q.ring))%len(q.ring) >= q.size && e != (Event{}) {
					t.Fatalf("seed %d step %d: slot %d outside the backlog (head %d, size %d) holds %v", seed, step, i, q.head, q.size, e)
				}
			}
		}
	}
}

// TestQueueSinkKeepsNothingFlushed: once an event is flushed, the queue
// no longer holds it — nor the request body its strings alias — in the
// backlog's vacated slots or in the batch it was delivered in.
func TestQueueSinkKeepsNothingFlushed(t *testing.T) {
	type body struct{ b [4096]byte }
	g := &gatedSink{open: make(chan struct{})}
	close(g.open)
	q := NewQueueSink(g, QueueOptions{})
	defer drainAndClose(t, q)

	collected := make(chan struct{})
	func() {
		p := new(body)
		copy(p.b[:], "imp-1camp-1")
		runtime.SetFinalizer(p, func(*body) { close(collected) })
		for i := 0; i < 3; i++ {
			e := ev(aliasString(p.b[:5]), aliasString(p.b[5:11]), SourceQTag, EventLoaded)
			e.Seq = i
			if err := q.Submit(e); err != nil {
				t.Fatal(err)
			}
		}
	}()
	for deadline := time.Now().Add(5 * time.Second); ; {
		if q.Stats().Flushed == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("not flushed: %+v", q.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < 100; i++ {
		runtime.GC()
		select {
		case <-collected:
			runtime.KeepAlive(q)
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("the body of a flushed event is still reachable from the queue")
}

// TestQueueSinkOwnsWhatItKeeps: the queue keeps events past Submit, so
// it keeps copies. Events whose strings alias a buffer that is
// overwritten as soon as they are submitted — a request body going back
// to its pool — flush exactly as they were submitted, and the copy is
// one allocation an event.
func TestQueueSinkOwnsWhatItKeeps(t *testing.T) {
	want := make([]Event, 50)
	for i := range want {
		want[i] = Event{
			ImpressionID: "imp-" + itoa(i), CampaignID: "camp-" + itoa(i%3), Type: EventInView,
			Source: []Source{SourceQTag, "verifier-" + Source(itoa(i%2))}[i%2], Seq: i % 4,
			At: time.Unix(1500000000+int64(i), 0).UTC(),
			Meta: Meta{OS: "android", SiteType: "app", AdSize: "300x250", Format: "video",
				Country: "es", Exchange: "x" + itoa(i%2), Slot: "slot-" + itoa(i%7)},
			Trace: "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",
		}
	}
	body := AppendBinaryEvents(nil, want)
	var dec BatchDecoder
	aliased, err := dec.Decode(body)
	if err != nil {
		t.Fatal(err)
	}

	g := &gatedCapture{open: make(chan struct{})}
	q := NewQueueSink(g, QueueOptions{MaxBatch: 16})
	for _, e := range aliased {
		if err := q.Submit(e); err != nil {
			t.Fatal(err)
		}
	}
	for i := range body {
		body[i] = 0xA5
	}
	close(g.open)
	drainAndClose(t, q)
	if !reflect.DeepEqual(g.delivered, want) {
		t.Fatalf("flushed events differ from those submitted once the buffer their strings aliased was overwritten:\n got %+v\nwant %+v",
			g.delivered, want)
	}
	if n := testing.AllocsPerRun(100, func() { _ = want[1].owned() }); n != 1 {
		t.Fatalf("copying an event costs %v allocations, want 1", n)
	}
}

// gatedCapture records what it is given once open is closed.
type gatedCapture struct {
	open chan struct{}
	scriptedSink
}

func (g *gatedCapture) SubmitBatch(events []Event) error {
	<-g.open
	return g.scriptedSink.SubmitBatch(events)
}

func (g *gatedCapture) Submit(e Event) error { return g.SubmitBatch([]Event{e}) }

// itoa avoids importing strconv in several tests.
func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [20]byte
	pos := len(b)
	for i > 0 {
		pos--
		b[pos] = byte('0' + i%10)
		i /= 10
	}
	return string(b[pos:])
}
