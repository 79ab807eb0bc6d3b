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

// TestQueueSinkSubmitBatch: a batch is queued whole or not at all. One
// that fits exactly is taken, one that is one event over is refused with
// nothing of it queued, one longer than Capacity is refused as permanent,
// and after Close every batch is refused. What is taken drains in order,
// and every refused event is counted dropped under one reason.
func TestQueueSinkSubmitBatch(t *testing.T) {
	g := &gatedCapture{open: make(chan struct{})} // holds the drain: nothing leaves the queue
	q := NewQueueSink(g, QueueOptions{Capacity: 8, MaxBatch: 8})
	batch := func(prefix string, n int) []Event {
		out := make([]Event, n)
		for i := range out {
			out[i] = ev(prefix+itoa(i), "c1", SourceQTag, EventLoaded)
		}
		return out
	}
	step := func(name string, events []Event, wantErr error, permanent bool, wantDepth int) {
		t.Helper()
		err := q.SubmitBatch(events)
		if !errors.Is(err, wantErr) || (err == nil) != (wantErr == nil) || IsPermanent(err) != permanent {
			t.Fatalf("%s: err = %v, want %v (permanent %v)", name, err, wantErr, permanent)
		}
		if d := q.Depth(); d != wantDepth && wantDepth >= 0 {
			t.Fatalf("%s: depth %d, want %d", name, d, wantDepth)
		}
		if o, s, d := q.droppedOverflow.Load(), q.droppedShutdown.Load(), q.dropped.Load(); o+s != d {
			t.Fatalf("%s: dropped %d != overflow %d + shutdown %d", name, d, o, s)
		}
	}
	first, second := batch("a", 3), batch("b", 5)
	step("3 into 8", first, nil, false, 3)
	step("6 more: one over", batch("c", 6), ErrQueueFull, false, 3)
	step("5 more: an exact fit", second, nil, false, 8)
	step("1 more", batch("d", 1), ErrQueueFull, false, 8)
	step("9: over capacity", batch("e", 9), ErrQueueFull, true, 8)
	close(g.open)
	drainAndClose(t, q)
	step("after close", batch("f", 2), ErrQueueClosed, false, -1)
	if want := append(first, second...); !reflect.DeepEqual(g.delivered, want) {
		t.Fatalf("drained %v, want %v", g.delivered, want)
	}
	st := q.Stats()
	if st.Enqueued != 8 || st.Flushed != 8 || st.Dropped != 6+1+9+2 ||
		q.droppedOverflow.Load() != 16 || q.droppedShutdown.Load() != 2 {
		t.Fatalf("stats %+v, overflow %d, shutdown %d", st, q.droppedOverflow.Load(), q.droppedShutdown.Load())
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

// TestQueueSinkDrainLinear: draining a backlog costs the same per event
// whatever its size, because consume never moves the backlog — the
// ring's backing array and the slot of every event still queued stay
// put — and the ring is reallocated only when push grows it. Each flush
// used to shift the rest of the buffer down, so a 65 536-event backlog
// cost over ten times per event what a 4 096-event one did. It checks
// where the events are rather than timing the drain, which other tests
// running beside it on the same CPUs skew.
func TestQueueSinkDrainLinear(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 2))
	q := QueueSink{opts: QueueOptions{Capacity: 4096}.withDefaults()}
	where := map[string]*Event{} // each queued event's slot
	base := func() *Event {
		if len(q.ring) == 0 {
			return nil
		}
		return &q.ring[0]
	}
	next := 0
	for step := 0; step < 2000; step++ {
		if rng.IntN(2) == 0 || q.size == 0 {
			for k := 1 + rng.IntN(300); k > 0 && q.size < q.opts.Capacity; k-- {
				grows, was := q.size == len(q.ring), base()
				q.push(ev(itoa(next), "c", SourceQTag, EventLoaded))
				next++
				switch {
				case grows: // the one move a queued event makes
					a, b := q.oldest(q.size)
					for _, run := range [][]Event{a, b} {
						for i := range run {
							where[run[i].ImpressionID] = &run[i]
						}
					}
				case base() != was:
					t.Fatalf("step %d: push into a ring with room reallocated it", step)
				default:
					e := &q.ring[(q.head+q.size-1)%len(q.ring)]
					where[e.ImpressionID] = e
				}
			}
			continue
		}
		was := base()
		q.consume(1 + rng.IntN(q.size))
		if base() != was {
			t.Fatalf("step %d: consume reallocated the ring", step)
		}
		a, b := q.oldest(q.size)
		for _, run := range [][]Event{a, b} {
			for i := range run {
				if where[run[i].ImpressionID] != &run[i] {
					t.Fatalf("step %d: consume moved queued event %s to another slot", step, run[i].ImpressionID)
				}
			}
		}
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
