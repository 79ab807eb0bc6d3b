package beacon

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// togglingSink fails while down, and records successful submissions.
type togglingSink struct {
	mu    sync.Mutex
	down  bool
	err   error
	count int
}

func (s *togglingSink) Submit(Event) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.down {
		if s.err != nil {
			return s.err
		}
		return errors.New("down")
	}
	s.count++
	return nil
}

func (s *togglingSink) SubmitBatch(events []Event) error {
	for _, e := range events {
		if err := s.Submit(e); err != nil {
			return err
		}
	}
	return nil
}

func TestBreakerTripsAndRecovers(t *testing.T) {
	now := time.Unix(0, 0)
	clock := func() time.Time { return now }
	next := &togglingSink{down: true}
	b := NewCircuitBreaker(next, 3, 10*time.Second)
	b.SetClock(clock)

	e := ev("i1", "c1", SourceQTag, EventLoaded)
	// Three consecutive failures trip the breaker.
	for i := 0; i < 3; i++ {
		if err := b.Submit(e); err == nil {
			t.Fatal("expected failure")
		}
	}
	if b.State() != BreakerOpen {
		t.Fatalf("state = %v, want open", b.State())
	}
	if b.Tripped() != 1 {
		t.Errorf("Tripped = %d", b.Tripped())
	}

	// While open, submissions fail fast without touching the sink.
	if err := b.Submit(e); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("open breaker returned %v", err)
	}
	if b.Rejected() != 1 {
		t.Errorf("Rejected = %d", b.Rejected())
	}

	// After the cool-down a probe goes through; it fails → re-open.
	now = now.Add(11 * time.Second)
	if err := b.Submit(e); err == nil || errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("probe should reach the sink and fail, got %v", err)
	}
	if b.State() != BreakerOpen || b.Tripped() != 2 {
		t.Fatalf("failed probe: state=%v tripped=%d", b.State(), b.Tripped())
	}

	// Heal the sink; next probe closes the breaker.
	next.mu.Lock()
	next.down = false
	next.mu.Unlock()
	now = now.Add(11 * time.Second)
	if err := b.Submit(e); err != nil {
		t.Fatalf("probe after heal: %v", err)
	}
	if b.State() != BreakerClosed {
		t.Errorf("state = %v, want closed", b.State())
	}
	// And traffic flows again.
	if err := b.Submit(e); err != nil {
		t.Fatalf("closed breaker: %v", err)
	}
	if next.count != 2 {
		t.Errorf("sink saw %d successes, want 2", next.count)
	}
}

func TestBreakerIgnoresPermanentErrors(t *testing.T) {
	next := &togglingSink{down: true, err: &PermanentError{Err: errors.New("422")}}
	b := NewCircuitBreaker(next, 2, time.Minute)
	e := ev("i1", "c1", SourceQTag, EventLoaded)
	for i := 0; i < 10; i++ {
		if err := b.Submit(e); err == nil {
			t.Fatal("expected error")
		}
	}
	if b.State() != BreakerClosed {
		t.Errorf("permanent errors tripped the breaker: %v", b.State())
	}
}

func TestBreakerSuccessResetsStreak(t *testing.T) {
	next := &togglingSink{}
	b := NewCircuitBreaker(next, 3, time.Minute)
	e := ev("i1", "c1", SourceQTag, EventLoaded)
	fail := func() {
		next.mu.Lock()
		next.down = true
		next.mu.Unlock()
	}
	heal := func() {
		next.mu.Lock()
		next.down = false
		next.mu.Unlock()
	}
	for i := 0; i < 5; i++ {
		fail()
		_ = b.Submit(e)
		_ = b.Submit(e)
		heal()
		if err := b.Submit(e); err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
	}
	if b.State() != BreakerClosed || b.Tripped() != 0 {
		t.Errorf("interleaved failures below threshold tripped: state=%v tripped=%d", b.State(), b.Tripped())
	}
}

func TestBreakerBatchPath(t *testing.T) {
	store := NewStore()
	b := NewCircuitBreaker(store, 2, time.Minute)
	events := []Event{
		ev("i1", "c1", "", EventServed),
		ev("i2", "c1", "", EventServed),
	}
	if err := b.SubmitBatch(events); err != nil {
		t.Fatalf("batch: %v", err)
	}
	if store.Len() != 2 {
		t.Errorf("store has %d events", store.Len())
	}
}
