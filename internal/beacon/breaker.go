package beacon

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"qtag/internal/obs"
)

// ErrBreakerOpen is returned by a CircuitBreaker while it is refusing
// traffic. It is retryable (not a PermanentError): a QueueSink above the
// breaker keeps the events buffered and retries after its delay.
var ErrBreakerOpen = errors.New("beacon: circuit breaker open")

// BreakerState enumerates the circuit breaker's states.
type BreakerState int32

// Breaker states, in the classic closed → open → half-open cycle.
const (
	// BreakerClosed passes traffic through, counting consecutive failures.
	BreakerClosed BreakerState = iota
	// BreakerOpen refuses traffic until the cool-down elapses.
	BreakerOpen
	// BreakerHalfOpen lets a single probe through; its outcome decides
	// between closing and re-opening.
	BreakerHalfOpen
)

// String implements fmt.Stringer.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// Default breaker tuning.
const (
	DefaultBreakerThreshold = 5
	DefaultBreakerCooldown  = 30 * time.Second
)

// CircuitBreaker wraps a Sink and stops hammering a downed collector:
// after Threshold consecutive retryable failures it opens and fails fast
// with ErrBreakerOpen for Cooldown, then lets one probe submission
// through (half-open). A successful probe closes the breaker; a failed
// one re-opens it for another cool-down. Permanent errors (4xx) count as
// contact with a live server and do not trip the breaker.
//
// CircuitBreaker implements Sink and BatchSink and is safe for
// concurrent use. The clock is injectable (SetClock), so tests and
// simulations drive state transitions deterministically.
type CircuitBreaker struct {
	next      BatchSink
	threshold int
	cooldown  time.Duration
	now       func() time.Time

	mu            sync.Mutex
	state         BreakerState
	failures      int       // consecutive retryable failures while closed
	openedAt      time.Time // when the breaker last opened
	probeInFlight bool      // half-open: a probe is out

	tripped  atomic.Int64
	rejected atomic.Int64
}

// NewCircuitBreaker wraps next. Non-positive threshold or cooldown pick
// the defaults.
func NewCircuitBreaker(next BatchSink, threshold int, cooldown time.Duration) *CircuitBreaker {
	if threshold <= 0 {
		threshold = DefaultBreakerThreshold
	}
	if cooldown <= 0 {
		cooldown = DefaultBreakerCooldown
	}
	return &CircuitBreaker{next: next, threshold: threshold, cooldown: cooldown, now: time.Now}
}

// SetClock overrides the breaker's time source (tests, simulations).
func (b *CircuitBreaker) SetClock(now func() time.Time) {
	b.mu.Lock()
	b.now = now
	b.mu.Unlock()
}

// State returns the current breaker state (open breakers that have
// finished cooling down still report open until a probe is attempted).
func (b *CircuitBreaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Tripped returns how many times the breaker has opened.
func (b *CircuitBreaker) Tripped() int64 { return b.tripped.Load() }

// Rejected returns how many submissions were refused while open.
func (b *CircuitBreaker) Rejected() int64 { return b.rejected.Load() }

// RegisterMetrics exports the breaker's state and trip/reject counters
// on the registry. The state gauge encodes the classic cycle: 0 closed,
// 1 open, 2 half-open.
func (b *CircuitBreaker) RegisterMetrics(r *obs.Registry) {
	r.GaugeFunc("qtag_breaker_state", "Circuit breaker state: 0 closed, 1 open, 2 half-open.",
		func() float64 { return float64(b.State()) })
	r.CounterFunc("qtag_breaker_trips_total", "Times the breaker has opened.", b.tripped.Load)
	r.CounterFunc("qtag_breaker_rejected_total", "Submissions refused while the breaker was open.", b.rejected.Load)
}

// Submit implements Sink.
func (b *CircuitBreaker) Submit(e Event) error {
	if err := b.allow(); err != nil {
		return err
	}
	err := b.next.Submit(e)
	b.record(err)
	return err
}

// SubmitBatch implements BatchSink. The whole batch counts as one
// request for breaker accounting.
func (b *CircuitBreaker) SubmitBatch(events []Event) error {
	if err := b.allow(); err != nil {
		return err
	}
	err := b.next.SubmitBatch(events)
	b.record(err)
	return err
}

// allow decides whether a submission may proceed.
func (b *CircuitBreaker) allow() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return nil
	case BreakerOpen:
		if b.now().Sub(b.openedAt) < b.cooldown {
			b.rejected.Add(1)
			return ErrBreakerOpen
		}
		b.state = BreakerHalfOpen
		b.probeInFlight = true
		return nil
	default: // half-open
		if b.probeInFlight {
			b.rejected.Add(1)
			return ErrBreakerOpen
		}
		b.probeInFlight = true
		return nil
	}
}

// record folds a submission outcome into the breaker state. Permanent
// errors mean the server is up and talking; they reset the failure
// streak like a success.
func (b *CircuitBreaker) record(err error) {
	failure := err != nil && !IsPermanent(err)
	b.mu.Lock()
	defer b.mu.Unlock()
	b.probeInFlight = false
	if !failure {
		b.state = BreakerClosed
		b.failures = 0
		return
	}
	switch b.state {
	case BreakerHalfOpen:
		// Failed probe: straight back to open for another cool-down.
		b.trip()
	default:
		b.failures++
		if b.state == BreakerClosed && b.failures >= b.threshold {
			b.trip()
		}
	}
}

// trip opens the breaker; callers hold b.mu.
func (b *CircuitBreaker) trip() {
	b.state = BreakerOpen
	b.openedAt = b.now()
	b.failures = 0
	b.tripped.Add(1)
}
