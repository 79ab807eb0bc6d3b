package admission

import (
	"sync"
	"time"
)

// LimiterConfig tunes the gradient concurrency limiter. The zero value
// gets sane defaults from NewLimiter.
type LimiterConfig struct {
	// MinLimit is the floor the limit can never drop below; live
	// traffic always has at least this much concurrency. Default 4.
	MinLimit int
	// MaxLimit caps growth. Default 256.
	MaxLimit int
	// InitialLimit is the starting limit. Default 4×MinLimit,
	// clamped into [MinLimit, MaxLimit].
	InitialLimit int
	// MinRTTWindow bounds how long a stale minimum is trusted: once the
	// stored minimum is older than this, the next sample re-baselines it
	// (bounded to at most doubling) so a permanently slower disk does
	// not read as eternal overload. Default 10s.
	MinRTTWindow time.Duration
	// Now is the clock; defaults to time.Now. Injectable for tests.
	Now func() time.Time
}

// The gradient's shape: the latency EWMA may rise tolerance× above the
// moving minimum before the limit backs off multiplicatively by
// decreaseFactor; smoothing is the EWMA's weight for a new sample.
const tolerance, smoothing, decreaseFactor = 2.0, 0.2, 0.9

func (c *LimiterConfig) fill() {
	if c.MinLimit <= 0 {
		c.MinLimit = 4
	}
	if c.MaxLimit <= 0 {
		c.MaxLimit = 256
	}
	if c.MaxLimit < c.MinLimit {
		c.MaxLimit = c.MinLimit
	}
	if c.InitialLimit <= 0 {
		c.InitialLimit = 4 * c.MinLimit
	}
	if c.InitialLimit < c.MinLimit {
		c.InitialLimit = c.MinLimit
	}
	if c.InitialLimit > c.MaxLimit {
		c.InitialLimit = c.MaxLimit
	}
	if c.MinRTTWindow <= 0 {
		c.MinRTTWindow = 10 * time.Second
	}
	if c.Now == nil {
		c.Now = time.Now
	}
}

// Limiter is a gradient/AIMD adaptive concurrency limiter in the spirit
// of Netflix's concurrency-limits and TCP Vegas: it compares a
// short-term EWMA of ingest latency against a decaying moving minimum
// (the no-queueing baseline). While the EWMA stays within tolerance of
// the baseline, high utilization earns additive limit increases; once
// latency gradients past the knee, the limit decreases multiplicatively.
// Unlike a static backlog threshold, the knee is learned per machine.
type Limiter struct {
	cfg LimiterConfig

	mu       sync.Mutex
	limit    float64
	inflight int
	shortRTT float64 // EWMA of recent samples, seconds
	minRTT   float64 // moving-minimum baseline, seconds
	minSetAt time.Time
}

// NewLimiter builds a limiter; zero-valued config fields get defaults.
func NewLimiter(cfg LimiterConfig) *Limiter {
	cfg.fill()
	return &Limiter{cfg: cfg, limit: float64(cfg.InitialLimit)}
}

// Acquire tries to admit one request at the given limit fraction
// (Class.Fraction). It returns false — shed — when the class's share of
// the current limit is exhausted. Every true return must be paired with
// exactly one Release.
func (l *Limiter) Acquire(fraction float64) bool {
	if fraction <= 0 {
		fraction = 1
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	cap := l.limit * fraction
	if cap < 1 {
		cap = 1
	}
	if float64(l.inflight) >= cap {
		return false
	}
	l.inflight++
	return true
}

// Release returns an admission slot. When observe is true the request's
// latency feeds the gradient — callers pass observe only for successful
// live-class requests, so error latencies and deliberately-shed
// background classes never teach the limiter a false baseline.
func (l *Limiter) Release(latency time.Duration, observe bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.inflight > 0 {
		l.inflight--
	}
	if !observe || latency <= 0 {
		return
	}
	s := latency.Seconds()
	if l.shortRTT == 0 {
		l.shortRTT = s
	} else {
		l.shortRTT += smoothing * (s - l.shortRTT)
	}
	now := l.cfg.Now()
	switch {
	case l.minRTT == 0 || s < l.minRTT:
		l.minRTT = s
		l.minSetAt = now
	case now.Sub(l.minSetAt) > l.cfg.MinRTTWindow:
		// The baseline has aged out: re-adopt from the current sample,
		// but never more than doubling per window, so a transient stall
		// can't instantly legitimize itself as the new normal.
		next := s
		if next > l.minRTT*2 {
			next = l.minRTT * 2
		}
		l.minRTT = next
		l.minSetAt = now
	}

	if l.shortRTT > l.minRTT*tolerance {
		// Past the knee: multiplicative decrease.
		l.limit *= decreaseFactor
		if l.limit < float64(l.cfg.MinLimit) {
			l.limit = float64(l.cfg.MinLimit)
		}
	} else if float64(l.inflight+1) >= l.limit*0.9 {
		// Healthy latency and the limit is actually being used:
		// additive increase to probe for headroom.
		l.limit++
		if l.limit > float64(l.cfg.MaxLimit) {
			l.limit = float64(l.cfg.MaxLimit)
		}
	}
}

// Limit is the current adaptive concurrency limit.
func (l *Limiter) Limit() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.limit
}

// Inflight is the number of currently admitted requests.
func (l *Limiter) Inflight() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.inflight
}

// MinRTT exposes the current latency baseline in seconds (0 until the
// first observed sample).
func (l *Limiter) MinRTT() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.minRTT
}
