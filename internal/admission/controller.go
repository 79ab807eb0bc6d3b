package admission

import (
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"qtag/internal/obs"
)

// Mode is the node's degraded-mode state.
type Mode int32

const (
	// ModeHealthy — no overload signal; everything admitted subject to
	// the limiter.
	ModeHealthy Mode = iota
	// ModeBrownedOut — the limiter is shedding, the backlog backstop
	// tripped, or the disk is past the shed watermark. /readyz goes 503
	// so load balancers steer new traffic elsewhere; admitted requests
	// still complete.
	ModeBrownedOut
	// ModeReadOnly — the disk is critically low: all write classes are
	// refused outright; reads, health and metrics survive.
	ModeReadOnly
	// ModeRecovering — pressure has cleared but the node holds the
	// brown-out memory for RecoveryHold before declaring itself healthy,
	// so a load balancer re-adding it doesn't immediately re-tip it.
	// /readyz is 200 in this mode: the node IS serving.
	ModeRecovering
)

// String implements fmt.Stringer (metric label values).
func (m Mode) String() string {
	switch m {
	case ModeHealthy:
		return "healthy"
	case ModeBrownedOut:
		return "browned-out"
	case ModeReadOnly:
		return "read-only"
	case ModeRecovering:
		return "recovering"
	default:
		return "unknown"
	}
}

// modes in export order.
var modes = []Mode{ModeHealthy, ModeBrownedOut, ModeReadOnly, ModeRecovering}

// Config assembles a Controller.
type Config struct {
	// Limiter tunes the adaptive concurrency limiter (zero value: see
	// LimiterConfig defaults).
	Limiter LimiterConfig
	// Backstop, when set, is the hard overload guard behind the
	// adaptive limiter — the journal-backlog predicate that used to be
	// the only signal. While true, live and drain ingest is shed
	// unconditionally.
	Backstop func() bool
	// Watermark, when set, feeds disk free-space levels into the mode
	// machine: LevelShed browns the node out, LevelReadOnly refuses all
	// write classes.
	Watermark *Watermark
	// RetryAfter is the Retry-After hint on 503 sheds. Default 1s.
	RetryAfter time.Duration
	// RecoveryHold is how long after the last pressure signal the node
	// stays in ModeRecovering before returning to ModeHealthy, and also
	// how long a recent shed keeps it browned out. Default 2s.
	RecoveryHold time.Duration
	// Now is the clock; defaults to time.Now.
	Now func() time.Time
}

// Controller is the admission front door: per-request it classifies,
// consults the mode machine, the backstop and the limiter, and either
// forwards to the wrapped handler (timing the request to feed the
// gradient) or sheds with 503 + Retry-After. It also owns the
// healthy → browned-out → read-only → recovering state machine exposed
// on /readyz and /metrics.
type Controller struct {
	cfg     Config
	limiter *Limiter

	mu           sync.Mutex
	mode         Mode
	lastPressure time.Time // last instant any pressure signal was asserted
	calmSince    time.Time // when ModeRecovering began

	// debugSlot is the debug class's own slot, outside the limit, which no
	// other class can take: a debug request the limiter refuses runs on it
	// while no other holds it. Otherwise the other classes' requests fill
	// the debug share — at the limit's floor of 4, one ingest POST in
	// flight would shed a profile of the busy server it is meant to
	// explain.
	debugSlot atomic.Bool

	admitted [numClasses]atomic.Int64
	shed     [numClasses]atomic.Int64
	backstop atomic.Int64 // sheds attributed to the backlog backstop
	readOnly atomic.Int64 // sheds attributed to read-only mode
}

// NewController builds a controller in ModeHealthy.
func NewController(cfg Config) *Controller {
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	if cfg.RecoveryHold <= 0 {
		cfg.RecoveryHold = 2 * time.Second
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Controller{cfg: cfg, limiter: NewLimiter(cfg.Limiter)}
}

// Limiter exposes the underlying adaptive limiter (metrics, tests).
func (c *Controller) Limiter() *Limiter { return c.limiter }

// statusRecorder captures the wrapped handler's status so only
// successful requests feed the latency gradient.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// Middleware wraps an HTTP stack with admission control. Ungated paths
// (health, readiness, metrics, stats) pass straight through.
func (c *Controller) Middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		class, gated := Classify(r)
		if !gated {
			next.ServeHTTP(w, r)
			return
		}
		now := c.cfg.Now()
		mode := c.evaluate(now)

		ingest := class == ClassLive || class == ClassDrain
		if mode == ModeReadOnly && ingest {
			c.readOnly.Add(1)
			c.shedResponse(w, class, "node is read-only: WAL disk critically low")
			return
		}
		if ingest && c.cfg.Backstop != nil && c.cfg.Backstop() {
			c.backstop.Add(1)
			c.notePressure(now)
			c.shedResponse(w, class, "journal backlog backstop tripped")
			return
		}
		own := false // on the debug class's own slot
		if !c.limiter.Acquire(class.Fraction()) {
			if own = class == ClassDebug && c.debugSlot.CompareAndSwap(false, true); !own {
				c.notePressure(now)
				c.shedResponse(w, class, "adaptive concurrency limit reached for class "+class.String())
				return
			}
		}
		release := func(latency time.Duration, observe bool) {
			if own {
				c.debugSlot.Store(false)
			} else {
				c.limiter.Release(latency, observe)
			}
		}
		if sleeps(r) {
			// Admitted against the debug share like any /debug request, but
			// the slot goes back before the handler starts: held for all N
			// seconds it would push every class below it over its share, and
			// the profile would change what it measures.
			release(0, false)
			next.ServeHTTP(w, r)
			c.admitted[class].Add(1)
			return
		}
		start := now
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(rec, r)
		// Only successful live requests teach the gradient: errors have
		// unrepresentative latency, and background classes run on purpose-
		// slack capacity whose timing says nothing about the ingest knee.
		release(c.cfg.Now().Sub(start), class == ClassLive && rec.status < 400)
		c.admitted[class].Add(1)
	})
}

// sleeps reports whether r is one of the two pprof endpoints that hold
// their connection for as long as ?seconds= asks while doing no work on
// the request's behalf: they are not load.
func sleeps(r *http.Request) bool {
	return r.URL.Path == "/debug/pprof/profile" || r.URL.Path == "/debug/pprof/trace"
}

// shedResponse writes the 503 + Retry-After shed answer, mirroring the
// beacon server's JSON error envelope.
func (c *Controller) shedResponse(w http.ResponseWriter, class Class, reason string) {
	c.shed[class].Add(1)
	w.Header().Set("Retry-After", strconv.Itoa(int(c.cfg.RetryAfter/time.Second)))
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(http.StatusServiceUnavailable)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": reason})
}

// notePressure records that an overload signal fired now.
func (c *Controller) notePressure(now time.Time) {
	c.mu.Lock()
	if now.After(c.lastPressure) {
		c.lastPressure = now
	}
	c.mu.Unlock()
}

// evaluate advances the mode machine and returns the current mode. It
// runs on every gated request and on every readiness probe, so recovery
// progresses as long as anything at all looks at the node.
func (c *Controller) evaluate(now time.Time) Mode {
	var level Level
	if c.cfg.Watermark != nil {
		level = c.cfg.Watermark.Level()
	}
	pressure := level >= LevelShed
	if !pressure && c.cfg.Backstop != nil && c.cfg.Backstop() {
		pressure = true
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if pressure {
		c.lastPressure = now
	}
	recent := !c.lastPressure.IsZero() && now.Sub(c.lastPressure) < c.cfg.RecoveryHold
	switch {
	case level >= LevelReadOnly:
		c.mode = ModeReadOnly
	case pressure || recent:
		c.mode = ModeBrownedOut
	default:
		switch c.mode {
		case ModeBrownedOut, ModeReadOnly:
			c.mode = ModeRecovering
			c.calmSince = now
		case ModeRecovering:
			if now.Sub(c.calmSince) >= c.cfg.RecoveryHold {
				c.mode = ModeHealthy
			}
		}
	}
	return c.mode
}

// Mode re-evaluates and returns the current degraded-mode state.
func (c *Controller) Mode() Mode { return c.evaluate(c.cfg.Now()) }

// Ready reports whether the node should advertise readiness:
// browned-out and read-only answer 503; healthy and recovering are
// ready (a recovering node is fully serving — the hold only delays the
// "healthy" label, not traffic).
func (c *Controller) Ready() bool {
	m := c.evaluate(c.cfg.Now())
	return m != ModeBrownedOut && m != ModeReadOnly
}

// Shed returns how many requests of a class were shed.
func (c *Controller) Shed(class Class) int64 {
	if class < 0 || class >= numClasses {
		return 0
	}
	return c.shed[class].Load()
}

// Admitted returns how many requests of a class completed admission.
func (c *Controller) Admitted(class Class) int64 {
	if class < 0 || class >= numClasses {
		return 0
	}
	return c.admitted[class].Load()
}

// TotalShed sums sheds across all classes.
func (c *Controller) TotalShed() int64 {
	var n int64
	for i := range c.shed {
		n += c.shed[i].Load()
	}
	return n
}

// RegisterMetrics exposes admission state as qtag_admission_*.
func (c *Controller) RegisterMetrics(r *obs.Registry) {
	if r == nil {
		return
	}
	r.GaugeFunc("qtag_admission_limit", "Current adaptive concurrency limit.",
		func() float64 { return c.limiter.Limit() })
	r.GaugeFunc("qtag_admission_inflight", "Requests currently admitted and executing.",
		func() float64 { return float64(c.limiter.Inflight()) })
	r.GaugeFunc("qtag_admission_min_rtt_seconds", "Moving-minimum ingest latency baseline.",
		func() float64 { return c.limiter.MinRTT() })
	r.CounterFunc("qtag_admission_backstop_shed_total", "Requests shed by the journal-backlog backstop.",
		c.backstop.Load)
	r.CounterFunc("qtag_admission_readonly_shed_total", "Write requests refused while read-only.",
		c.readOnly.Load)
	for cl := ClassLive; cl < numClasses; cl++ {
		cl := cl
		lbl := obs.Label{Name: "class", Value: cl.String()}
		r.CounterFunc("qtag_admission_admitted_total", "Requests admitted, by class.",
			c.admitted[cl].Load, lbl)
		r.CounterFunc("qtag_admission_shed_total", "Requests shed, by class.",
			c.shed[cl].Load, lbl)
	}
	for _, m := range modes {
		m := m
		r.GaugeFunc("qtag_admission_mode", "Degraded-mode state machine (1 on the active mode).",
			func() float64 {
				if c.evaluate(c.cfg.Now()) == m {
					return 1
				}
				return 0
			}, obs.Label{Name: "mode", Value: m.String()})
	}
}
