package admission

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"qtag/internal/obs"
)

func okHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusAccepted)
	})
}

func doReq(t *testing.T, h http.Handler, method, path string, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, path, nil)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func TestClassify(t *testing.T) {
	cases := []struct {
		path  string
		hdr   string
		class Class
		gated bool
	}{
		{"/v1/events", "", ClassLive, true},
		{"/v1/events", "drain", ClassDrain, true},
		{"/v1/events", "DRAIN", ClassDrain, true},
		{"/v1/events", "bogus", ClassLive, true},
		{"/report", "", ClassFederate, true},
		{"/debug/traces", "", ClassDebug, true},
		{"/debug/pprof/heap", "", ClassDebug, true},
		{"/healthz", "", ClassLive, false},
		{"/readyz", "", ClassLive, false},
		{"/metrics", "", ClassLive, false},
		{"/nonesuch", "", ClassLive, false},
	}
	for _, c := range cases {
		req := httptest.NewRequest("GET", c.path, nil)
		if c.hdr != "" {
			req.Header.Set(ClassHeader, c.hdr)
		}
		class, gated := Classify(req)
		if class != c.class || gated != c.gated {
			t.Fatalf("Classify(%s, hdr=%q) = (%v,%v), want (%v,%v)",
				c.path, c.hdr, class, gated, c.class, c.gated)
		}
	}
}

func TestBudgetHeaderRoundTrip(t *testing.T) {
	h := http.Header{}
	h.Set(BudgetHeader, FormatBudget(1500*time.Millisecond))
	d, ok, err := ParseBudget(h)
	if err != nil || !ok || d != 1500*time.Millisecond {
		t.Fatalf("round trip = (%v,%v,%v)", d, ok, err)
	}
	h.Set(BudgetHeader, "not-a-number")
	if _, ok, err := ParseBudget(h); !ok || err == nil {
		t.Fatal("malformed budget must report present+error")
	}
	if _, ok, err := ParseBudget(http.Header{}); ok || err != nil {
		t.Fatal("absent budget must be (false, nil)")
	}
	h.Set(BudgetHeader, "-5")
	d, ok, err = ParseBudget(h)
	if err != nil || !ok || d >= 0 {
		t.Fatalf("negative budget = (%v,%v,%v), want valid negative duration", d, ok, err)
	}
}

func TestControllerUngatedPathsBypass(t *testing.T) {
	// A limiter with zero capacity headroom: everything gated sheds.
	c := NewController(Config{Limiter: LimiterConfig{MinLimit: 1, MaxLimit: 1, InitialLimit: 1}})
	for c.limiter.Acquire(1.0) {
	} // exhaust
	h := c.Middleware(okHandler())
	if rec := doReq(t, h, "GET", "/healthz", nil); rec.Code != http.StatusAccepted {
		t.Fatalf("/healthz = %d, want pass-through 202", rec.Code)
	}
	if rec := doReq(t, h, "POST", "/v1/events", nil); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("/v1/events = %d, want 503 when saturated", rec.Code)
	}
	if c.Shed(ClassLive) != 1 {
		t.Fatalf("Shed(live) = %d, want 1", c.Shed(ClassLive))
	}
}

func TestControllerShedsLowPriorityFirst(t *testing.T) {
	clk := newFakeClock()
	c := NewController(Config{
		Limiter: LimiterConfig{MinLimit: 8, MaxLimit: 8, InitialLimit: 8, Now: clk.now},
		Now:     clk.now,
	})
	// Occupy half the limit (4 of 8) with live work.
	for i := 0; i < 4; i++ {
		if !c.limiter.Acquire(1.0) {
			t.Fatal("setup acquire failed")
		}
	}
	// The debug class's own slot is taken too, so that the debug share
	// alone decides below; it is given back at the end.
	c.debugSlot.Store(true)
	h := c.Middleware(okHandler())
	// Drain fraction 0.5 → cap 4, already full → shed.
	if rec := doReq(t, h, "POST", "/v1/events", map[string]string{ClassHeader: "drain"}); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("drain = %d, want 503 at half occupancy", rec.Code)
	}
	if rec := doReq(t, h, "GET", "/report", nil); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("federate = %d, want 503 at half occupancy", rec.Code)
	}
	if rec := doReq(t, h, "GET", "/debug/traces", nil); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("debug = %d, want 503 at half occupancy", rec.Code)
	}
	// Live still admitted at the same occupancy.
	if rec := doReq(t, h, "POST", "/v1/events", nil); rec.Code != http.StatusAccepted {
		t.Fatalf("live = %d, want 202 while low classes shed", rec.Code)
	}
	if c.Shed(ClassDrain) != 1 || c.Shed(ClassFederate) != 1 || c.Shed(ClassDebug) != 1 || c.Shed(ClassLive) != 0 {
		t.Fatalf("shed counts live=%d drain=%d federate=%d debug=%d",
			c.Shed(ClassLive), c.Shed(ClassDrain), c.Shed(ClassFederate), c.Shed(ClassDebug))
	}
	if c.Admitted(ClassLive) != 1 {
		t.Fatalf("Admitted(live) = %d, want 1", c.Admitted(ClassLive))
	}
	// A shed response carries Retry-After and a JSON error body.
	rec := doReq(t, h, "GET", "/debug/traces", nil)
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}
	var body map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body["error"] == "" {
		t.Fatalf("shed body %q not a JSON error", rec.Body.String())
	}
	// With its own slot free, a debug request past its share runs on it.
	c.debugSlot.Store(false)
	if rec := doReq(t, h, "GET", "/debug/traces", nil); rec.Code != http.StatusAccepted {
		t.Fatalf("debug on its own slot = %d, want 202", rec.Code)
	}
}

// TestControllerDebugSlotAtAnyLimit: whatever the limit, with every slot
// of it held by live work a debug request runs on the debug class's own
// slot, and that slot lends nothing to the other classes.
func TestControllerDebugSlotAtAnyLimit(t *testing.T) {
	for _, limit := range []int{4, 6, 16} {
		clk := newFakeClock()
		c := NewController(Config{
			Limiter: LimiterConfig{MinLimit: limit, MaxLimit: limit, InitialLimit: limit, Now: clk.now},
			Now:     clk.now,
		})
		for i := 0; i < limit; i++ {
			if !c.limiter.Acquire(1.0) {
				t.Fatal("setup acquire failed")
			}
		}
		h := c.Middleware(okHandler())
		for _, path := range []string{"/debug/traces", "/debug/pprof/profile?seconds=1"} {
			if rec := doReq(t, h, "GET", path, nil); rec.Code != http.StatusAccepted {
				t.Fatalf("limit %d: %s with the limit full = %d, want 202", limit, path, rec.Code)
			}
		}
		if rec := doReq(t, h, "POST", "/v1/events", nil); rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("limit %d: live with the limit full = %d, want 503", limit, rec.Code)
		}
		if c.Admitted(ClassDebug) != 2 || c.Shed(ClassDebug) != 0 {
			t.Fatalf("limit %d: debug admitted %d, shed %d, want 2 and 0", limit, c.Admitted(ClassDebug), c.Shed(ClassDebug))
		}
	}
}

func TestControllerBackstopShedsIngestOnly(t *testing.T) {
	clk := newFakeClock()
	var tripped atomic.Bool
	tripped.Store(true)
	c := NewController(Config{
		Limiter:  LimiterConfig{MinLimit: 8, MaxLimit: 8, InitialLimit: 8, Now: clk.now},
		Backstop: tripped.Load,
		Now:      clk.now,
	})
	h := c.Middleware(okHandler())
	if rec := doReq(t, h, "POST", "/v1/events", nil); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("live = %d, want 503 under backstop", rec.Code)
	}
	if rec := doReq(t, h, "POST", "/v1/events", map[string]string{ClassHeader: "drain"}); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("drain = %d, want 503 under backstop", rec.Code)
	}
	// Reads are not the backlog's problem; they still ride the limiter.
	if rec := doReq(t, h, "GET", "/report", nil); rec.Code != http.StatusAccepted {
		t.Fatalf("federate = %d, want 202 under backstop", rec.Code)
	}
	if c.Mode() != ModeBrownedOut {
		t.Fatalf("mode = %v, want browned-out while backstop trips", c.Mode())
	}
	if c.Ready() {
		t.Fatal("Ready() = true while browned out")
	}
}

func TestControllerModeMachineRecovers(t *testing.T) {
	clk := newFakeClock()
	var tripped atomic.Bool
	tripped.Store(true)
	c := NewController(Config{
		Limiter:      LimiterConfig{MinLimit: 8, MaxLimit: 8, InitialLimit: 8, Now: clk.now},
		Backstop:     tripped.Load,
		RecoveryHold: time.Second,
		Now:          clk.now,
	})
	if c.Mode() != ModeBrownedOut {
		t.Fatalf("mode = %v, want browned-out", c.Mode())
	}
	tripped.Store(false)
	// Pressure memory keeps it browned out inside the hold window…
	clk.advance(500 * time.Millisecond)
	if c.Mode() != ModeBrownedOut {
		t.Fatalf("mode = %v, want browned-out during pressure memory", c.Mode())
	}
	// …then recovering (ready again), then healthy after the hold.
	clk.advance(600 * time.Millisecond)
	if c.Mode() != ModeRecovering {
		t.Fatalf("mode = %v, want recovering", c.Mode())
	}
	if !c.Ready() {
		t.Fatal("Ready() = false while recovering; recovering nodes serve")
	}
	clk.advance(1100 * time.Millisecond)
	if c.Mode() != ModeHealthy {
		t.Fatalf("mode = %v, want healthy after hold", c.Mode())
	}
}

func TestControllerReadOnlyRefusesWritesAllowsReads(t *testing.T) {
	clk := newFakeClock()
	fs := &fakeFS{free: 10, total: 10000}
	w, err := NewWatermark(WatermarkConfig{
		Dir: "/wal", LowBytes: 1000, ShedBytes: 500, ReadOnlyBytes: 100, Statfs: fs.statfs,
	})
	if err != nil {
		t.Fatal(err)
	}
	w.Tick()
	c := NewController(Config{
		Limiter:      LimiterConfig{MinLimit: 8, MaxLimit: 8, InitialLimit: 8, Now: clk.now},
		Watermark:    w,
		RecoveryHold: time.Second,
		Now:          clk.now,
	})
	h := c.Middleware(okHandler())
	if rec := doReq(t, h, "POST", "/v1/events", nil); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("live = %d, want 503 in read-only", rec.Code)
	}
	if rec := doReq(t, h, "POST", "/v1/events", map[string]string{ClassHeader: "drain"}); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("drain = %d, want 503 in read-only", rec.Code)
	}
	if rec := doReq(t, h, "GET", "/report", nil); rec.Code != http.StatusAccepted {
		t.Fatalf("report = %d, want reads admitted in read-only", rec.Code)
	}
	if c.Mode() != ModeReadOnly {
		t.Fatalf("mode = %v, want read-only", c.Mode())
	}
	if c.Ready() {
		t.Fatal("Ready() = true in read-only")
	}
	// Disk reclaimed: read-only exits through recovering to healthy.
	fs.free = 5000
	w.Tick()
	clk.advance(2 * time.Second)
	if c.Mode() != ModeRecovering {
		t.Fatalf("mode = %v, want recovering after reclaim", c.Mode())
	}
	clk.advance(2 * time.Second)
	if c.Mode() != ModeHealthy {
		t.Fatalf("mode = %v, want healthy", c.Mode())
	}
}

func TestControllerMetrics(t *testing.T) {
	clk := newFakeClock()
	c := NewController(Config{
		Limiter: LimiterConfig{MinLimit: 2, MaxLimit: 2, InitialLimit: 2, Now: clk.now},
		Now:     clk.now,
	})
	h := c.Middleware(okHandler())
	doReq(t, h, "POST", "/v1/events", nil)
	for c.limiter.Acquire(1.0) {
	}
	doReq(t, h, "POST", "/v1/events", nil) // shed
	reg := obs.NewRegistry()
	c.RegisterMetrics(reg)
	vals := reg.Values()
	if got := vals[`qtag_admission_admitted_total{class="live"}`]; got != 1 {
		t.Fatalf(`admitted{live} = %v, want 1`, got)
	}
	if got := vals[`qtag_admission_shed_total{class="live"}`]; got != 1 {
		t.Fatalf(`shed{live} = %v, want 1`, got)
	}
	if got := vals[`qtag_admission_limit`]; got != 2 {
		t.Fatalf("limit gauge = %v, want 2", got)
	}
	if got := vals[`qtag_admission_inflight`]; got != 2 {
		t.Fatalf("inflight gauge = %v, want 2", got)
	}
	if got := vals[`qtag_admission_mode{mode="browned-out"}`]; got != 1 {
		t.Fatalf(`mode{browned-out} = %v, want 1 right after a shed`, got)
	}
	if got := vals[`qtag_admission_mode{mode="healthy"}`]; got != 0 {
		t.Fatalf(`mode{healthy} = %v, want 0`, got)
	}
}

// A CPU profile or an execution trace holds its connection for as long as
// the caller asked and does nothing meanwhile: it is admitted against the
// debug share, then gives its slot back, so taking one does not shed the
// dashboards beside it (limit 4: debug share 1, federate share 1.4).
// Once other classes fill the debug share, a debug request runs on the
// debug class's own slot, which no other class can take; while real debug
// work holds that slot, the next debug request is shed.
func TestControllerProfileHoldsNoSlot(t *testing.T) {
	clk := newFakeClock()
	c := NewController(Config{
		Limiter: LimiterConfig{MinLimit: 4, MaxLimit: 4, InitialLimit: 4, Now: clk.now},
		Now:     clk.now,
	})
	reg := obs.NewRegistry()
	c.RegisterMetrics(reg)
	inflight := func() float64 { return reg.Values()["qtag_admission_inflight"] }

	started, stop := make(chan string), make(chan struct{})
	h := c.Middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if sleeps(r) || r.URL.Path == "/v1/events" || r.URL.Path == "/debug/traces" {
			started <- r.URL.Path
			<-stop
		}
		w.WriteHeader(http.StatusAccepted)
	}))
	before := inflight()
	done := make(chan int, 5)
	for _, path := range []string{"/debug/pprof/profile", "/debug/pprof/trace"} {
		go func() { done <- doReq(t, h, "GET", path+"?seconds=30", nil).Code }()
		<-started
		if got := inflight(); got != before {
			t.Fatalf("%s running: qtag_admission_inflight = %v, want %v as before it started", path, got, before)
		}
	}
	go func() { done <- doReq(t, h, "POST", "/v1/events", nil).Code }()
	<-started
	if rec := doReq(t, h, "GET", "/report", nil); rec.Code != http.StatusAccepted {
		t.Fatalf("/report beside a profile, a trace and one ingest in flight = %d, want admitted", rec.Code)
	}
	if c.Shed(ClassFederate) != 0 {
		t.Fatalf("qtag_admission_shed_total{class=federate} = %d, want 0", c.Shed(ClassFederate))
	}
	// With the ingest in flight the debug share is exhausted (1 ≥ 1): a
	// profile arriving now runs on the debug class's own slot.
	go func() { done <- doReq(t, h, "GET", "/debug/pprof/profile?seconds=30", nil).Code }()
	if got := <-started; got != "/debug/pprof/profile" {
		t.Fatalf("%s started, want the profile", got)
	}
	// Real debug work holds that slot while it runs, and the next debug
	// request, with the share and the slot taken, is shed.
	go func() { done <- doReq(t, h, "GET", "/debug/traces", nil).Code }()
	<-started
	if rec := doReq(t, h, "GET", "/debug/pprof/profile", nil); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("profile with the debug share and the debug slot taken = %d, want 503", rec.Code)
	}
	close(stop)
	for i := 0; i < 5; i++ {
		if code := <-done; code != http.StatusAccepted {
			t.Fatalf("in-flight request ended %d", code)
		}
	}
	if got := c.Admitted(ClassDebug); got != 4 {
		t.Fatalf("Admitted(debug) = %d, want the two profiles, the trace and /debug/traces", got)
	}
	if rec := doReq(t, h, "GET", "/debug/pprof/cmdline", nil); rec.Code != http.StatusAccepted {
		t.Fatalf("debug request once everything ended = %d, want admitted", rec.Code)
	}
}
