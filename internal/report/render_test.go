package report

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"sync"
	"testing"
	"time"

	"qtag/internal/aggregate"
	"qtag/internal/beacon"
	"qtag/internal/detect"
	"qtag/internal/obs"
	"qtag/internal/simrand"
)

// stack is the server's observer wiring: a deduplicating store feeding
// the aggregator and (optionally) the detector on both hooks.
type stack struct {
	store *beacon.Store
	a     *aggregate.Aggregator
	d     *detect.Detector // nil: a report without a fraud section
}

func newStack(withDetect bool, dopts detect.Options) *stack {
	clock := func() time.Time { return rt0 }
	s := &stack{
		store: beacon.NewStore(),
		a:     aggregate.New(aggregate.Options{TTL: -1, Now: clock}),
	}
	s.store.AddObserver(s.a.Observe)
	if withDetect {
		dopts.TTL, dopts.Now = -1, clock
		s.d = detect.New(dopts)
		s.store.AddObserver(s.d.Observe)
		s.store.AddDupObserver(s.d.ObserveDup)
	}
	return s
}

func (s *stack) submit(evs ...beacon.Event) {
	for _, e := range evs {
		_ = s.store.Submit(e) // the events these tests build are valid
	}
}

// marshalled is the report as the handler produced it before it had an
// encoder of its own: snapshots of every section, handed to
// encoding/json. It is the definition of the payload.
func marshalled(t testing.TB, a *aggregate.Aggregator, d *detect.Detector, windows bool) []byte {
	t.Helper()
	ref := ViewabilityReport{
		GeneratedAt:     rt0,
		Campaigns:       a.Snapshot(),
		OpenImpressions: a.OpenImpressions(),
		Evicted:         a.Evicted(),
	}
	if windows {
		ref.Windows = a.Windows()
	}
	if d != nil {
		fraud := d.Snapshot()
		ref.Fraud = &fraud
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(ref); err != nil {
		t.Fatalf("reference marshal: %v", err)
	}
	return buf.Bytes()
}

// requireIdentical renders GET /report (with and without the rollup
// windows) from a quiescent stack and requires, byte for byte, the
// marshalled snapshots of the same stack.
func requireIdentical(t testing.TB, a *aggregate.Aggregator, d *detect.Detector) {
	t.Helper()
	h := HandlerWithDetect(a, d, func() time.Time { return rt0 })
	for _, c := range []struct {
		url     string
		windows bool
	}{{"/report", true}, {"/report?windows=0", false}} {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("GET", c.url, nil))
		got, want := rr.Body.Bytes(), marshalled(t, a, d, c.windows)
		if rr.Code != 200 || rr.Header().Get("Content-Type") != "application/json" {
			t.Fatalf("%s: status %d, content-type %q", c.url, rr.Code, rr.Header().Get("Content-Type"))
		}
		if cl := rr.Header().Get("Content-Length"); cl != strconv.Itoa(len(got)) {
			t.Fatalf("%s: Content-Length %q for a %d-byte body", c.url, cl, len(got))
		}
		if !bytes.Equal(got, want) {
			i := 0
			for i < len(got) && i < len(want) && got[i] == want[i] {
				i++
			}
			lo := max(i-80, 0)
			t.Fatalf("%s: rendered report differs from json.Marshal at byte %d (%d vs %d bytes)\n got: …%s\nwant: …%s",
				c.url, i, len(got), len(want), got[lo:min(i+80, len(got))], want[lo:min(i+80, len(want))])
		}
	}
}

// benchEvents draws events in the shape of the repository benchmark's
// generator (bench/gen.go): impressions over zipf(1.1)-ranked campaigns,
// each a served event, the tag's check-in, in-view with probability 0.6
// and then out-of-view with probability 0.5, over two formats, three ad
// sizes and forty slots.
func benchEvents(seed uint64, campaigns, n int) []beacon.Event {
	rng := simrand.New(seed).Fork("report-render")
	cdf := make([]float64, campaigns)
	sum := 0.0
	for k := range cdf {
		sum += 1 / math.Pow(float64(k+1), 1.1)
		cdf[k] = sum
	}
	formats := []string{"display", "video"}
	sizes := []string{"300x250", "320x50", "728x90"}
	base := time.Unix(1546300800, 0).UTC()
	events := make([]beacon.Event, 0, n+4)
	for imp := 0; len(events) < n; imp++ {
		at := base.Add(time.Duration(imp)*20*time.Millisecond + time.Duration(rng.Intn(20_000))*time.Microsecond)
		ev := beacon.Event{
			ImpressionID: "s" + strconv.FormatUint(seed, 36) + "-" + strconv.Itoa(imp),
			CampaignID:   "camp-" + strconv.Itoa(sort.SearchFloat64s(cdf, rng.Float64()*sum)+1),
			Type:         beacon.EventServed,
			At:           at,
			Meta: beacon.Meta{
				Format: formats[rng.Intn(len(formats))],
				AdSize: sizes[rng.Intn(len(sizes))],
				Slot:   "slot-" + strconv.Itoa(rng.Intn(40)),
			},
		}
		events = append(events, ev)
		ev.Source, ev.Type = beacon.SourceQTag, beacon.EventLoaded
		ev.At = at.Add(time.Duration(200+rng.Intn(1300)) * time.Millisecond)
		events = append(events, ev)
		if rng.Bool(0.6) {
			ev.Type = beacon.EventInView
			ev.At = ev.At.Add(time.Duration(1000+rng.Intn(4000)) * time.Millisecond)
			events = append(events, ev)
			if rng.Bool(0.5) {
				ev.Type = beacon.EventOutOfView
				ev.At = ev.At.Add(time.Duration(rng.Exponential(4)*1000+150) * time.Millisecond)
				events = append(events, ev)
			}
		}
	}
	return events[:n]
}

// TestRenderIdenticalToMarshal pins "byte-identical" as a property of
// the stack's state rather than of one golden file: whatever the
// accumulators hold, the handler's bytes are encoding/json's.
func TestRenderIdenticalToMarshal(t *testing.T) {
	t.Run("golden stack", func(t *testing.T) {
		a, d := goldenStack(t)
		requireIdentical(t, a, d)
		requireIdentical(t, a, nil)
	})

	t.Run("empty", func(t *testing.T) {
		s := newStack(true, detect.Options{})
		requireIdentical(t, s.a, s.d) // "rows":null twice, no dwell, no windows, no flagged_campaigns
		requireIdentical(t, s.a, nil)
	})

	t.Run("row shapes", func(t *testing.T) {
		s := newStack(true, detect.Options{})
		at := rt0
		ev := func(imp, camp string, src beacon.Source, typ beacon.EventType, format string) beacon.Event {
			at = at.Add(time.Second)
			return beacon.Event{ImpressionID: imp, CampaignID: camp, Source: src, Type: typ, At: at, Meta: beacon.Meta{Format: format}}
		}
		s.submit(
			// A row with no format, and a third, literal solution beside the
			// canonical two: three keys to put in byte order.
			ev("n1", "camp-noformat", "", beacon.EventServed, ""),
			ev("n1", "camp-noformat", "zz-verifier", beacon.EventLoaded, ""),
			ev("n1", "camp-noformat", "zz-verifier", beacon.EventInView, ""),
			ev("n1", "camp-noformat", "zz-verifier", beacon.EventOutOfView, ""),
			ev("n1", "camp-noformat", "aa-verifier", beacon.EventLoaded, ""),
			ev("n1", "camp-noformat", beacon.SourceCommercial, beacon.EventLoaded, ""),
			// Two impressions on video; m1 then migrates to banner (a smaller
			// format arrives late), leaving video's third-source counters at
			// zero but present, and m3's migration empties "wide" — that row
			// is deleted.
			ev("m1", "camp-migrate", "", beacon.EventServed, "video"),
			ev("m1", "camp-migrate", "x-verifier", beacon.EventLoaded, "video"),
			ev("m2", "camp-migrate", "", beacon.EventServed, "video"),
			ev("m2", "camp-migrate", beacon.SourceQTag, beacon.EventInView, "video"),
			ev("m1", "camp-migrate", "x-verifier", beacon.EventInView, "banner"),
			ev("m3", "camp-migrate", beacon.SourceQTag, beacon.EventLoaded, "wide"),
			ev("m3", "camp-migrate", "", beacon.EventServed, "banner"),
		)
		snap := s.a.Snapshot()
		if len(snap.Rows) != 3 || snap.Rows[0].Format != "banner" || snap.Rows[1].Format != "video" || snap.Rows[2].Format != "" {
			t.Fatalf("fixture did not produce banner, video and format-less rows: %+v", snap.Rows)
		}
		if c, ok := snap.Rows[1].Sources["x-verifier"]; !ok || c.Measured != 0 {
			t.Fatalf("fixture's video row should keep a zeroed x-verifier entry: %+v", snap.Rows[1].Sources)
		}
		if len(snap.Rows[2].Sources) != 4 {
			t.Fatalf("fixture's format-less row should carry four sources: %+v", snap.Rows[2].Sources)
		}
		requireIdentical(t, s.a, s.d)
	})

	t.Run("strings", func(t *testing.T) {
		s := newStack(true, detect.Options{MinEvents: 1})
		nasty := []string{
			`quote"back\slash`, "<script>&amp;</script>", "ctl\x00\x01\b\f\n\r\t\x1f\x7f",
			"bad\xff\xfeutf8\xc3", "line\u2028sep\u2029para", "ünï©ødé-日本語-🙂", "\xed\xa0\x80surrogate", "\u2029",
		}
		for i, c := range nasty {
			for j, other := range nasty {
				imp := "imp-" + strconv.Itoa(i) + "-" + strconv.Itoa(j)
				at := rt0.Add(time.Duration(i*len(nasty)+j) * time.Second)
				meta := beacon.Meta{Format: other, Slot: other, AdSize: "1x1"}
				s.submit(
					beacon.Event{ImpressionID: imp, CampaignID: c, Type: beacon.EventServed, At: at, Meta: meta},
					beacon.Event{ImpressionID: imp, CampaignID: c, Source: beacon.Source(other), Type: beacon.EventInView, At: at, Meta: meta},
					beacon.Event{ImpressionID: imp, CampaignID: c, Source: beacon.Source(other), Type: beacon.EventOutOfView, At: at.Add(time.Second), Meta: meta},
				)
			}
		}
		if len(s.d.Snapshot().Flagged) == 0 {
			t.Fatal("fixture should flag campaigns, so flagged_campaigns carries the strings too")
		}
		requireIdentical(t, s.a, s.d)
	})

	t.Run("small floats", func(t *testing.T) {
		// A score a hair over a ramp's foot is < 1e-6, where encoding/json
		// switches to exponent form: 50 served events in one second
		// against a baseline of 50 − 1e-7.
		s := newStack(true, detect.Options{RateBaseline: 50 - 1e-7, RateMax: 250, BurstTolerance: 1e6, BurstMax: 1e7})
		for i := 0; i < 50; i++ {
			s.submit(beacon.Event{ImpressionID: "i" + strconv.Itoa(i), CampaignID: "camp-tiny", Type: beacon.EventServed, At: rt0})
		}
		if sc := s.d.Snapshot().Rows[0].Score; !(sc > 0 && sc < 1e-6) {
			t.Fatalf("fixture score = %g, want within (0, 1e-6)", sc)
		}
		requireIdentical(t, s.a, s.d)
	})

	t.Run("bench shape", func(t *testing.T) {
		// The benchmark's report_under_ingest shape: the state is checked,
		// then re-checked after each further slice of ingest in which one
		// event in seven is sent twice (the second lands on the duplicate
		// hook, which moves only fraud rows).
		s := newStack(true, detect.Options{})
		events := benchEvents(1, 5000, 74_000)
		s.submit(events[:50_000]...)
		requireIdentical(t, s.a, s.d)
		rest := events[50_000:]
		for len(rest) > 0 {
			slice := rest[:min(8_000, len(rest))]
			rest = rest[len(slice):]
			for i, e := range slice {
				s.submit(e)
				if i%7 == 0 {
					s.submit(e)
				}
			}
			requireIdentical(t, s.a, s.d)
		}
		if got := s.d.DupEvents(); got == 0 {
			t.Fatal("re-sends never reached the duplicate hook")
		}
	})
}

// TestRenderUnderConcurrentIngest: a reader polling beside eight
// ingesting goroutines always receives a complete, decodable report
// (consistent per campaign shard, as Snapshot is), and once ingest
// stops the body is exactly the marshalled snapshot. Run under -race
// this is also the proof that the encoders read nothing outside the
// locks that guard it.
func TestRenderUnderConcurrentIngest(t *testing.T) {
	s := newStack(true, detect.Options{})
	h := HandlerWithDetect(s.a, s.d, func() time.Time { return rt0 })
	events := benchEvents(7, 300, 16_000)
	const writers = 8

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(events); i += writers {
				s.submit(events[i])
				if i%7 == 0 {
					s.submit(events[i])
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for polls := 0; ; polls++ {
				rr := httptest.NewRecorder()
				h.ServeHTTP(rr, httptest.NewRequest("GET", "/report", nil))
				var rep ViewabilityReport
				if err := json.Unmarshal(rr.Body.Bytes(), &rep); err != nil {
					t.Errorf("poll %d: report does not decode: %v", polls, err)
					return
				}
				if rep.Fraud == nil {
					t.Errorf("poll %d: fraud section missing", polls)
					return
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	readers.Wait()
	<-done
	requireIdentical(t, s.a, s.d)
}

// TestHandlerNilDetectorHasNoFraudKey: report.Handler(a, nil) serves
// the pre-detect schema — no "fraud" key at all, not a null one.
func TestHandlerNilDetectorHasNoFraudKey(t *testing.T) {
	body := get(t, Handler(reportAgg(t), nil), "/report").Body.Bytes()
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(body, &fields); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if _, ok := fields["fraud"]; ok {
		t.Fatalf("nil detector served a fraud key: %s", body)
	}
	for _, want := range []string{"generated_at", "campaigns", "open_impressions", "evicted_impression_states", "windows"} {
		if _, ok := fields[want]; !ok {
			t.Errorf("report lacks %q: %s", want, body)
		}
	}
}

// TestHandlerSpanAttributes: behind obs.TraceMiddleware the request's
// span carries the report's shape.
func TestHandlerSpanAttributes(t *testing.T) {
	a, d := goldenStack(t)
	spans := obs.NewSpanStore(16)
	tracer := obs.NewTracer(obs.TracerConfig{Node: "test", SampleRate: 1, Store: spans})
	h := obs.TraceMiddleware(tracer, "report", HandlerWithDetect(a, d, nil))
	if rr := get(t, h, "/report"); rr.Code != 200 {
		t.Fatalf("status = %d", rr.Code)
	}
	recs := spans.Snapshot()
	if len(recs) != 1 {
		t.Fatalf("spans = %+v", recs)
	}
	snap, fraud := a.Snapshot(), d.Snapshot()
	for key, want := range map[string]int{
		"report.campaign_rows":     len(snap.Rows),
		"report.open_impressions":  a.OpenImpressions(),
		"report.flagged_campaigns": len(fraud.Flagged),
	} {
		if got := recs[0].Attr(key); got != strconv.Itoa(want) || want == 0 {
			t.Errorf("span attr %s = %q, want %d (non-zero)", key, got, want)
		}
	}
}

// TestRenderAllocBudget: a render is a handful of allocations (the
// recorder, the headers, the window spans, growth of a cold pool
// entry), whatever the number of campaigns. Before the encoder it was
// one map per row and per score row plus two slices per histogram — five
// figures at this size — so a return to per-row structures fails here
// rather than in a benchmark.
func TestRenderAllocBudget(t *testing.T) {
	s := newStack(true, detect.Options{})
	s.submit(benchEvents(3, 500, 20_000)...)
	h := HandlerWithDetect(s.a, s.d, nil)
	req := httptest.NewRequest("GET", "/report", nil)
	w := &discardWriter{h: http.Header{}}
	h.ServeHTTP(w, req) // warm the pool
	allocs := testing.AllocsPerRun(20, func() { h.ServeHTTP(w, req) })
	if rows := len(s.a.Snapshot().Rows); rows < 500 {
		t.Fatalf("fixture has %d rows, want the 500-campaign shape", rows)
	}
	if allocs > 64 {
		t.Fatalf("GET /report = %.0f allocs per render, budget 64", allocs)
	}
	t.Logf("GET /report: %.0f allocs per render, %d bytes", allocs, w.n)
}

// discardWriter is a ResponseWriter that counts and drops the body, so
// allocation figures are the handler's alone.
type discardWriter struct {
	h http.Header
	n int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) WriteHeader(int)             {}
func (w *discardWriter) Write(p []byte) (int, error) { w.n = len(p); return len(p), nil }

// BenchmarkReportRender5000 is GET /report at the shape of the
// benchmark's report_under_ingest workload: 400 k events over 5 000
// zipf-ranked campaigns with a detector attached. CHANGES.md quotes it
// for the parent and for this encoder.
func BenchmarkReportRender5000(b *testing.B) { benchmarkRender(b, 5000, 400_000) }

// BenchmarkReportRender99 is the same at the 99 campaigns of the
// benchmark's other workloads, whose quiescent reads it models.
func BenchmarkReportRender99(b *testing.B) { benchmarkRender(b, 99, 100_000) }

func benchmarkRender(b *testing.B, campaigns, events int) {
	s := newStack(true, detect.Options{})
	s.submit(benchEvents(1, campaigns, events)...)
	h := HandlerWithDetect(s.a, s.d, nil)
	req := httptest.NewRequest("GET", "/report", nil)
	w := &discardWriter{h: http.Header{}}
	h.ServeHTTP(w, req)
	b.SetBytes(int64(w.n))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.ServeHTTP(w, req)
	}
}
