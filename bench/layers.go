package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"qtag/internal/admission"
	"qtag/internal/aggregate"
	"qtag/internal/beacon"
	"qtag/internal/cluster"
	"qtag/internal/detect"
	"qtag/internal/obs"
	"qtag/internal/report"
	"qtag/internal/wal"
)

// tracedEvents bounds the traced run: enough calls per layer for a
// steady median, few enough that the span file stays a few megabytes.
const tracedEvents = 4096

// fsyncedAppends is how many appends the traced run repeats with an
// fsync each, to price the disk (≈ 0.3 ms apiece here).
const fsyncedAppends = 512

// nullWriter is the in-process ResponseWriter ("recorder") the traced
// run hands to handlers: it keeps the status and counts the bytes.
type nullWriter struct {
	header http.Header
	status int
	bytes  int
}

func newNullWriter() *nullWriter { return &nullWriter{header: http.Header{}, status: http.StatusOK} }

func (w *nullWriter) Header() http.Header  { return w.header }
func (w *nullWriter) WriteHeader(code int) { w.status = code }
func (w *nullWriter) Write(p []byte) (int, error) {
	w.bytes += len(p)
	return len(p), nil
}

var noop = http.HandlerFunc(func(http.ResponseWriter, *http.Request) {})

// spanSink wraps a sink so each Submit is one span.
func spanSink(rec *recorder, name string, next beacon.Sink) beacon.Sink {
	return beacon.SinkFunc(func(e beacon.Event) error {
		id := rec.begin(name)
		err := next.Submit(e)
		rec.end(id)
		return err
	})
}

// spanObserver wraps a store observer so each call is one span.
func spanObserver(rec *recorder, name string, fn func(beacon.Event)) func(beacon.Event) {
	return func(e beacon.Event) {
		id := rec.begin(name)
		fn(e)
		rec.end(id)
	}
}

// stack is the collector assembled in-process from the production
// packages, the way cmd/qtag-server wires it, with a span around every
// call that crosses a layer boundary.
type stack struct {
	store   *beacon.Store
	agg     *aggregate.Aggregator
	det     *detect.Detector
	wj      *beacon.WALJournal
	queue   *beacon.QueueSink
	node    *cluster.Node
	handler http.Handler // beacon.Server, no middleware
	walDir  string
}

// newStack builds the workload's ingest chain under dir. peerURL, when
// set, is a live qtag-server that owns the other half of a two-node ring.
func newStack(rec *recorder, w workload, dir, peerURL string) (*stack, error) {
	s := &stack{walDir: filepath.Join(dir, "trace-wal")}
	s.store = beacon.NewStoreWithShards(16)
	s.agg = aggregate.New(aggregate.Options{Shards: 16})
	s.det = detect.New(detect.Options{Shards: 16})
	s.store.AddObserver(spanObserver(rec, "aggregate.observe", s.agg.Observe))
	s.store.AddObserver(spanObserver(rec, "detect.observe", s.det.Observe))
	s.store.AddDupObserver(spanObserver(rec, "detect.observe_dup", s.det.ObserveDup))

	var err error
	if s.wj, _, err = beacon.OpenDurable(wal.Options{Dir: s.walDir, GroupCommit: true}, s.store); err != nil {
		return nil, fmt.Errorf("traced run: open wal: %w", err)
	}
	breaker := beacon.NewCircuitBreaker(s.wj, beacon.DefaultBreakerThreshold, 5*time.Second)
	storeSink := spanSink(rec, "store.submit", s.store)
	var sink beacon.Sink
	if w.syncWAL {
		sink = beacon.Tee(storeSink, spanSink(rec, "wal.append", breaker))
	} else {
		s.queue = beacon.NewQueueSink(breaker, beacon.QueueOptions{})
		sink = beacon.Tee(storeSink, spanSink(rec, "queue.submit", s.queue))
	}
	if peerURL != "" {
		s.node, err = cluster.NewNode(cluster.Config{
			Self:       "a",
			Peers:      map[string]string{"b": peerURL},
			Local:      sink,
			HandoffDir: filepath.Join(dir, "trace-hints"),
			Binary:     true,
		})
		if err != nil {
			s.close()
			return nil, fmt.Errorf("traced run: cluster node: %w", err)
		}
		ring, node := s.node.Ring(), s.node
		sink = beacon.SinkFunc(func(e beacon.Event) error {
			name := "cluster.local"
			if ring.Owner(e.ImpressionID) != "a" {
				name = "cluster.forward"
			}
			id := rec.begin(name)
			err := node.Submit(e)
			rec.end(id)
			return err
		})
	}
	s.handler = beacon.NewServerWithSink(s.store, &beacon.StampSink{Next: sink, Now: time.Now})
	return s, nil
}

func (s *stack) close() {
	if s.node != nil {
		_ = s.node.Close() // scratch hint log; nothing to recover from its error
	}
	if s.queue != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = s.queue.Close(ctx) // a drain timeout only leaves scratch events unflushed
		cancel()
	}
	_ = s.wj.Close() // scratch WAL, removed with the run directory
}

// discardServer is the loopback HTTP server of the net layer: the real
// beacon.Server over a sink that drops everything, so a round trip
// costs the socket, net/http and the handler, and the handler's part is
// timed on its own goroutine and subtracted.
type discardServer struct {
	ln         net.Listener
	srv        *http.Server
	start, end atomic.Int64 // handler entry and exit, UnixNano
}

func newDiscardServer() (*discardServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &discardServer{ln: ln}
	inner := beacon.NewServerWithSink(beacon.NewStore(), beacon.Discard)
	d.srv = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		d.start.Store(time.Now().UnixNano())
		inner.ServeHTTP(w, r)
		d.end.Store(time.Now().UnixNano())
	})}
	go func() { _ = d.srv.Serve(ln) }() // returns ErrServerClosed on close
	return d, nil
}

func (d *discardServer) close() { _ = d.srv.Close() }

// layerRun is what the traced run measured, keyed by per-layer metric.
type layerRun struct {
	values map[string]float64
	spans  []span
}

// httpRequest builds the in-process request for one generated POST.
func httpRequest(r request, contentType string) *http.Request {
	req, _ := http.NewRequest(http.MethodPost, "/v1/events", bytes.NewReader(r.body())) // constant method and URL cannot fail
	req.Header.Set("Content-Type", contentType)
	return req
}

// mallocs returns the process's cumulative allocation count.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// tracedRun replays generated inputs through each layer's public
// functions, one call at a time, and records a span around each call.
// preload is fed to the in-process store first so that snapshots and
// the report render see the state size the end-to-end run had.
func tracedRun(w workload, seed uint64, dir, peerURL string, preload []beacon.Event) (layerRun, error) {
	out := layerRun{values: map[string]float64{}}
	v := out.values
	rec := newRecorder()
	rec.off = true // set-up below is not traced

	requests := tracedEvents / w.batch
	in := generate(genSpec{seed: seed, label: "trace", campaigns: w.campaigns, batch: w.batch, binary: w.binary, requests: requests})
	contentType := "application/json"
	if w.binary {
		contentType = beacon.BinaryContentType
	}

	st, err := newStack(rec, w, dir, peerURL)
	if err != nil {
		return out, err
	}
	defer st.close()
	for _, e := range preload {
		if err := st.store.Submit(e); err != nil {
			return out, fmt.Errorf("traced run: preload: %w", err)
		}
	}
	disc, err := newDiscardServer()
	if err != nil {
		return out, err
	}
	defer disc.close()
	dconn, err := dial(disc.ln.Addr().String())
	if err != nil {
		return out, err
	}
	defer dconn.close()
	ctrl := admission.NewController(admission.Config{})
	admitted := ctrl.Middleware(noop)

	// Warm the socket, the pools and the admission limiter outside the trace.
	for _, r := range in.reqs[:min(32, len(in.reqs))] {
		if _, err := dconn.post(r.wire); err != nil {
			return out, fmt.Errorf("traced run: net warm-up: %w", err)
		}
		admitted.ServeHTTP(newNullWriter(), httpRequest(r, contentType))
	}

	// Per-request replay. Even requests are traced; odd ones run the same
	// wrappers with the recorder off and time the three calls only, which
	// prices the tracing itself. Alternating keeps both halves under the
	// same cache, map-size and GC conditions.
	half := len(in.reqs) / 2
	var untraced []float64
	var handlerMallocs uint64
	for k, r := range in.reqs {
		rec.off = k%2 == 1
		rec.request = k
		admitReq, handlerReq := httpRequest(r, contentType), httpRequest(r, contentType)
		hw := newNullWriter()
		var busy time.Duration // untraced half: the three calls, timed without spans
		root := rec.begin("request")

		t0 := time.Now()
		id := rec.begin("net.roundtrip")
		a, err := dconn.post(r.wire)
		if err != nil || !a.ok() {
			return out, fmt.Errorf("traced run: discard round trip: %v (status %d)", err, a.status)
		}
		rec.add("net.handler", time.Unix(0, disc.start.Load()), time.Unix(0, disc.end.Load()))
		rec.end(id)
		busy += time.Since(t0) - time.Duration(disc.end.Load()-disc.start.Load())

		t0 = time.Now()
		id = rec.begin("admission.middleware")
		admitted.ServeHTTP(newNullWriter(), admitReq)
		rec.end(id)
		busy += time.Since(t0)

		var before uint64
		if rec.off {
			before = mallocs()
		}
		t0 = time.Now()
		id = rec.begin("server.handler")
		st.handler.ServeHTTP(hw, handlerReq)
		rec.end(id)
		busy += time.Since(t0)
		if rec.off {
			handlerMallocs += mallocs() - before
			untraced = append(untraced, float64(busy))
		}

		rec.end(root)
		if hw.status != http.StatusAccepted {
			return out, fmt.Errorf("traced run: handler answered %d for request %d", hw.status, k)
		}
	}
	handlerAllocs := float64(handlerMallocs) / float64(len(in.reqs)-half)
	rec.off = false
	rec.request = -1
	// The bulk measurements below use the first half of the pool.
	tracedReqs := in.reqs[:half]
	tracedEvs := in.eventsOf(half)
	nEv := float64(len(tracedEvs))

	// Bulk measurements: calls that belong to no request.
	span1 := func(name string, fn func()) float64 {
		id := rec.begin(name)
		fn()
		rec.end(id)
		return float64(rec.spans[id].duration())
	}

	// codec: the same events in both wire formats.
	var jsonBytes, binBytes int
	var dec beacon.BatchDecoder
	encBuf := make([]byte, 0, 64<<10)
	for _, r := range tracedReqs {
		batch := in.events[r.first : r.first+r.n]
		jb := jsonBody(batch)
		jsonBytes += len(jb)
		span1("codec.json_decode", func() {
			if len(batch) == 1 {
				var e beacon.Event
				err = json.Unmarshal(jb, &e)
			} else {
				var es []beacon.Event
				err = json.Unmarshal(jb, &es)
			}
		})
		if err != nil {
			return out, fmt.Errorf("traced run: json decode: %w", err)
		}
		span1("codec.binary_encode", func() { encBuf = beacon.AppendBinaryEvents(encBuf[:0], batch) })
		binBytes += len(encBuf)
		bb := append([]byte(nil), encBuf...)
		span1("codec.binary_decode", func() { _, err = dec.Decode(bb) })
		if err != nil {
			return out, fmt.Errorf("traced run: binary decode: %w", err)
		}
	}
	// Steady-state decode allocations on the workload's own wire format.
	allocsBefore := mallocs()
	for _, r := range tracedReqs {
		if w.binary {
			_, _ = dec.Decode(r.body()) // decoded above without error
		} else {
			var e beacon.Event
			_ = json.Unmarshal(r.body(), &e)
		}
	}
	v["codec.decode_allocs_per_event"] = float64(mallocs()-allocsBefore) / nEv

	// store: an observer-less store, first-seen then duplicate.
	bare := beacon.NewStoreWithShards(16)
	for _, name := range []string{"bulk.store.submit", "bulk.store.dup_submit"} {
		for _, e := range tracedEvs {
			id := rec.begin(name)
			err := bare.Submit(e)
			rec.end(id)
			if err != nil {
				return out, fmt.Errorf("traced run: store submit: %w", err)
			}
		}
	}
	// Heap per stored event: a second store filled with nothing else
	// allocating, between collections that also empty the sync.Pools.
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m0)
	bare = beacon.NewStoreWithShards(16)
	for _, e := range tracedEvs {
		_ = bare.Submit(e) // accepted by the loop above
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m1)
	v["store.heap_bytes_per_event"] = (float64(m1.HeapAlloc) - float64(m0.HeapAlloc)) / nEv
	runtime.KeepAlive(bare)

	// wal: what an append costs when every record is fsynced — the
	// sandbox disk's number, kept out of the end-to-end runs — and, on
	// the async path, what it costs off the ack path.
	appendAll := func(name string, opts wal.Options, events []beacon.Event) error {
		bj, _, err := beacon.OpenDurable(opts, beacon.NewStore())
		if err != nil {
			return err
		}
		for _, e := range events {
			id := rec.begin(name)
			err := bj.Submit(e)
			rec.end(id)
			if err != nil {
				_ = bj.Close() // the append error is the one to report
				return fmt.Errorf("traced run: %s: %w", name, err)
			}
		}
		return bj.Close()
	}
	fsynced := wal.Options{Dir: filepath.Join(dir, "trace-wal-fsync"), GroupCommit: true, Fsync: wal.FsyncAlways}
	if err := appendAll("bulk.wal.append_fsync", fsynced, tracedEvs[:min(fsyncedAppends, len(tracedEvs))]); err != nil {
		return out, err
	}
	if st.queue != nil {
		if err := appendAll("wal.append", wal.Options{Dir: filepath.Join(dir, "trace-wal-bulk"), GroupCommit: true}, tracedEvs); err != nil {
			return out, err
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err = st.queue.Close(ctx) // drain so the WAL below holds every replayed event
		cancel()
		if err != nil {
			return out, fmt.Errorf("traced run: drain queue: %w", err)
		}
		st.queue = nil
	}
	if err := st.wj.Sync(); err != nil {
		return out, err
	}
	appended := float64(st.wj.Len())
	v["wal.bytes_per_event"] = float64(dirBytes(st.walDir)) / appended
	scanned := 0
	scanNS := span1("wal.scan", func() {
		_, err = wal.Scan(nil, st.walDir, func(_ uint64, payload []byte) error {
			if _, derr := beacon.DecodeStoredEvent(payload); derr != nil {
				return derr
			}
			scanned++
			return nil
		})
	})
	if err != nil || scanned == 0 {
		return out, fmt.Errorf("traced run: wal scan: %d records, %v", scanned, err)
	}
	v["wal.scan_ns_per_event"] = scanNS / float64(scanned)

	// aggregate, detect, report: snapshots at the end-to-end state size.
	v["aggregate.snapshot_ms"] = span1("aggregate.snapshot", func() { _ = st.agg.Snapshot() }) / 1e6
	v["detect.snapshot_ms"] = span1("detect.snapshot", func() { _ = st.det.Snapshot() }) / 1e6
	rw := newNullWriter()
	reportReq, _ := http.NewRequest(http.MethodGet, "/report", nil) // constant method and URL cannot fail
	render := report.HandlerWithDetect(st.agg, st.det, nil)
	v["report.render_ms"] = span1("report.render", func() { render.ServeHTTP(rw, reportReq) }) / 1e6
	v["report.response_bytes"] = float64(rw.bytes)
	v["wal.snapshot_ms"] = span1("wal.snapshot", func() { _, err = st.wj.Snapshot(st.store) }) / 1e6
	if err != nil {
		return out, fmt.Errorf("traced run: wal snapshot: %w", err)
	}
	for _, e := range tracedEvs {
		id := rec.begin("bulk.detect.observe_dup")
		st.det.ObserveDup(e)
		rec.end(id)
	}

	// Nanosecond-scale calls are timed as one loop: a clock read per
	// call would cost as much as the call.
	ring, err := cluster.NewRing([]string{"a", "b"}, 0)
	if err != nil {
		return out, err
	}
	remote := 0
	v["cluster.ring_owner_ns"] = span1("cluster.ring_owner", func() {
		for _, e := range tracedEvs {
			if ring.Owner(e.ImpressionID) != "a" {
				remote++
			}
		}
	}) / nEv
	const mwCalls = 20000
	mwReq, _ := http.NewRequest(http.MethodPost, "/v1/events", nil) // constant method and URL cannot fail
	for _, c := range []struct {
		metric string
		rate   float64
	}{{"obs.trace_mw_ns_sample0", 0}, {"obs.trace_mw_ns_sample1", 1}} {
		tr := obs.NewTracer(obs.TracerConfig{Node: "bench", SampleRate: c.rate, Store: obs.NewSpanStore(obs.DefaultSpanBuffer)})
		mw := obs.TraceMiddleware(tr, "bench", noop)
		nw := newNullWriter()
		v[c.metric] = span1(c.metric, func() {
			for i := 0; i < mwCalls; i++ {
				mw.ServeHTTP(nw, mwReq)
			}
		}) / mwCalls
	}

	// Per-layer numbers from the spans.
	out.spans = rec.spans
	self := selfTimes(rec.spans)
	durs := make([]int64, len(rec.spans))
	for i, s := range rec.spans {
		durs[i] = s.duration()
	}
	selfBy, durBy := byName(rec.spans, self), byName(rec.spans, durs)
	med := func(xs []float64) float64 { return median(xs) }
	perEvent := func(xs []float64) float64 { return med(xs) / float64(w.batch) }

	v["net.roundtrip_discard_us_p50"] = med(durBy["net.roundtrip"]) / 1e3
	v["net.transport_us_per_request"] = med(selfBy["net.roundtrip"]) / 1e3
	v["server.handler_self_ns_per_request"] = med(selfBy["server.handler"])
	v["server.handler_allocs_per_request"] = handlerAllocs
	v["admission.middleware_ns_per_request"] = med(durBy["admission.middleware"])
	v["codec.json_decode_ns_per_event"] = perEvent(durBy["codec.json_decode"])
	v["codec.binary_decode_ns_per_event"] = perEvent(durBy["codec.binary_decode"])
	v["codec.binary_encode_ns_per_event"] = perEvent(durBy["codec.binary_encode"])
	v["codec.json_bytes_per_event"] = float64(jsonBytes) / nEv
	v["codec.binary_bytes_per_event"] = float64(binBytes) / nEv
	appends := sorted(durBy["wal.append"])
	v["wal.append_us_p50"] = quantile(appends, 0.5) / 1e3
	v["wal.append_us_p99"] = quantile(appends, 0.99) / 1e3
	v["wal.append_fsync_us_p50"] = med(durBy["bulk.wal.append_fsync"]) / 1e3
	v["store.submit_ns_per_event"] = med(durBy["bulk.store.submit"])
	v["store.dup_submit_ns_per_event"] = med(durBy["bulk.store.dup_submit"])
	v["aggregate.observe_ns_per_event"] = med(durBy["aggregate.observe"])
	v["detect.observe_ns_per_event"] = med(durBy["detect.observe"])
	v["detect.observe_dup_ns_per_event"] = med(durBy["bulk.detect.observe_dup"])
	v["cluster.forward_us_per_event"] = med(durBy["cluster.forward"]) / 1e3

	// Ledger: per traced request, the sum of the self times of its spans
	// is the root's duration minus what no span covers; it is compared
	// with the untraced end-to-end median by the caller.
	sums := map[int]float64{}
	for i, s := range rec.spans {
		if s.Request >= 0 && s.Name != "request" && s.Name != "net.handler" {
			sums[s.Request] += float64(self[i])
		}
	}
	perRequest := make([]float64, 0, len(sums))
	for _, x := range sums {
		perRequest = append(perRequest, x)
	}
	v["ledger.sum_layers_us"] = med(perRequest) / 1e3
	if u := med(untraced); u > 0 {
		v["ledger.trace_overhead_ratio"] = med(perRequest)/u - 1
	}
	return out, nil
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) int64 {
	var total int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil // an unreadable entry only makes the total smaller
		}
		if info, ierr := d.Info(); ierr == nil {
			total += info.Size()
		}
		return nil
	})
	return total
}
