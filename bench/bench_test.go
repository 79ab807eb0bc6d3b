package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net"
	"net/http"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"qtag/internal/aggregate"
)

func TestGenerateIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		spec := genSpec{seed: 7, label: "open", campaigns: w.campaigns, batch: w.batch, binary: w.binary, dupShare: w.dupShare, requests: 40}
		a, b := generate(spec), generate(spec)
		if len(a.reqs) != len(b.reqs) || len(a.reqs) < spec.requests {
			t.Fatalf("%s: %d and %d requests from one seed, want at least %d", w.name, len(a.reqs), len(b.reqs), spec.requests)
		}
		for i := range a.reqs {
			if !bytes.Equal(a.reqs[i].wire, b.reqs[i].wire) {
				t.Fatalf("%s: request %d differs between two generations of seed 7", w.name, i)
			}
		}
		spec.seed = 8
		c := generate(spec)
		same := 0
		for i := range a.reqs[:spec.requests] {
			if bytes.Equal(a.reqs[i].body(), c.reqs[i].body()) {
				same++
			}
		}
		if same > 0 {
			t.Errorf("%s: %d of %d bodies identical under seeds 7 and 8", w.name, same, spec.requests)
		}
	}
}

func TestGenerateLifecycleAndDuplicates(t *testing.T) {
	p := generate(genSpec{seed: 1, label: "open", campaigns: 99, batch: 64, binary: true, dupShare: 0.5, requests: 200})
	ids := map[string]bool{}
	var served, inView, outOfView int
	for _, e := range p.events {
		if err := e.Validate(); err != nil {
			t.Fatalf("generated an invalid event: %v", err)
		}
		switch e.Type {
		case "served":
			if ids[e.ImpressionID] {
				t.Fatalf("impression id %s served twice", e.ImpressionID)
			}
			ids[e.ImpressionID] = true
			served++
		case "in-view":
			inView++
		case "out-of-view":
			outOfView++
		}
	}
	if r := float64(inView) / float64(served); math.Abs(r-pInView) > 0.05 {
		t.Errorf("in-view share %.3f, want about %.2f", r, pInView)
	}
	if r := float64(outOfView) / float64(inView); math.Abs(r-pOutOfView) > 0.05 {
		t.Errorf("out-of-view share %.3f, want about %.2f", r, pOutOfView)
	}
	dups := 0
	for i, r := range p.reqs {
		if r.dup {
			dups++
			if i == 0 || !bytes.Equal(r.wire, p.reqs[i-1].wire) {
				t.Fatalf("request %d is marked a re-send but is not a verbatim copy of its predecessor", i)
			}
		}
	}
	if dups < 60 || dups > 140 {
		t.Errorf("%d re-sends of 200 requests at share 0.5", dups)
	}
	if got := len(p.eventsOf(len(p.reqs))); got != 200*64 {
		t.Errorf("eventsOf(all) = %d events, want %d (re-sends carry no new events)", got, 200*64)
	}
}

// stallServer answers POSTs the way the collector does; its first
// request is held for stall.
func stallServer(t *testing.T, stall time.Duration) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var seen atomic.Int64
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if seen.Add(1) == 1 {
			time.Sleep(stall)
		}
		w.WriteHeader(http.StatusAccepted)
		_, _ = w.Write([]byte(`{"accepted":1,"rejected":0}` + "\n"))
	})}
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(func() { _ = srv.Close() })
	return ln.Addr().String()
}

func TestOpenLoopTimesFromTheDueInstant(t *testing.T) {
	const stall = 100 * time.Millisecond
	addr := stallServer(t, stall)
	conns, err := dialAll(addr, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll(conns)
	reqs := make([]request, 12)
	for i := range reqs {
		reqs[i] = request{n: 1}
		reqs[i].wire, reqs[i].head = wireRequest("application/json", []byte(`{}`))
	}
	// 100 req/s on one connection: request 0 stalls 100 ms, so requests
	// 1..9 leave late although each is served at once.
	res := openLoop(addr, conns, reqs, 100, 50*time.Millisecond)
	if res.hardFail != 0 || res.accepted != len(reqs) {
		t.Fatalf("hardFail=%d accepted=%d: %v", res.hardFail, res.accepted, res.firstErr)
	}
	// Request 1 was due at 10 ms and could not leave before 100 ms.
	if res.latency[1] < 80*time.Millisecond {
		t.Errorf("request 1 latency %v: timed from its send, not from its due instant", res.latency[1])
	}
	if res.behind[1] < 80*time.Millisecond {
		t.Errorf("request 1 ran %v behind schedule, want about 90ms", res.behind[1])
	}
	// The connection, not the generator, was the cause.
	if res.overslept[1] > 20*time.Millisecond {
		t.Errorf("request 1 charged %v to the generator", res.overslept[1])
	}
	if res.slowAcks < 2 {
		t.Errorf("%d acks over the 50ms limit, want the stalled one and those it delayed", res.slowAcks)
	}
	// The backlog drained: the last request is on time again.
	if last := res.latency[len(reqs)-1]; last > 30*time.Millisecond {
		t.Errorf("last request latency %v: backlog did not drain", last)
	}
	if backlogGrew(res.behind, 10*time.Millisecond) {
		t.Error("a stall that drained was reported as a growing backlog")
	}
}

func TestBacklogGrew(t *testing.T) {
	growing := make([]time.Duration, 400)
	for i := range growing {
		growing[i] = time.Duration(i) * time.Millisecond
	}
	if !backlogGrew(growing, 5*time.Millisecond) {
		t.Error("linearly growing lateness not reported")
	}
	flat := make([]time.Duration, 400)
	for i := range flat {
		flat[i] = 300 * time.Microsecond
	}
	if backlogGrew(flat, 5*time.Millisecond) {
		t.Error("constant lateness reported as growing")
	}
}

func TestClosedLoopSendsInPoolOrder(t *testing.T) {
	addr := stallServer(t, 0)
	conns, err := dialAll(addr, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll(conns)
	reqs := make([]request, 50)
	for i := range reqs {
		reqs[i] = request{first: i, n: 1}
		reqs[i].wire, reqs[i].head = wireRequest("application/json", []byte(`{}`))
	}
	res := closedLoop(addr, conns, reqs, time.Minute, 0)
	if res.attempted != 50 || res.accepted != 50 || len(res.latency) != 50 || res.elapsed > 30*time.Second {
		t.Errorf("attempted=%d accepted=%d latencies=%d elapsed=%v, want 50/50/50 and an end when the pool is sent", res.attempted, res.accepted, len(res.latency), res.elapsed)
	}
}

func TestReadAck(t *testing.T) {
	cases := []struct {
		raw  string
		want ack
		ok   bool
	}{
		{"HTTP/1.1 202 Accepted\r\nContent-Type: application/json\r\nContent-Length: 30\r\n\r\n{\"accepted\":64,\"rejected\":0}\n\n", ack{202, 64, 0}, true},
		{"HTTP/1.1 202 Accepted\r\ncontent-length: 29\r\n\r\n{\"accepted\":3,\"rejected\":61}\n", ack{202, 3, 61}, false},
		{"HTTP/1.1 503 Service Unavailable\r\nRetry-After: 2\r\nContent-Length: 16\r\n\r\n{\"error\":\"shed\"}", ack{503, 0, 0}, false},
	}
	for _, c := range cases {
		cn := &conn{br: bufio.NewReader(strings.NewReader(c.raw))}
		got, err := cn.readAck()
		if err != nil {
			t.Fatalf("%q: %v", c.raw, err)
		}
		if got != c.want || got.ok() != c.ok {
			t.Errorf("%q: got %+v ok=%v, want %+v ok=%v", c.raw, got, got.ok(), c.want, c.ok)
		}
	}
	cn := &conn{br: bufio.NewReader(strings.NewReader("HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"))}
	if _, err := cn.readAck(); err == nil {
		t.Error("a response without Content-Length was accepted")
	}
}

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := summarize(xs, 0.99); got.TailQ != 0.99 || got.Beyond != 10 || got.Tail != 990 || got.P50 != 500 {
		t.Errorf("1000 samples: %+v, want p99=990 with exactly 10 beyond", got)
	}
	if got := summarize(xs[:999], 0.99); got.TailQ != 0.95 || got.Beyond < minBeyond {
		t.Errorf("999 samples leave 9 beyond p99: reported p%g with %d beyond, want p95", got.TailQ*100, got.Beyond)
	}
	if got := summarize(xs[:30], 0.95); got.TailQ != 0.5 {
		t.Errorf("30 samples support no tail percentile, reported p%g", got.TailQ*100)
	}
	if got := summarize(nil, 0.95); got.N != 0 || got.P50 != 0 {
		t.Errorf("empty sample: %+v", got)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4) == [3.5, 13.5, 31.0]
	xs := []float64{46, 1, 37, 2, 29, 4, 22, 7, 16, 11}
	q1, q3 := quartiles(xs)
	if q1 != 3.5 || q3 != 31.0 || median(xs) != 13.5 {
		t.Errorf("q1=%v median=%v q3=%v, want 3.5 13.5 31", q1, median(xs), q3)
	}
	if got, want := spread(xs), (31.0-3.5)/13.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread %v, want %v", got, want)
	}
}

func TestSelfTimeIsDurationMinusChildCoverage(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "handler", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "store", Start: 10, End: 40},
		{ID: 2, Parent: 1, Name: "observe", Start: 15, End: 25},
		{ID: 3, Parent: 0, Name: "wal", Start: 30, End: 70},   // overlaps store by 10
		{ID: 4, Parent: 0, Name: "late", Start: 90, End: 120}, // runs past its parent
		{ID: 5, Parent: -1, Name: "other", Start: 200, End: 230},
	}
	want := []int64{100 - (30 + 30 + 10), 30 - 10, 10, 40, 30, 30}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %s: self %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestRecorderNestsAndSwitchesOff(t *testing.T) {
	rec := newRecorder()
	rec.request = 3
	a := rec.begin("a")
	b := rec.begin("b")
	rec.end(b)
	rec.end(a)
	if len(rec.spans) != 2 || rec.spans[1].Parent != a || rec.spans[0].Parent != -1 || rec.spans[1].Request != 3 {
		t.Fatalf("spans %+v", rec.spans)
	}
	if rec.spans[0].End < rec.spans[1].End || rec.spans[1].Start < rec.spans[0].Start {
		t.Errorf("child not inside parent: %+v", rec.spans)
	}
	rec.off = true
	rec.end(rec.begin("c"))
	if len(rec.spans) != 2 {
		t.Error("a switched-off recorder recorded a span")
	}
}

func TestParseProcStat(t *testing.T) {
	// The command name holds spaces and a parenthesis.
	line := "4242 (qtag server) x) S 1 4242 4242 0 -1 4194560 1200 0 3 0 731 295 0 0 20 0 9 0 8112 1300000000 9000 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0"
	u, s, err := parseStat([]byte(line))
	if err != nil || u != 731 || s != 295 {
		t.Errorf("utime=%d stime=%d err=%v, want 731 295", u, s, err)
	}
	if p := (procSample{userTicks: 731, sysTicks: 295}); p.cpu() != 10260*time.Millisecond {
		t.Errorf("cpu %v, want 10.26s", p.cpu())
	}
	if _, _, err := parseStat([]byte("12 (x) S 1 2")); err == nil {
		t.Error("truncated stat line accepted")
	}
}

func TestParseProcStatus(t *testing.T) {
	st := parseStatus([]byte("Name:\tqtag-server\nVmHWM:\t   54321 kB\nVmRSS:\t   50000 kB\nvoluntary_ctxt_switches:\t812\nnonvoluntary_ctxt_switches:\t9\n"))
	if st["VmHWM"] != 54321 || st["VmRSS"] != 50000 || st["voluntary_ctxt_switches"] != 812 || st["nonvoluntary_ctxt_switches"] != 9 {
		t.Errorf("parsed %v", st)
	}
	if _, ok := st["Name"]; ok {
		t.Error("non-numeric line kept")
	}
}

func TestParseMountinfo(t *testing.T) {
	info := "22 1 254:0 / / rw,relatime - ext4 /dev/vda rw\n" +
		"30 22 0:25 / /root/repo/.bench_build rw - tmpfs tmpfs rw\n" +
		"31 22 0:26 / /root/rep rw - xfs /dev/vdb rw\n"
	if got := parseMountinfo([]byte(info), "/root/repo/.bench_build/run"); got != "tmpfs" {
		t.Errorf("fs of a path under the tmpfs mount: %s", got)
	}
	if got := parseMountinfo([]byte(info), "/root/repo/bench"); got != "ext4" {
		t.Errorf("fs of a path under / only: %s (a sibling mount's prefix must not match)", got)
	}
}

func TestMetricsDelta(t *testing.T) {
	before, err := parseMetrics(strings.NewReader(`# HELP qtag_ingest_accepted_total Events accepted.
# TYPE qtag_ingest_accepted_total counter
qtag_ingest_accepted_total 100
qtag_admission_shed_total{class="live"} 1
qtag_admission_shed_total{class="drain"} 2
qtag_queue_dropped_total 0
qtag_queue_dropped_total{reason="overflow"} 0
`))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseMetrics(strings.NewReader(`qtag_ingest_accepted_total 164
qtag_admission_shed_total{class="live"} 4
qtag_admission_shed_total{class="drain"} 2
qtag_queue_dropped_total 5
qtag_queue_dropped_total{reason="overflow"} 5
qtag_ingest_latency_seconds_bucket{le="0.001"} 12 # {trace_id="abc"} 0.0007
qtag_wal_syncs_total 1.5e+01
`))
	if err != nil {
		t.Fatal(err)
	}
	d := after.delta(before)
	if d["qtag_ingest_accepted_total"] != 64 || d["qtag_wal_syncs_total"] != 15 {
		t.Errorf("delta %v", d)
	}
	if got := d.sumPrefix("qtag_admission_shed_total"); got != 3 {
		t.Errorf("labelled family total %v, want 3", got)
	}
	// The unlabelled total and its by-reason split must not be added up.
	if d["qtag_queue_dropped_total"] != 5 {
		t.Errorf("dropped %v, want 5", d["qtag_queue_dropped_total"])
	}
	if d[`qtag_ingest_latency_seconds_bucket{le="0.001"}`] != 12 {
		t.Error("exemplar suffix not stripped")
	}
	if sum := before.add(after); sum["qtag_ingest_accepted_total"] != 264 {
		t.Errorf("add: %v", sum["qtag_ingest_accepted_total"])
	}
	if _, err := parseMetrics(strings.NewReader("qtag_broken{a=\"b c\"}\n")); err == nil {
		t.Error("a series without a value was accepted")
	}
}

func TestOracleComparesExactly(t *testing.T) {
	p := generate(genSpec{seed: 3, label: "open", campaigns: 20, batch: 16, binary: true, requests: 50})
	want, err := expectedReport(p.events)
	if err != nil {
		t.Fatal(err)
	}
	// What a server that ingested every event twice would serve.
	twice := aggregate.Recompute(append(append(p.events[:0:0], p.events...), p.events...), aggregate.Options{}).Snapshot()
	b, _ := json.Marshal(reportBody{Campaigns: twice})
	var served reportBody
	if err := json.Unmarshal(b, &served); err != nil {
		t.Fatal(err)
	}
	if err := checkReport(served, want); err != nil {
		t.Errorf("duplicates must collapse: %v", err)
	}
	// One lost event shows.
	lost, err := expectedReport(p.events[1:])
	if err != nil {
		t.Fatal(err)
	}
	if err := checkReport(reportBody{Campaigns: lost}, want); err == nil {
		t.Error("a report missing one event passed the oracle")
	}
	if err := checkReport(reportBody{Campaigns: want, Degraded: []string{"b"}}, want); err == nil {
		t.Error("a partial federated report passed the oracle")
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "ack_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "ingest_eps", Unit: "events/s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102}
	cases := []struct {
		def    metricDef
		parent []float64
		change []float64
		want   string
	}{
		{lower, steady, []float64{100, 100, 101}, "same"},
		{lower, steady, []float64{115, 116, 114}, "worse"},
		{lower, steady, []float64{90, 91, 89}, "better"},
		{lower, steady, []float64{99, 99.5, 99}, "same"}, // better, but inside the parent's spread
		{higher, steady, []float64{85, 86, 84}, "worse"},
		{higher, steady, []float64{120, 121, 119}, "better"},
		{lower, []float64{80, 100, 120, 90, 130}, []float64{200, 200, 200}, "unresolved"},
	}
	for _, c := range cases {
		if got, _ := verdict(c.def, c.parent, c.change); got != c.want {
			t.Errorf("%s parent %v change %v: %s, want %s", c.def.Name, c.parent, c.change, got, c.want)
		}
	}
}

func TestCompareFilesAppliesEachBound(t *testing.T) {
	mk := func(eps, p50 float64) resultFile {
		f := resultFile{Seed: 1, Seconds: 20}
		for rep := 0; rep < 3; rep++ {
			f.Runs = append(f.Runs, runResult{Workload: "tag_single_json", Repeat: rep, Metrics: map[string]metric{
				"ingest_eps": {eps + float64(rep), "events/s"},
				"ack_p50_ms": {p50, "ms"},
			}})
		}
		return f
	}
	dir := t.TempDir()
	write := func(name string, f resultFile) string {
		path := dir + "/" + name
		if err := writeResults(path, f); err != nil {
			t.Fatal(err)
		}
		return path
	}
	parent := write("parent.json", mk(4000, 1.0))
	var out bytes.Buffer
	if err := compareFiles(&out, parent, write("same.json", mk(4010, 1.02))); err != nil {
		t.Errorf("a change inside every bound was refused: %v\n%s", err, out.String())
	}
	out.Reset()
	err := compareFiles(&out, parent, write("worse.json", mk(4000, 1.3)))
	if err == nil || !strings.Contains(out.String(), "worse by 30.0% of 1.0000 ms") {
		t.Errorf("a 30%% slower ack_p50_ms passed: err=%v\n%s", err, out.String())
	}
}

// benchmarkJSON is the contract file at the repository root.
type benchmarkJSON struct {
	Command    []string                     `json:"command"`
	Paths      []string                     `json:"paths"`
	RunSeconds int                          `json:"run_seconds"`
	Workloads  []struct{ Name, Why string } `json:"workloads"`
	EndToEnd   []metricDef                  `json:"end_to_end"`
	PerLayer   []metricDef                  `json:"per_layer"`
}

func TestBenchmarkJSONMatchesTheCatalogue(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	if f.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, code default %d", f.RunSeconds, defaultSeconds)
	}
	var gated []workload
	for _, w := range workloads {
		if w.gated {
			gated = append(gated, w)
		}
	}
	if len(f.Workloads) != len(gated) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d gated in code", len(f.Workloads), len(gated))
	}
	for i, w := range gated {
		if f.Workloads[i].Name != w.name || f.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, code %s: %s", i, f.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why has %d characters, limit 200", w.name, len(w.why))
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in code", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s metric %d: BENCHMARK.json %+v, code %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", f.EndToEnd, endToEnd)
	same("per_layer", f.PerLayer, perLayer)
	if _, ok := defOf(endToEnd, "setup_s"); !ok {
		t.Error("setup_s missing from the end-to-end metrics")
	}
}

// TestSmoke runs every workload for two measured seconds, untraced and
// traced, against a spawned qtag-server: correctness and schema only.
func TestSmoke(t *testing.T) {
	if os.Getenv("QTAG_BENCH_SMOKE") != "1" {
		t.Skip("set QTAG_BENCH_SMOKE=1 to build and spawn qtag-server")
	}
	if err := chdirRoot(); err != nil {
		t.Fatal(err)
	}
	bin, _, err := buildServer()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(context.Background(), w, bin, 0, 1, 2, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d: %s", w.name, traced, res.Correct, res.Failed, res.Attempted, res.Detail.Error)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s traced=%v: metric %s = %+v (present %v)", w.name, traced, d.Name, m, ok)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v, must be positive", w.name, d.Name, m.Value)
				}
			}
		}
	}
}

func TestClosedLoopStopsAtItsLimit(t *testing.T) {
	var served atomic.Int64
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		served.Add(1)
		time.Sleep(20 * time.Millisecond)
		w.WriteHeader(http.StatusAccepted)
		_, _ = w.Write([]byte(`{"accepted":1,"rejected":0}` + "\n"))
	})}
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(func() { _ = srv.Close() })
	conns, err := dialAll(ln.Addr().String(), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll(conns)
	reqs := make([]request, 1000)
	for i := range reqs {
		reqs[i] = request{first: i, n: 1}
		reqs[i].wire, reqs[i].head = wireRequest("application/json", []byte(`{}`))
	}
	res := closedLoop(ln.Addr().String(), conns, reqs, 100*time.Millisecond, 0)
	if res.attempted >= len(reqs) || res.attempted == 0 {
		t.Fatalf("attempted %d of %d: the limit did not cut the phase short", res.attempted, len(reqs))
	}
	// Every request drawn was sent and answered: the oracle counts reqs[:attempted].
	if int(served.Load()) != res.attempted || res.accepted != res.attempted {
		t.Errorf("attempted=%d served=%d accepted=%d", res.attempted, served.Load(), res.accepted)
	}
}
