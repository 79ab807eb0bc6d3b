package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// metric is one published number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is one run of one workload: the driver-facing summary plus
// the detail a reader needs to judge it.
type runResult struct {
	Workload  string            `json:"workload"`
	Trace     bool              `json:"trace"`
	Repeat    int               `json:"repeat"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Detail    runDetail         `json:"detail"`
}

// runDetail is the provenance and the sample counts behind a result.
type runDetail struct {
	Argv         [][]string         `json:"server_argv"`
	Phases       map[string]float64 `json:"phase_seconds"`
	RateRPS      float64            `json:"open_loop_rate_rps"`
	Connections  int                `json:"connections"`
	Ack          timing             `json:"ack_ms"`
	ClosedAck    timing             `json:"closed_loop_ack_ms"`
	Report       timing             `json:"report_ms"`
	Lateness     timing             `json:"lateness_ms"`
	SetupSeconds []float64          `json:"setup_seconds"`
	Recover      []float64          `json:"recover_seconds"`
	Restored     float64            `json:"recovered_events"`
	SentEvents   int                `json:"sent_events"`
	// ClosedSeconds is how long the closed-loop phase took to send its
	// fixed number of requests.
	ClosedSeconds float64  `json:"closed_loop_seconds_run"`
	Flags         []string `json:"flags,omitempty"` // validity warnings
	Error         string   `json:"error,omitempty"`
}

// runWorkload performs one complete run: set-ups, warm-up, measured
// phases, oracle check, crash recovery, oracle check again, and — when
// trace is set — the in-process traced replay.
func runWorkload(ctx context.Context, w workload, bin string, buildS float64, seed uint64, seconds int, trace bool) (runResult, error) {
	res := runResult{Workload: w.name, Trace: trace, Metrics: map[string]metric{}}
	ph := w.phases(seconds)
	nconn := numConns()

	// Set up several times; the last rig is the one the run uses.
	var r *rig
	for i := 0; i < setupRepeats; i++ {
		if r != nil {
			r.teardown()
		}
		t0 := time.Now()
		var err error
		if r, err = setUp(ctx, w, bin, seed, ph, fmt.Sprintf("s%d", i)); err != nil {
			return res, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		res.Detail.SetupSeconds = append(res.Detail.SetupSeconds, time.Since(t0).Seconds())
	}
	defer r.teardown()
	for _, s := range r.servers {
		res.Detail.Argv = append(res.Detail.Argv, append([]string{filepath.Base(s.bin)}, s.args...))
	}
	res.Detail.Phases = map[string]float64{"warm": ph.warm.Seconds(), "closed": ph.closed.Seconds(), "open": ph.open.Seconds()}
	res.Detail.RateRPS, res.Detail.Connections = w.rateRPS, nconn
	if w.mixed {
		res.Detail.Connections = 1 // the writer's; the other connection is the reader's
	}

	m, err := runPhases(ctx, r, ph, trace)
	if m != nil {
		res.Attempted, res.Failed = m.attempted, m.failed
	}
	if err != nil {
		return res, err
	}
	res.Detail.SentEvents = len(m.sent)

	// Oracle: after the measured phases, and again after kill -9.
	want, err := expectedReport(m.sent)
	if err != nil {
		return res, err
	}
	check := func(when string) error {
		got, err := fetchReport(r.reportURL())
		if err != nil {
			return fmt.Errorf("%s: %w", when, err)
		}
		if err := checkReport(got, want); err != nil {
			return fmt.Errorf("%s: %w", when, err)
		}
		return nil
	}
	var problems []string
	if err := check("report after measured phases"); err != nil {
		problems = append(problems, err.Error())
	}
	restarts := 1
	if trace {
		restarts = tracedRestarts
	}
	rec, err := r.recover(ctx, restarts)
	if err != nil {
		return res, err
	}
	if err := check("report after kill -9 and restart"); err != nil {
		problems = append(problems, err.Error())
	}
	res.Detail.Recover, res.Detail.Restored = rec.seconds, rec.restored

	d := m.after.total().delta(m.before.total())
	if dropped := d["qtag_queue_dropped_total"]; dropped > 0 {
		problems = append(problems, fmt.Sprintf("async queue dropped %.0f events", dropped))
	}
	if hinted := d["qtag_cluster_hints_written_total"] + d["qtag_cluster_forward_errors_total"]; hinted > 0 {
		problems = append(problems, fmt.Sprintf("%.0f forwards failed or were hinted", hinted))
	}
	res.Correct = len(problems) == 0
	res.Detail.Error = strings.Join(problems, "; ")

	e2e := endToEndValues(w, m, &res.Detail)
	if !trace {
		for _, def := range endToEnd {
			res.Metrics[def.Name] = metric{e2e[def.Name], def.Unit}
		}
		return res, nil
	}

	peerURL := ""
	if w.nodes > 1 {
		peerURL = r.servers[1].url("")
	}
	lr, err := tracedRun(w, seed, r.dir, peerURL, r.in.preload)
	if err != nil {
		return res, err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return res, err
	}
	if err := writeSpans(filepath.Join(outDir, "trace_"+w.name+".json"), w.name, seed, lr.spans); err != nil {
		return res, err
	}
	layers := layerValues(m, d, lr.values, &res.Detail)
	layers["recover.seconds_p50"] = median(rec.seconds)
	layers["recover.eps"] = rec.restored / median(rec.seconds)
	layers["setup.build_s"] = buildS
	layers["setup.boot_ms"] = r.bootMS
	layers["ledger.e2e_p50_us"] = e2e["ack_p50_ms"] * 1000
	layers["ledger.closed_p50_us"] = res.Detail.ClosedAck.P50 * 1000
	if e := layers["ledger.e2e_p50_us"]; e > 0 {
		layers["ledger.residual_ratio"] = (e - layers["ledger.sum_layers_us"]) / e
	}
	for _, def := range perLayer {
		res.Metrics[def.Name] = metric{layers[def.Name], def.Unit}
	}
	return res, nil
}

// endToEndValues derives the end-to-end metrics of one run.
func endToEndValues(w workload, m *measured, det *runDetail) map[string]float64 {
	v := map[string]float64{}
	// Throughput: the closed loop's fixed work over the time it took; on
	// the mixed workload the rate the fixed-rate writer delivered.
	tput := m.closed
	if w.mixed {
		tput = m.open
	}
	v["ingest_eps"] = float64(tput.accepted) / tput.elapsed.Seconds()
	det.ClosedSeconds = m.closed.elapsed.Seconds()
	ack := summarize(durationsMS(m.open.latency), 0.95)
	det.Ack = ack
	det.ClosedAck = summarize(durationsMS(m.closed.latency), 0.95)
	v["ack_p50_ms"] = ack.P50
	det.Report = summarize(durationsMS(m.reads), 0.95)

	accepted := float64(m.closed.accepted + m.open.accepted)
	var cpu time.Duration
	var hwmKB int64
	for i := range m.after.procs {
		cpu += m.after.procs[i].cpu() - m.before.procs[i].cpu()
		hwmKB += m.after.procs[i].hwmKB
	}
	if accepted > 0 {
		v["server_cpu_ms_per_kevent"] = ms(cpu) / (accepted / 1000)
	}
	v["server_rss_peak_mb"] = float64(hwmKB) / 1024
	v["setup_s"] = median(det.SetupSeconds)

	// Validity of the generator itself.
	late := summarize(durationsMS(m.open.overslept), 0.99)
	det.Lateness = late
	gen := m.after.selfCPU - m.before.selfCPU
	if share := float64(gen) / float64(gen+cpu); gen+cpu > 0 && share > 0.5 {
		det.Flags = append(det.Flags, fmt.Sprintf("generator used %.0f%% of the CPU: not trusted", share*100))
	}
	if want := m.closedPool; m.closed.attempted < want {
		det.Flags = append(det.Flags, fmt.Sprintf("closed loop sent %d of its %d requests in %d times its nominal length: rate and memory are not those of the fixed work", m.closed.attempted, want, closedLimit))
	}
	if backlogGrew(m.open.behind, time.Duration(float64(time.Second)/w.rateRPS)) {
		det.Flags = append(det.Flags, "open loop fell progressively behind its schedule: it measured a growing queue, not trusted")
	}
	return v
}

// layerValues merges the /metrics deltas, the /proc deltas and the
// generator's own figures with what the traced replay measured.
func layerValues(m *measured, d metricSet, traced map[string]float64, det *runDetail) map[string]float64 {
	v := map[string]float64{}
	for k, x := range traced {
		v[k] = x
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	entry := m.after.metrics[0].delta(m.before.metrics[0])
	after := m.after.total()
	v["server.accepted_events"] = d["qtag_ingest_accepted_total"]
	v["server.rejected_events"] = d["qtag_ingest_rejected_total"]
	shed, admitted := d.sumPrefix("qtag_admission_shed_total"), d.sumPrefix("qtag_admission_admitted_total")
	v["admission.shed_ratio"] = ratio(shed, shed+admitted)
	v["admission.limit_final"] = m.after.metrics[0]["qtag_admission_limit"]
	v["wal.fsyncs_per_kevent"] = ratio(d["qtag_wal_syncs_total"], d["qtag_wal_appended_total"]/1000)
	v["wal.group_commit_batch_mean"] = ratio(d["qtag_wal_group_commit_batch_size_sum"], d["qtag_wal_group_commit_batch_size_count"])
	v["queue.dropped_events"] = d["qtag_queue_dropped_total"]
	v["queue.depth_max"] = m.queueMax
	v["store.dedup_hit_ratio"] = ratio(d["qtag_detect_dup_events_total"], d["qtag_ingest_accepted_total"])
	v["aggregate.open_impressions"] = after["qtag_aggregate_open_impressions"]
	v["cluster.forwarded_ratio"] = ratio(entry["qtag_cluster_forwarded_total"], entry["qtag_ingest_accepted_total"])
	v["cluster.hinted_events"] = d["qtag_cluster_hints_written_total"]
	v["cluster.forward_errors"] = d["qtag_cluster_forward_errors_total"]
	v["report.read_p50_ms"] = det.Report.P50
	v["report.read_tail_ms"] = det.Report.Tail

	accepted := float64(m.closed.accepted+m.open.accepted) / 1000
	var user, sys, ctxsw int64
	var cpu time.Duration
	for i := range m.after.procs {
		a, b := m.after.procs[i], m.before.procs[i]
		user += a.userTicks - b.userTicks
		sys += a.sysTicks - b.sysTicks
		ctxsw += a.ctxSwitches - b.ctxSwitches
		cpu += a.cpu() - b.cpu()
	}
	v["proc.cpu_user_ms_per_kevent"] = ratio(float64(user)*1000/clockTick, accepted)
	v["proc.cpu_sys_ms_per_kevent"] = ratio(float64(sys)*1000/clockTick, accepted)
	v["proc.ctx_switches_per_kevent"] = ratio(float64(ctxsw), accepted)

	gen := m.after.selfCPU - m.before.selfCPU
	v["gen.cpu_share"] = ratio(float64(gen), float64(gen+cpu))
	v["gen.lateness_ms_p50"] = det.Lateness.P50
	v["gen.lateness_ms_p99"] = det.Lateness.Tail
	v["gen.ack_p95_ms"] = det.Ack.Tail
	v["gen.ack_tail_ms"] = summarize(durationsMS(m.open.latency), 0.999).Tail
	v["gen.failed_ratio"] = ratio(float64(m.failed), float64(m.attempted))
	return v
}
