package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"qtag/internal/beacon"
	"qtag/internal/wal"
)

const (
	setupRepeats   = 5   // set-ups per run; setup_s is their median
	tracedRestarts = 3   // kill -9 → restart cycles of a traced run; recover.eps is their median
	quiescentReads = 100 // GET /report reads after the measured phases of a workload without a reader
	preloadBatch   = 512 // events per WAL append during preload
)

// inputs is everything the generator prepared for one run.
type inputs struct {
	preload            []beacon.Event // written to the WAL before the server boots
	warm, closed, open pool
}

// rig is one set-up: the generated inputs and the booted servers.
type rig struct {
	w       workload
	dir     string
	in      inputs
	servers []*server
	bootMS  float64 // slowest process start → /readyz 200
}

func (r *rig) entry() *server { return r.servers[0] }

// reportURL is where the oracle reads: the federated report on a
// cluster, the plain one otherwise.
func (r *rig) reportURL() string {
	if r.w.nodes > 1 {
		return r.entry().url("/report?federated=1")
	}
	return r.entry().url("/report")
}

func (r *rig) killAll() {
	for _, s := range r.servers {
		s.kill()
	}
}

// teardown stops the servers and removes the run directory.
func (r *rig) teardown() {
	r.killAll()
	_ = os.RemoveAll(r.dir) // scratch inside .bench_build; a leftover is harmless
}

// startAll boots every node concurrently and waits until each answers
// /readyz 200; it returns the time from the first process start to the
// last ready answer.
func (r *rig) startAll(ctx context.Context) (time.Duration, error) {
	start := time.Now()
	for _, s := range r.servers {
		if err := s.start(); err != nil {
			return 0, err
		}
	}
	for _, s := range r.servers {
		if err := s.waitReady(ctx); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

// generateInputs builds the run's pools from the seed.
func generateInputs(w workload, seed uint64, ph phases) inputs {
	spec := func(label string, requests int) genSpec {
		return genSpec{seed: seed, label: label, campaigns: w.campaigns, batch: w.batch,
			binary: w.binary, requests: requests}
	}
	var in inputs
	if w.preload > 0 {
		pre := spec("pre", w.preload)
		pre.batch = 1
		in.preload = generateEvents(pre)
	}
	warmRPS := w.closedRPS
	if w.mixed {
		warmRPS = w.rateRPS
	}
	in.warm = generate(spec("warm", int(warmRPS*ph.warm.Seconds())))
	if ph.closed > 0 {
		in.closed = generate(spec("closed", int(w.closedRPS*ph.closed.Seconds())))
	}
	open := spec("open", int(w.rateRPS*ph.open.Seconds()))
	open.dupShare = w.dupShare
	in.open = generate(open)
	return in
}

// setUp performs one complete set-up: generate and serialise the
// inputs, write the preload into the WAL directory, boot the servers
// and wait for readiness (on a cluster, for each node to see its peer
// alive).
func setUp(ctx context.Context, w workload, bin string, seed uint64, ph phases, tag string) (*rig, error) {
	dir, err := filepath.Abs(filepath.Join(buildDir, "run", fmt.Sprintf("%s-%d-%s", w.name, os.Getpid(), tag)))
	if err != nil {
		return nil, err
	}
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	r := &rig{w: w, dir: dir}
	r.in = generateInputs(w, seed, ph)

	addrs := make([]string, w.nodes)
	for i := range addrs {
		port, err := freePort()
		if err != nil {
			return nil, err
		}
		addrs[i] = fmt.Sprintf("127.0.0.1:%d", port)
	}
	for i := range addrs {
		r.servers = append(r.servers, &server{
			bin:  bin,
			args: w.serverArgs(i, addrs, dir),
			addr: addrs[i],
			log:  filepath.Join(dir, fmt.Sprintf("server-%d.log", i)),
		})
	}
	if err := r.boot(ctx); err != nil {
		r.teardown()
		return nil, err
	}
	return r, nil
}

// boot writes the preload into the entry node's WAL directory, starts
// the servers and waits until they are ready and see each other.
func (r *rig) boot(ctx context.Context) error {
	if err := preloadWAL(walDir(r.dir, 0), r.in.preload); err != nil {
		return err
	}
	took, err := r.startAll(ctx)
	if err != nil {
		return err
	}
	r.bootMS = ms(took)
	return r.waitPeersAlive(ctx)
}

// preloadWAL writes events into a fresh WAL directory with the
// production journal, so the server boots into a state that large by
// its own recovery path. Pushing the same events over HTTP at full speed
// would overflow the default configuration's 4096-event async queue,
// and pacing them would take longer than the measured phases.
func preloadWAL(dir string, events []beacon.Event) error {
	if len(events) == 0 {
		return nil
	}
	wj, _, err := beacon.OpenDurable(wal.Options{Dir: dir}, beacon.NewStore())
	if err != nil {
		return fmt.Errorf("preload: open wal: %w", err)
	}
	for first := 0; first < len(events); first += preloadBatch {
		if err := wj.SubmitBatch(events[first:min(first+preloadBatch, len(events))]); err != nil {
			_ = wj.Close() // the append error is the one to report
			return fmt.Errorf("preload: append: %w", err)
		}
	}
	return wj.Close()
}

// waitPeersAlive blocks until every cluster node's failure detector
// reports its peer alive, so the first forwarded beacon is forwarded
// and not hinted.
func (r *rig) waitPeersAlive(ctx context.Context) error {
	if r.w.nodes < 2 {
		return nil
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		alive := 0
		for _, s := range r.servers {
			m, err := scrape(s)
			if err != nil {
				return err
			}
			peers, down := 0, 0.0
			for k, v := range m {
				if strings.HasPrefix(k, "qtag_cluster_peer_state{") {
					peers++
					down += v
				}
			}
			if peers > 0 && down == 0 {
				alive++
			}
		}
		if alive == len(r.servers) {
			return nil
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			return fmt.Errorf("cluster peers not alive after 15s")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// quiesce waits until nothing accepted is still on its way to the WAL
// or to a peer: the async durability queue is empty (its depth counts
// the batch being written), the group committer is idle and no hint is
// pending. After it returns, kill -9 may lose nothing that was acked.
func (r *rig) quiesce(ctx context.Context) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		busy := 0.0
		for _, s := range r.servers {
			m, err := scrape(s)
			if err != nil {
				return err
			}
			busy += m["qtag_queue_depth"] + m["qtag_cluster_hint_backlog"] + m["qtag_wal_group_commit_queue"]
		}
		if busy == 0 {
			return nil
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			return fmt.Errorf("servers did not quiesce within 30s (%.0f events in flight)", busy)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// snapshot is one instant of everything read from outside the servers.
type snapshot struct {
	metrics []metricSet // per node
	procs   []procSample
	selfCPU time.Duration
}

func (r *rig) snapshot() (snapshot, error) {
	s := snapshot{selfCPU: selfCPU()}
	for _, srv := range r.servers {
		m, err := scrape(srv)
		if err != nil {
			return s, err
		}
		p, err := sampleProc(srv.pid())
		if err != nil {
			return s, err
		}
		s.metrics = append(s.metrics, m)
		s.procs = append(s.procs, p)
	}
	return s, nil
}

// total sums the per-node scrapes.
func (s snapshot) total() metricSet {
	out := metricSet{}
	for _, m := range s.metrics {
		out = out.add(m)
	}
	return out
}

// measured is what the measured phases of one run produced.
type measured struct {
	closed, open phaseResult
	closedPool   int             // requests the closed-loop phase had to send
	reads        []time.Duration // GET /report latencies
	before       snapshot
	after        snapshot
	queueMax     float64 // sampled in traced runs only
	sent         []beacon.Event
	attempted    int
	failed       int
}

// runPhases drives warm-up and the measured phases against a rig.
// sample enables the 100 ms /healthz sampler that a traced run uses for
// the one gauge that only exists as an instant (the journal backlog).
func runPhases(ctx context.Context, r *rig, ph phases, sample bool) (*measured, error) {
	w, addr := r.w, r.entry().addr
	conns, err := dialAll(addr, numConns())
	if err != nil {
		return nil, err
	}
	defer closeAll(conns)
	m := &measured{closedPool: len(r.in.closed.reqs)}
	count := func(res phaseResult) {
		m.attempted += res.attempted
		m.failed += res.hardFail + res.slowAcks
	}

	// Warm-up: connection pools, sync.Pools, the admission limiter's
	// minimum RTT. Sent and checked by the oracle, never timed.
	// The mixed workload warms up at its fixed rate: a closed loop would
	// outrun the async queue's drain and have events rejected.
	var warm phaseResult
	if w.mixed {
		warm = openLoop(addr, conns[:1], r.in.warm.reqs, w.rateRPS, 0)
	} else {
		warm = closedLoop(addr, conns, r.in.warm.reqs, closedLimit*ph.warm, 0)
	}
	count(warm)
	m.sent = append(m.sent, r.in.preload...)
	m.sent = append(m.sent, r.in.warm.eventsOf(warm.attempted)...)
	if warm.hardFail > 0 {
		return m, fmt.Errorf("warm-up: %d of %d requests failed: %v", warm.hardFail, warm.attempted, warm.firstErr)
	}

	if m.before, err = r.snapshot(); err != nil {
		return m, err
	}
	// The generator allocates nothing per request, but its heap holds
	// every generated request: a collection in the middle of a phase
	// would take a core from the server for no reason of the server's.
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	stopSampler := func() {}
	if sample && !w.syncWAL { // only the async path has a queue
		stopSampler = r.sampleQueue(&m.queueMax)
	}

	if w.mixed {
		m.open, m.reads, err = mixedPhase(ctx, r, conns[0], w)
	} else {
		// Latency first, on a young heap: after the closed loop's events
		// the server's collections run for seconds, and an open loop at
		// half of capacity then measures whether it met one.
		m.open = openLoop(addr, conns, r.in.open.reqs, w.rateRPS, ackLimit)
		m.closed = closedLoop(addr, conns, r.in.closed.reqs, closedLimit*ph.closed, ackLimit)
	}
	stopSampler()
	if err != nil {
		return m, err
	}
	count(m.closed)
	count(m.open)
	m.sent = append(m.sent, r.in.open.eventsOf(m.open.attempted)...)
	m.sent = append(m.sent, r.in.closed.eventsOf(m.closed.attempted)...)
	if m.after, err = r.snapshot(); err != nil {
		return m, err
	}
	if err := r.quiesce(ctx); err != nil {
		return m, err
	}
	if !w.mixed {
		for i := 0; i < quiescentReads; i++ {
			took, err := readReport(r.reportURL())
			if err != nil {
				return m, err
			}
			m.reads = append(m.reads, took)
		}
	}
	return m, nil
}

// readInterval is the dashboard poll period of the mixed workload. A
// closed-loop reader would keep the server rendering reports without a
// pause, and a saturated server's latencies swing with every scheduling
// accident; a fixed period keeps the read load, like the write load,
// the same on every run and every commit.
const readInterval = 200 * time.Millisecond

// mixedPhase runs the fixed-rate writer on one connection while a
// reader polls GET /report on a fixed schedule until the writer is
// done. Like the writer's, a read's latency counts from its due instant.
func mixedPhase(ctx context.Context, r *rig, c *conn, w workload) (phaseResult, []time.Duration, error) {
	var (
		wg      sync.WaitGroup
		reads   []time.Duration
		readErr error
	)
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		start := time.Now()
		for k := 0; ; k++ {
			due := start.Add(time.Duration(k) * readInterval)
			select {
			case <-done:
				return
			case <-time.After(time.Until(due)):
			}
			if _, err := readReport(r.entry().url("/report")); err != nil {
				readErr = err
				return
			}
			reads = append(reads, time.Since(due))
		}
	}()
	res := openLoop(r.entry().addr, []*conn{c}, r.in.open.reqs, w.rateRPS, ackLimit)
	close(done)
	wg.Wait()
	if readErr != nil {
		return res, reads, fmt.Errorf("report reader: %w", readErr)
	}
	return res, reads, ctx.Err()
}

// sampleQueue polls the entry node's /healthz every 100 ms and keeps the
// highest journal_pending seen: events accepted but not yet durable,
// which on the async path is the queue's depth plus the records the WAL
// has not fsynced. /healthz, not /metrics: a /metrics scrape walks every
// stored event for its campaign gauge and stalls ingest while it does.
// The returned func stops the sampler and waits for it.
func (r *rig) sampleQueue(max *float64) func() {
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				if v, err := journalPending(r.entry()); err == nil && v > *max {
					*max = v
				}
			}
		}
	}()
	return func() { close(stop); wg.Wait() }
}

// journalPending reads journal_pending from GET /healthz.
func journalPending(s *server) (float64, error) {
	resp, err := scrapeClient.Get(s.url("/healthz"))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var health struct {
		JournalPending float64 `json:"journal_pending"`
	}
	return health.JournalPending, json.NewDecoder(resp.Body).Decode(&health)
}

// recovery is the crash check: kill -9 every node, restart on the
// unchanged directories, time process start → /readyz 200, and count
// what the WAL replay restored. One restart checks correctness; a traced
// run makes tracedRestarts of them for the median behind recover.eps.
type recovery struct {
	seconds  []float64
	restored float64
}

func (r *rig) recover(ctx context.Context, restarts int) (recovery, error) {
	var rec recovery
	for i := 0; i < restarts; i++ {
		r.killAll()
		took, err := r.startAll(ctx)
		if err != nil {
			return rec, fmt.Errorf("restart %d: %w", i+1, err)
		}
		rec.seconds = append(rec.seconds, took.Seconds())
	}
	for _, s := range r.servers {
		m, err := scrape(s)
		if err != nil {
			return rec, err
		}
		rec.restored += m["qtag_wal_recovery_records"]
	}
	return rec, r.waitPeersAlive(ctx)
}
