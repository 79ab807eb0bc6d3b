package main

import (
	"fmt"
	"time"
)

// workload is one named traffic mix. Everything the server sees is a
// function of the workload and the seed; nothing here is read by the
// server except through the flags in argv and the generated requests.
type workload struct {
	name string
	why  string
	// gated workloads are the ones BENCHMARK.json lists, which the driver
	// runs and holds to the bounds. cluster_forward is not: three
	// processes on the sandbox's two cores spread 15–19 % over ten seeds on
	// throughput, latency and cpu alike, which no admissible bound
	// survives. It runs in the reader form and in the smoke test.
	gated bool

	nodes     int  // qtag-server processes (2: a ring of two, traffic enters at node a)
	syncWAL   bool // the WAL write is on the ack path; false: the default async WAL queue
	campaigns int
	batch     int  // events per POST
	binary    bool // application/x-qtag-binary; false: JSON
	preload   int  // events ingested during set-up
	// mixed replaces the closed-loop phase and the open-loop phase with
	// one phase: a fixed-rate writer on one connection beside a reader
	// that polls GET /report every readInterval on the other.
	mixed    bool
	dupShare float64 // share of requests re-sent verbatim

	// rateRPS is the open-loop request rate. It was set once, to the
	// round number nearest half of the closed-loop request rate measured
	// on the seed commit, and is never recalibrated: a change that makes
	// the server faster shows as lower latency at the same offered load.
	// tag_single_json runs at a sixth: an ack that follows an idle gap
	// takes 0.5 ms against 0.14 ms back to back, so two connections serve
	// an open loop at 4 000 req/s at most. At 6 000 the phase measured its
	// own backlog; at 3 000 it did so in every slow spell of the host (a
	// third slower for minutes: p50 0.7 → 2 ms in three runs of ten).
	rateRPS float64
	// closedRPS sizes the fixed work of a closed-loop phase: the phase
	// sends closedRPS × its nominal seconds requests, however long that
	// takes. It is the round number nearest the seed commit's closed-loop
	// request rate, so the seed takes about the nominal time; like rateRPS
	// it is never recalibrated, and a faster server finishes sooner.
	closedRPS float64
}

// ackLimit is the latency limit of every workload: a slower ack counts
// as failed. It sits above the sandbox's own stalls (a few tenths of a
// second, a few times an hour) so that a failure means the server.
const ackLimit = time.Second

// The four workloads, in the order they run.
var workloads = []workload{
	{
		name:  "tag_single_json",
		why:   "one JSON event per POST, WAL write on the ack path: per-request HTTP, admission, JSON decode and one WAL hand-off dominate",
		gated: true, nodes: 1, syncWAL: true, campaigns: 99, batch: 1,
		rateRPS: 2000, closedRPS: 12500,
	},
	{
		name:  "sink_batch_binary",
		why:   "64-event binary POSTs, WAL write on the ack path: request cost is amortised, so per-event WAL append, store and observers dominate",
		gated: true, nodes: 1, syncWAL: true, campaigns: 99, batch: 64, binary: true,
		rateRPS: 600, closedRPS: 1000,
	},
	{
		name:  "report_under_ingest",
		why:   "GET /report polled beside fixed-rate binary ingest with 10% re-sends, 5000 campaigns, async WAL: reads and writes contend for CPU",
		gated: true, nodes: 1, campaigns: 5000, batch: 64, binary: true, preload: 100_000, mixed: true, dupShare: 0.10,
		rateRPS: 150,
	},
	{
		name:  "cluster_forward",
		why:   "16-event binary POSTs to node a of a two-node ring: about half the events take Ring.Owner, HTTPSink and peer ingest",
		nodes: 2, syncWAL: true, campaigns: 99, batch: 16, binary: true,
		rateRPS: 350, closedRPS: 800,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// phases splits a run's measured seconds. Warm-up is a tenth of the
// measured time (5 s of 50 in the full-length design) and is not timed.
// The closed-loop phases (warm-up included) are nominal lengths: they
// size a fixed number of requests, see closedRPS.
type phases struct {
	warm, closed, open time.Duration
}

// closedLimit is how many times its nominal length a closed-loop phase
// may run before it is cut short and the run flagged.
const closedLimit = 3

func (w workload) phases(seconds int) phases {
	total := time.Duration(seconds) * time.Second
	p := phases{warm: total / 10}
	if w.mixed {
		p.open = total
	} else {
		p.closed, p.open = total/2, total-total/2
	}
	return p
}

// walDir is node i's WAL directory under the run directory.
func walDir(dir string, i int) string { return fmt.Sprintf("%s/wal-%d", dir, i) }

// serverArgs is the argv of node i (0-based) of the workload.
func (w workload) serverArgs(i int, addrs []string, dir string) []string {
	// The sandbox disk's fsync time is the noisiest thing in the sandbox
	// and is kept off the ack path (README, Workloads). Two fsyncs would
	// still get onto it: a segment rotation syncs the sealed segment, the
	// new header and the directory with the journal locked — every 1.4 s
	// at sink_batch_binary's 6 MB/s with the default 8 MiB segments — and
	// the stats ticker syncs the journal every 30 s, which falls inside the
	// measured phases of a slow run only. One segment holds a whole run,
	// and the ticker is off.
	args := []string{"-addr", addrs[i], "-log-level", "warn", "-log-every", "0",
		"-wal-dir", walDir(dir, i), "-wal-segment-bytes", "1073741824"}
	if w.syncWAL {
		args = append(args, "-fsync", "batch", "-durable-sync", "-group-commit", "-admission", "-ingest-shards", "16")
	} else {
		// The async queue is sized for the sandbox's disk, which now and
		// then stalls an fsync for half a second: at 9 600 events/s the
		// default 4 096 events are 0.43 s of buffer, and one such stall in
		// thirty runs overflowed it and failed the run.
		args = append(args, "-queue-cap", "65536")
	}
	args = append(args, "-detect")
	if w.nodes > 1 {
		ids := []string{"a", "b"}
		peer := 1 - i
		args = append(args,
			"-node-id", ids[i],
			"-peers", ids[peer]+"=http://"+addrs[peer],
			"-handoff-dir", fmt.Sprintf("%s/hints-%d", dir, i))
	}
	return args
}
