// Command bench is the beacon collector's benchmark: it builds
// cmd/qtag-server, runs it as a separate process, drives it over
// loopback from this process with seeded, pre-serialised requests on
// nproc connections, checks GET /report against a batch recompute of
// what it sent — again after kill -9 and restart — and prints every
// metric by name with its unit. See README.md in this directory.
//
// Driver form, one workload, result as the last line of stdout:
//
//	bash bench/run.sh --workload tag_single_json --seed 1 --seconds 20 --trace 0
//
// Reader form, every workload, untraced then traced:
//
//	go run ./bench -seed 1 -out bench/out/results.json [-repeat 5]
//	go run ./bench -compare parent.json change.json
//	go run ./bench -smoke
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
)

// outDir holds result and span files; it carries its own .gitignore.
const outDir = "bench/out"

// defaultSeconds is run_seconds in BENCHMARK.json.
const defaultSeconds = 20

func numConns() int { return runtime.NumCPU() }

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Env     environment `json:"env"`
	Seed    uint64      `json:"seed"`
	Seconds int         `json:"seconds"`
	Runs    []runResult `json:"runs"`
}

func main() {
	workloadName := flag.String("workload", "", "run one workload and print the driver's JSON line (default: all workloads, untraced then traced)")
	seed := flag.Uint64("seed", 1, "input seed: the same seed gives byte-identical requests")
	seconds := flag.Int("seconds", defaultSeconds, "measured seconds per run")
	trace := flag.Int("trace", 0, "with -workload: 1 prints the per-layer metrics of the traced run, 0 the end-to-end metrics")
	out := flag.String("out", "", "write every run's result and provenance to this JSON file")
	repeat := flag.Int("repeat", 1, "rerun the whole set this many times and print median and quartiles")
	compare := flag.Bool("compare", false, "compare two result files given as arguments: parent.json change.json")
	smoke := flag.Bool("smoke", false, "2-second phases on every workload: correctness and schema only")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two result files"))
		}
		if err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fatal(err)
		}
		return
	}
	if *smoke {
		*seconds = 2
	}
	if *seconds < 1 || *repeat < 1 {
		fatal(fmt.Errorf("-seconds and -repeat must be at least 1"))
	}
	if err := chdirRoot(); err != nil {
		fatal(err)
	}
	// A signal cancels the run; every spawned server is killed and
	// waited for by the deferred teardown before the process exits.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	bin, buildTook, err := buildServer()
	if err != nil {
		fatal(err)
	}
	buildS := buildTook.Seconds()

	if *workloadName != "" {
		w, err := findWorkload(*workloadName)
		if err != nil {
			fatal(err)
		}
		res, err := runWorkload(ctx, w, bin, buildS, *seed, *seconds, *trace == 1)
		if err != nil {
			fatal(err)
		}
		printRun(os.Stdout, res)
		if *out != "" {
			if err := writeResults(*out, resultFile{Env: environmentOf(), Seed: *seed, Seconds: *seconds, Runs: []runResult{res}}); err != nil {
				fatal(err)
			}
		}
		printDriverLine(res)
		if !res.Correct {
			os.Exit(1)
		}
		return
	}

	file := resultFile{Env: environmentOf(), Seed: *seed, Seconds: *seconds}
	ok := true
	for rep := 0; rep < *repeat; rep++ {
		for _, w := range workloads {
			for _, traced := range []bool{false, true} {
				res, err := runWorkload(ctx, w, bin, buildS, *seed, *seconds, traced)
				if err != nil {
					fatal(fmt.Errorf("%s: %w", w.name, err))
				}
				res.Repeat = rep
				printRun(os.Stdout, res)
				file.Runs = append(file.Runs, res)
				ok = ok && res.Correct
			}
		}
	}
	if *repeat > 1 {
		printSpread(os.Stdout, file)
	}
	if *out != "" {
		if err := writeResults(*out, file); err != nil {
			fatal(err)
		}
	}
	if !ok {
		fmt.Fprintln(os.Stderr, "bench: at least one run failed its correctness check")
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// chdirRoot moves to the repository root (the directory with go.mod and
// cmd/qtag-server), so relative paths mean the same thing whether the
// binary was started from the root or from bench/.
func chdirRoot() error {
	dir, err := os.Getwd()
	if err != nil {
		return err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "qtag-server", "main.go")); err == nil {
			return os.Chdir(dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return fmt.Errorf("cmd/qtag-server not found above the working directory: run from the repository")
		}
		dir = parent
	}
}

// printDriverLine prints the one JSON object the driver reads.
func printDriverLine(res runResult) {
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// printRun prints one run for a reader: every metric by name with its
// unit, the sample counts behind the timings, and any validity flag.
func printRun(w io.Writer, res runResult) {
	kind := "end-to-end"
	if res.Trace {
		kind = "per-layer"
	}
	fmt.Fprintf(w, "== %s (%s) correct=%v attempted=%d failed=%d events=%d\n",
		res.Workload, kind, res.Correct, res.Attempted, res.Failed, res.Detail.SentEvents)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(w, "  %-38s %14.4f %s\n", name, m.Value, m.Unit)
	}
	d := res.Detail
	fmt.Fprintf(w, "  ack (open loop, %g req/s, %d conns): n=%d p50=%.3f ms p%g=%.3f ms (%d beyond) max=%.3f ms\n",
		d.RateRPS, d.Connections, d.Ack.N, d.Ack.P50, d.Ack.TailQ*100, d.Ack.Tail, d.Ack.Beyond, d.Ack.Max)
	if d.ClosedAck.N > 0 {
		fmt.Fprintf(w, "  ack (closed loop, ran %.1f s): n=%d p50=%.3f ms p%g=%.3f ms\n", d.ClosedSeconds, d.ClosedAck.N, d.ClosedAck.P50, d.ClosedAck.TailQ*100, d.ClosedAck.Tail)
	}
	fmt.Fprintf(w, "  report reads: n=%d p50=%.3f ms p%g=%.3f ms (%d beyond)\n", d.Report.N, d.Report.P50, d.Report.TailQ*100, d.Report.Tail, d.Report.Beyond)
	fmt.Fprintf(w, "  generator lateness: p50=%.3f ms p%g=%.3f ms\n", d.Lateness.P50, d.Lateness.TailQ*100, d.Lateness.Tail)
	fmt.Fprintf(w, "  set-ups %.3v s, restarts %.3v s restoring %.0f events\n", d.SetupSeconds, d.Recover, d.Restored)
	if res.Trace {
		verdict := "within"
		if r := res.Metrics["ledger.residual_ratio"].Value; r > residualTolerance || r < -residualTolerance {
			verdict = "outside"
		}
		fmt.Fprintf(w, "  ledger: residual %s the stated tolerance of ±%.2f\n", verdict, residualTolerance)
	}
	for _, f := range d.Flags {
		fmt.Fprintf(w, "  FLAG: %s\n", f)
	}
	if d.Error != "" {
		fmt.Fprintf(w, "  INCORRECT: %s\n", d.Error)
	}
}

func writeResults(path string, file resultFile) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
