// Command benchgate is the per-PR allocation gate: it compares a fresh
// `go test -bench -benchmem` text output against the committed baseline
// (ALLOC_BASELINE.txt) on allocs/op, exactly. Allocation counts are
// deterministic (unlike nanoseconds), so any increase over the baseline
// fails — the tripwire that keeps the zero-allocation decode path and
// the 64-event ingest request honest. Throughput and latency are the
// business of the out-of-process benchmark (`go run ./bench`,
// BENCHMARK.json), not of this gate.
//
//	go run ./scripts/benchgate.go -allocs -baseline ALLOC_BASELINE.txt -fresh alloc-fresh.txt
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// allocRow is one `go test -bench -benchmem` result line: the
// benchmark name with its trailing -GOMAXPROCS suffix stripped, plus
// the reported allocs/op and B/op.
type allocRow struct {
	AllocsPerOp int64
	BytesPerOp  int64
}

// parseAllocs reads `go test -bench -benchmem` text output and returns
// the allocs/op per benchmark. Lines that are not benchmark results
// (headers, PASS, ok) are ignored.
func parseAllocs(r io.Reader) (map[string]allocRow, error) {
	out := make(map[string]allocRow)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		// Benchmark<Name>-8  N  x ns/op  y B/op  z allocs/op
		if len(fields) < 8 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		if fields[len(fields)-1] != "allocs/op" || fields[len(fields)-3] != "B/op" {
			continue
		}
		allocs, err := strconv.ParseInt(fields[len(fields)-2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad allocs/op in %q: %w", sc.Text(), err)
		}
		bytesOp, err := strconv.ParseInt(fields[len(fields)-4], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad B/op in %q: %w", sc.Text(), err)
		}
		name := fields[0]
		// Strip the -GOMAXPROCS suffix so the gate is stable across
		// runner core counts.
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		out[name] = allocRow{AllocsPerOp: allocs, BytesPerOp: bytesOp}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no benchmark result lines found")
	}
	return out, nil
}

func loadAllocs(path string) (map[string]allocRow, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rows, err := parseAllocs(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rows, nil
}

// gateAllocs compares allocs/op exactly: allocation counts are
// deterministic per Go version, so any increase is a regression, not
// noise. A baseline benchmark missing from the fresh run fails (the
// suite shrank); a new fresh benchmark and an improvement are notes.
func gateAllocs(w io.Writer, baseline, fresh map[string]allocRow) bool {
	names := make([]string, 0, len(baseline))
	for n := range baseline {
		names = append(names, n)
	}
	sort.Strings(names)
	failed := false
	for _, n := range names {
		base := baseline[n]
		got, ok := fresh[n]
		switch {
		case !ok:
			fmt.Fprintf(w, "FAIL  %-48s missing from fresh run\n", n)
			failed = true
		case got.AllocsPerOp > base.AllocsPerOp:
			fmt.Fprintf(w, "FAIL  %-48s allocs/op %d -> %d (B/op %d -> %d)\n",
				n, base.AllocsPerOp, got.AllocsPerOp, base.BytesPerOp, got.BytesPerOp)
			failed = true
		case got.AllocsPerOp < base.AllocsPerOp:
			fmt.Fprintf(w, "note  %-48s allocs/op improved %d -> %d — re-baseline to lock it in\n",
				n, base.AllocsPerOp, got.AllocsPerOp)
		default:
			fmt.Fprintf(w, "ok    %-48s allocs/op %d\n", n, got.AllocsPerOp)
		}
	}
	for n := range fresh {
		if _, ok := baseline[n]; !ok {
			fmt.Fprintf(w, "note  %-48s new benchmark, no baseline\n", n)
		}
	}
	return failed
}

func main() {
	baselinePath := flag.String("baseline", "ALLOC_BASELINE.txt", "committed `go test -benchmem` baseline")
	freshPath := flag.String("fresh", "alloc-fresh.txt", "freshly produced `go test -benchmem` output to gate")
	flag.Bool("allocs", true, "gate allocs/op (the only mode; kept so `make alloc-gate`'s command line stays valid)")
	flag.Parse()

	baseline, err := loadAllocs(*baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(2)
	}
	fresh, err := loadAllocs(*freshPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(2)
	}
	if gateAllocs(os.Stdout, baseline, fresh) {
		fmt.Fprintln(os.Stderr, "benchgate: allocs/op regressed — fix the allocation, or re-baseline deliberately with `make alloc-baseline`")
		os.Exit(1)
	}
	fmt.Println("benchgate: no allocation regressions")
}
