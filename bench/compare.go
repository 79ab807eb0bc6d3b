package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// series collects one end-to-end metric's values on one workload over
// the repeats of a result file.
type seriesKey struct{ workload, metric string }

func readSeries(path string) (map[seriesKey][]float64, resultFile, error) {
	var file resultFile
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, file, err
	}
	if err := json.Unmarshal(b, &file); err != nil {
		return nil, file, fmt.Errorf("%s: %w", path, err)
	}
	return seriesOf(file), file, nil
}

func seriesOf(file resultFile) map[seriesKey][]float64 {
	out := map[seriesKey][]float64{}
	for _, run := range file.Runs {
		for name, m := range run.Metrics {
			k := seriesKey{run.Workload, name}
			out[k] = append(out[k], m.Value)
		}
	}
	return out
}

// verdict applies one metric's bound to a parent and a change:
//
//	unresolved  the parent's own inter-quartile spread exceeds the bound,
//	            so the benchmark cannot tell a regression from noise
//	worse       the change's median is worse by more than the bound
//	better      the change's median is better by more than the parent's
//	            spread
//	same        anything else
func verdict(def metricDef, parent, change []float64) (string, float64) {
	pm, cm := median(parent), median(change)
	if pm == 0 {
		return "unresolved", 0
	}
	rel := (cm - pm) / math.Abs(pm) // signed change as a share of the parent's median
	if def.Better == "higher" {
		rel = -rel
	}
	// rel > 0 now means worse.
	sp := spread(parent)
	switch {
	case len(parent) > 1 && sp > def.Bound:
		return "unresolved", rel
	case rel > def.Bound:
		return "worse", rel
	case rel < 0 && -rel > sp:
		return "better", rel
	default:
		return "same", rel
	}
}

// compareFiles prints, for every pairing of end-to-end metric and
// workload, each side's median and the verdict. The size of a
// difference is printed only when it stands outside the parent's spread.
func compareFiles(w io.Writer, parentPath, changePath string) error {
	parent, pf, err := readSeries(parentPath)
	if err != nil {
		return err
	}
	change, cf, err := readSeries(changePath)
	if err != nil {
		return err
	}
	if pf.Seconds != cf.Seconds || pf.Seed != cf.Seed {
		fmt.Fprintf(w, "warning: parent ran seed %d for %d s, change seed %d for %d s\n", pf.Seed, pf.Seconds, cf.Seed, cf.Seconds)
	}
	if pf.Env.NumCPU != cf.Env.NumCPU || pf.Env.WALFilesystem != cf.Env.WALFilesystem {
		fmt.Fprintf(w, "warning: environments differ (nproc %d vs %d, WAL fs %s vs %s)\n",
			pf.Env.NumCPU, cf.Env.NumCPU, pf.Env.WALFilesystem, cf.Env.WALFilesystem)
	}
	fmt.Fprintf(w, "%-20s %-26s %14s %14s %8s  %s\n", "workload", "metric", "parent median", "change median", "spread", "verdict")
	worse := 0
	for _, wl := range workloads {
		for _, def := range endToEnd {
			k := seriesKey{wl.name, def.Name}
			p, c := parent[k], change[k]
			if len(p) == 0 || len(c) == 0 {
				continue
			}
			v, rel := verdict(def, p, c)
			line := fmt.Sprintf("%-20s %-26s %14.4f %14.4f %7.1f%%  %s", wl.name, def.Name, median(p), median(c), spread(p)*100, v)
			if v == "better" || v == "worse" {
				line += fmt.Sprintf(" by %.1f%% of %.4f %s", math.Abs(rel)*100, median(p), def.Unit)
			}
			fmt.Fprintln(w, line)
			if v == "worse" {
				worse++
			}
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d metric(s) worse than their bound", worse)
	}
	return nil
}

// printSpread prints median and quartiles per (metric, workload) over
// the repeats of one result file: the benchmark's own noise floor.
func printSpread(w io.Writer, file resultFile) {
	s := seriesOf(file)
	keys := make([]seriesKey, 0, len(s))
	for k := range s {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].metric < keys[j].metric
	})
	fmt.Fprintf(w, "== spread over %d repeats\n%-20s %-38s %14s %14s %14s %8s\n", len(file.Runs)/(2*len(workloads)),
		"workload", "metric", "q1", "median", "q3", "iqr/med")
	for _, k := range keys {
		q1, q3 := quartiles(s[k])
		flag := ""
		if def, ok := defOf(endToEnd, k.metric); ok && spread(s[k]) > def.Bound {
			flag = "  > bound"
		}
		fmt.Fprintf(w, "%-20s %-38s %14.4f %14.4f %14.4f %7.1f%%%s\n", k.workload, k.metric, q1, median(s[k]), q3, spread(s[k])*100, flag)
	}
}
