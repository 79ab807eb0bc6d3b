// Command qtag-stress runs the tag-side stress harness (EXPERIMENTS.md
// S1): randomized lab scenarios with a differential check of the tag's
// verdict against a tolerance-bracketed ground-truth oracle.
//
//	qtag-stress [-n 1000] [-seed 2019] [-v]
//
// The collector's load and performance measurement is `go run ./bench`
// (bench/README.md); to push simulator traffic at a live collector use
// `qtag-sim -server URL -queue`.
package main

import (
	"flag"
	"fmt"
	"os"

	"qtag/internal/stress"
)

func main() {
	n := flag.Int("n", 1000, "number of random scenarios")
	seed := flag.Uint64("seed", 2019, "scenario seed")
	verbose := flag.Bool("v", false, "print mismatching scenarios")
	flag.Parse()

	b := stress.RunBatch(*n, *seed)
	fmt.Println(b)
	if *verbose {
		for _, m := range b.Mismatches {
			fmt.Printf("  tag=%v strict=%v nominal=%v lenient=%v adY=%.0f video=%v steps=%d\n",
				m.TagInView, m.OracleStrict, m.OracleNom, m.OracleLen,
				m.Scenario.AdY, m.Scenario.Video, len(m.Scenario.Steps))
		}
	}
	if b.Mismatch > 0 {
		fmt.Fprintln(os.Stderr, "FAIL: the tag contradicted a robust ground truth")
		os.Exit(1)
	}
	fmt.Println("PASS: no mismatches on robust scenarios")
}
