package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files instead of comparing")

// TestOutputMatchesTheGolden pins what qtag-sim prints — Figure 3,
// Table 2, the economics and the per-campaign breakdown — for a small
// run, without faults and with tag beacons dropped and refused. The
// counts behind those lines come from the collector the simulation
// feeds, so a change to how the collector counts shows here first.
// Run with -update only when the output is meant to change.
func TestOutputMatchesTheGolden(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"small.golden", nil},
		{"small_faults.golden", []string{"-fault-drop", "0.15", "-fault-err", "0.05"}},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			args := append([]string{"-campaigns", "20", "-impressions", "40", "-seed", "7", "-breakdown", "-log-level", "error"}, tc.args...)
			var out bytes.Buffer
			if code := run(args, &out); code != 0 {
				t.Fatalf("run(%q) = %d, want 0; stdout:\n%s", args, code, out.String())
			}
			path := filepath.Join("testdata", tc.golden)
			if *updateGolden {
				if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read golden (run with -update to create): %v", err)
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Errorf("qtag-sim %q printed:\n%s\nwant (%s):\n%s", args, out.Bytes(), path, want)
			}
		})
	}
}

// TestRunRefusesBadFlags: a flag the command does not have and a bad
// -log-level both exit 2 before anything runs.
func TestRunRefusesBadFlags(t *testing.T) {
	for _, args := range [][]string{{"-no-such-flag"}, {"-log-level", "loud"}} {
		var out bytes.Buffer
		if code := run(args, &out); code != 2 || out.Len() != 0 {
			t.Errorf("run(%q) = %d with %d bytes of stdout, want 2 and none", args, code, out.Len())
		}
	}
}
