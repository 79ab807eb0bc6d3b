package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const allocBaselineTxt = `goos: linux
goarch: amd64
pkg: qtag/internal/beacon
BenchmarkBinaryCodec/encode-8         	  500000	      2100 ns/op	       0 B/op	       0 allocs/op
BenchmarkBinaryCodec/decode-8         	  300000	      3900 ns/op	       0 B/op	       0 allocs/op
BenchmarkBinaryCodec/decode-copy-8    	  200000	      5100 ns/op	    4096 B/op	       2 allocs/op
BenchmarkEventKeyAppend-8             	 2000000	        60 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	qtag/internal/beacon	5.1s
`

func writeText(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "allocs.txt")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestParseAllocs(t *testing.T) {
	rows, err := loadAllocs(writeText(t, allocBaselineTxt))
	if err != nil {
		t.Fatal(err)
	}
	// The -8 GOMAXPROCS suffix must be stripped so runs from runners
	// with different core counts compare.
	got, ok := rows["BenchmarkBinaryCodec/decode-copy"]
	if !ok || got.AllocsPerOp != 2 || got.BytesPerOp != 4096 {
		t.Fatalf("parsed rows: %+v", rows)
	}
	if len(rows) != 4 {
		t.Fatalf("want 4 rows, got %d: %+v", len(rows), rows)
	}
	if _, err := loadAllocs(writeText(t, "PASS\nok\n")); err == nil {
		t.Fatal("output without benchmark lines must be an error")
	}
}

func TestGateAllocsVerdicts(t *testing.T) {
	baseline, err := loadAllocs(writeText(t, allocBaselineTxt))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		fresh    string
		failed   bool
		wantLine string
	}{
		// Identical counts pass; ns/op and iteration counts are free to
		// drift — only allocs/op is compared.
		{"identical-allocs-noisy-time", strings.ReplaceAll(allocBaselineTxt, "2100 ns/op", "9999 ns/op"), false, "ok  "},
		// One extra allocation per op is an exact failure, no tolerance.
		{"one-alloc-regression", strings.Replace(allocBaselineTxt, "0 B/op	       0 allocs/op\nBenchmarkBinaryCodec/decode", "16 B/op	       1 allocs/op\nBenchmarkBinaryCodec/decode", 1), true, "FAIL"},
		{"missing-bench", strings.Replace(allocBaselineTxt, "BenchmarkEventKeyAppend-8             	 2000000	        60 ns/op	       0 B/op	       0 allocs/op\n", "", 1), true, "missing from fresh run"},
		{"improvement", strings.Replace(allocBaselineTxt, "4096 B/op	       2 allocs/op", "2048 B/op	       1 allocs/op", 1), false, "improved 2 -> 1"},
		{"new-bench", allocBaselineTxt + "BenchmarkBinaryCodec/extra-8  100	10 ns/op	0 B/op	0 allocs/op\n", false, "new benchmark, no baseline"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fresh, err := loadAllocs(writeText(t, tc.fresh))
			if err != nil {
				t.Fatal(err)
			}
			var out strings.Builder
			if failed := gateAllocs(&out, baseline, fresh); failed != tc.failed {
				t.Fatalf("failed = %v, want %v\n%s", failed, tc.failed, out.String())
			}
			if !strings.Contains(out.String(), tc.wantLine) {
				t.Fatalf("output missing %q:\n%s", tc.wantLine, out.String())
			}
		})
	}
}
