package main

import (
	"go/build"
	"slices"
	"strings"
	"testing"
)

// simulatorPackages are the reproduction harness: the simulated browser,
// DOM, DSP, ad server and tags, the campaign simulator and the
// evaluation built on it. The collector counts beacons from real tags;
// none of these belongs in its binary.
var simulatorPackages = []string{
	"campaign", "dsp", "adserve", "browser", "dom", "adtag", "qtag", "commercial",
}

// TestServerLinksNoSimulator walks qtag-server's import graph — its own
// package and everything under it, tests excluded — and fails if any
// simulator package is on it.
func TestServerLinksNoSimulator(t *testing.T) {
	const module = "qtag/"
	seen := map[string]bool{}
	var walk func(dir string, path []string)
	walk = func(dir string, path []string) {
		pkg, err := build.ImportDir(dir, 0)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		for _, imp := range pkg.Imports {
			if !strings.HasPrefix(imp, module) || seen[imp] {
				continue
			}
			seen[imp] = true
			via := append(slices.Clone(path), imp)
			if name, ok := strings.CutPrefix(imp, module+"internal/"); ok && slices.Contains(simulatorPackages, name) {
				t.Errorf("qtag-server links the simulator package %s via %s", imp, strings.Join(via, " → "))
			}
			walk("../../"+strings.TrimPrefix(imp, module), via)
		}
	}
	walk(".", []string{"qtag/cmd/qtag-server"})
	if !seen[module+"internal/collector"] {
		t.Fatalf("the walk never reached internal/collector; saw %d packages", len(seen))
	}
}
