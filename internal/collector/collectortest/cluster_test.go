package collectortest

import (
	"io"
	"net/http"
	"slices"
	"strings"
	"testing"
)

// metricFamilies lists the families a /metrics scrape declares, sorted.
func metricFamilies(t *testing.T, url string) []string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d, %v", resp.StatusCode, err)
	}
	var families []string
	for _, line := range strings.Split(string(body), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			families = append(families, f[2])
		}
	}
	slices.Sort(families)
	return families
}

// A harness node is the stack qtag-server runs: its /metrics declares
// exactly the families of a stack Boot opens from the same Config —
// breaker, queue and detector included when the Config asks for them.
func TestHarnessNodeIsTheShippedStack(t *testing.T) {
	base := NodeConfig()
	base.Detect, base.TraceSample = true, 1
	h := StartHarness(t, HarnessConfig{Base: base})
	for _, hn := range h.Nodes {
		cfg := hn.cfg
		cfg.WALDir, cfg.HandoffDir = t.TempDir(), t.TempDir()
		_, url, _ := Boot(t, cfg)
		got, want := metricFamilies(t, hn.URL), metricFamilies(t, url)
		if !slices.Equal(got, want) {
			t.Errorf("%s /metrics families differ from collectortest.Boot's:\n got %q\nwant %q", hn.ID, got, want)
		}
		for _, family := range []string{"qtag_breaker_state", "qtag_queue_depth", "qtag_aggregate_open_impressions", "qtag_admission_limit"} {
			if !slices.Contains(got, family) {
				t.Errorf("%s exports no %s", hn.ID, family)
			}
		}
	}
}
