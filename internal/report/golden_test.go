package report

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"qtag/internal/aggregate"
	"qtag/internal/beacon"
	"qtag/internal/detect"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files instead of comparing")

// goldenStack builds the aggregate + detect pair behind the golden
// report: camp-good carries clean lifecycles (30 impressions, enough
// volume to clear the detector's MinEvents gate honestly), camp-spoof
// carries bare in-view beacons with duplicate re-submissions — one
// honest row and one flagged row, so the golden file pins the full
// fraud schema, contributions and all.
func goldenStack(t *testing.T) (*aggregate.Aggregator, *detect.Detector) {
	t.Helper()
	store := beacon.NewStore()
	a := aggregate.Attach(store, aggregate.Options{TTL: -1, Now: func() time.Time { return rt0 }})
	d := detect.Over(a, detect.Options{})

	meta := beacon.Meta{Format: "banner", AdSize: "300x250"}
	submit := func(e beacon.Event) {
		t.Helper()
		if err := store.Submit(e); err != nil {
			t.Fatalf("submit: %v", err)
		}
	}
	for i := 0; i < 30; i++ {
		imp := "good-" + string(rune('a'+i%26)) + string(rune('0'+i/26))
		m := meta
		m.Slot = "slot-" + string(rune('a'+i%8))
		at := rt0.Add(time.Duration(i) * 10 * time.Second)
		submit(beacon.Event{ImpressionID: imp, CampaignID: "camp-good", Type: beacon.EventServed, At: at, Meta: m})
		submit(beacon.Event{ImpressionID: imp, CampaignID: "camp-good", Source: beacon.SourceQTag, Type: beacon.EventLoaded, At: at.Add(80 * time.Millisecond), Meta: m})
		if i%2 == 0 {
			submit(beacon.Event{ImpressionID: imp, CampaignID: "camp-good", Source: beacon.SourceQTag, Type: beacon.EventInView, At: at.Add(300 * time.Millisecond), Meta: m})
			submit(beacon.Event{ImpressionID: imp, CampaignID: "camp-good", Source: beacon.SourceQTag, Type: beacon.EventOutOfView, At: at.Add(2500 * time.Millisecond), Meta: m})
		}
	}
	for i := 0; i < 30; i++ {
		imp := "spoof-" + string(rune('a'+i%26)) + string(rune('0'+i/26))
		at := rt0.Add(time.Duration(i) * 10 * time.Second)
		ev := beacon.Event{ImpressionID: imp, CampaignID: "camp-spoof", Source: beacon.SourceQTag, Type: beacon.EventInView, At: at, Meta: meta}
		submit(ev)
		submit(ev) // at-least-once retry, routed to the duplicate hook
	}
	return a, d
}

// TestReportGoldenJSON pins the exact GET /report JSON schema — honest
// aggregate fields plus the fraud object — against
// testdata/report_golden.json. Run with -update after an intentional
// schema change; an unintentional one fails here first. The schema is
// documented in README.md.
func TestReportGoldenJSON(t *testing.T) {
	a, d := goldenStack(t)
	h := HandlerWithDetect(a, d, func() time.Time { return rt0 })
	rr := get(t, h, "/report?windows=0")
	if rr.Code != 200 {
		t.Fatalf("status = %d, body = %s", rr.Code, rr.Body)
	}
	var pretty bytes.Buffer
	if err := json.Indent(&pretty, rr.Body.Bytes(), "", "  "); err != nil {
		t.Fatalf("indent: %v", err)
	}
	pretty.WriteByte('\n')

	golden := filepath.Join("testdata", "report_golden.json")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, pretty.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(pretty.Bytes(), want) {
		t.Fatalf("GET /report JSON drifted from golden; run with -update if intentional\n got:\n%s\nwant:\n%s", pretty.Bytes(), want)
	}
}

// TestReportPrometheusDetect spot-checks the qtag_detect_* exposition
// the same stack serves under ?format=prom.
func TestReportPrometheusDetect(t *testing.T) {
	a, d := goldenStack(t)
	h := HandlerWithDetect(a, d, func() time.Time { return rt0 })
	body := get(t, h, "/report?format=prom").Body.String()
	for _, line := range []string{
		`qtag_detect_score{campaign="camp-spoof",source="qtag"} 1`,
		`qtag_detect_flagged{campaign="camp-spoof",source="qtag"} 1`,
		`qtag_detect_flagged{campaign="camp-good",source="qtag"} 0`,
		`qtag_detect_contribution{campaign="camp-spoof",source="qtag",detector="sequence"} 1`,
		`qtag_detect_row_dups{campaign="camp-spoof",source="qtag"} 30`,
	} {
		if !strings.Contains(body, line) {
			t.Errorf("prom exposition missing %q", line)
		}
	}
	// A nil detector must serve the pre-detect exposition untouched.
	plain := get(t, Handler(a, nil), "/report?format=prom").Body.String()
	if strings.Contains(plain, "qtag_detect_") {
		t.Error("nil detector leaked qtag_detect_* families")
	}
}
