package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	qtagapi "qtag"
	"qtag/internal/beacon"
	"qtag/internal/campaign"
	"qtag/internal/collector"
	"qtag/internal/collector/collectortest"
	"qtag/internal/detect"
	"qtag/internal/report"
	"qtag/internal/simrand"
)

// TestMain runs the test binary as qtag-replay itself when
// QTAG_REPLAY_MAIN is set, so the tests drive main as an operator does.
func TestMain(m *testing.M) {
	if os.Getenv("QTAG_REPLAY_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// replay runs qtag-replay with args and returns its stdout and stderr;
// a non-zero exit fails the test.
func replay(t *testing.T, args ...string) (stdout, stderr string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "QTAG_REPLAY_MAIN=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	if err := cmd.Run(); err != nil {
		t.Fatalf("qtag-replay %v: %v\n%s", args, err, errOut.String())
	}
	return out.String(), errOut.String()
}

// events is a deterministic honest beacon stream over two campaigns.
func events() []beacon.Event {
	var out []beacon.Event
	collect := beacon.SinkFunc(func(e beacon.Event) error {
		out = append(out, e)
		return nil
	})
	for _, id := range []string{"camp-a", "camp-b"} {
		campaign.RunActor(campaign.ActorSpec{Kind: campaign.ActorHonest, CampaignID: id, Impressions: 20},
			simrand.New(7), collect, nil)
	}
	return out
}

// jsonl renders events as the JSONL journal older servers wrote.
func jsonl(t *testing.T, evs []beacon.Event) []string {
	t.Helper()
	lines := make([]string, len(evs))
	for i, e := range evs {
		line, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		lines[i] = string(line) + "\n"
	}
	return lines
}

// A WAL directory written by the production assembly and a JSONL file
// holding the same events replay to the same count and the same report.
func TestReplayReadsWALDirAndJSONL(t *testing.T) {
	evs := events()
	dir := t.TempDir()
	cfg := collector.DefaultConfig()
	cfg.WALDir = filepath.Join(dir, "beacons.wal")
	_, url, shutdown := collectortest.Boot(t, cfg)
	if err := (&beacon.HTTPSink{BaseURL: url}).SubmitBatch(evs); err != nil {
		t.Fatal(err)
	}
	if err := shutdown(); err != nil {
		t.Fatal(err)
	}
	file := filepath.Join(dir, "beacons.jsonl")
	if err := os.WriteFile(file, []byte(strings.Join(jsonl(t, evs), "")), 0o644); err != nil {
		t.Fatal(err)
	}

	for _, path := range []string{cfg.WALDir, file} {
		if out, _ := replay(t, "-journal", path); !strings.Contains(out, fmt.Sprintf("replayed %d events from %s", len(evs), path)) {
			t.Errorf("qtag-replay -journal %s printed\n%s\nwant %d events replayed", path, out, len(evs))
		}
	}
	fromWAL, _ := replay(t, "-journal", cfg.WALDir, "-report-json")
	if fromFile, _ := replay(t, "-journal", file, "-report-json"); fromWAL != fromFile {
		t.Errorf("-report-json differs between the WAL and the JSONL file:\nWAL:\n%s\nJSONL:\n%s", fromWAL, fromFile)
	}
	if !strings.Contains(fromWAL, `"camp-a"`) || !strings.Contains(fromWAL, `"camp-b"`) {
		t.Errorf("-report-json lacks the campaigns:\n%s", fromWAL)
	}
}

// A JSONL journal with a zero-filled page inside it and a torn last line
// replays everything readable, reports both losses on stderr and exits 0.
func TestReplaySkipsMalformedJSONLLines(t *testing.T) {
	lines := jsonl(t, events())
	last := lines[len(lines)-1]
	journal := strings.Join(lines[:10], "") + strings.Repeat("\x00", 2<<20) + "\n" +
		strings.Join(lines[10:len(lines)-1], "") + last[:len(last)/2]
	file := filepath.Join(t.TempDir(), "beacons.jsonl")
	if err := os.WriteFile(file, []byte(journal), 0o644); err != nil {
		t.Fatal(err)
	}
	out, notes := replay(t, "-journal", file)
	if want := fmt.Sprintf("replayed %d events from", len(lines)-1); !strings.Contains(out, want) {
		t.Errorf("qtag-replay printed\n%s\nwant %q", out, want)
	}
	if want := "skipped 2 malformed lines"; !strings.Contains(notes, want) {
		t.Errorf("qtag-replay noted\n%s\nwant %q", notes, want)
	}
}

// injected is one impression per lifecycle violation class, on campaign
// camp-bad: a loaded beacon nothing served, an in-view with no loaded,
// an out-of-view with no in-view, an in-view 200 ms after loaded, an
// in-view before its loaded, and an out-of-view before its in-view.
func injected() []beacon.Event {
	t0 := time.Date(2019, 12, 9, 12, 0, 0, 0, time.UTC)
	ev := func(imp string, src beacon.Source, typ beacon.EventType, after time.Duration, format string) beacon.Event {
		return beacon.Event{ImpressionID: imp, CampaignID: "camp-bad", Source: src, Type: typ, At: t0.Add(after), Meta: beacon.Meta{Format: format}}
	}
	q, served := beacon.SourceQTag, beacon.Source("")
	return []beacon.Event{
		ev("orphan", q, beacon.EventLoaded, 0, ""),
		ev("no-loaded", served, beacon.EventServed, 0, ""),
		ev("no-loaded", beacon.SourceCommercial, beacon.EventInView, 2*time.Second, ""),
		ev("orphan-out", served, beacon.EventServed, 0, ""),
		ev("orphan-out", q, beacon.EventLoaded, 0, ""),
		ev("orphan-out", q, beacon.EventOutOfView, time.Second, ""),
		ev("short", served, beacon.EventServed, 0, "display"),
		ev("short", q, beacon.EventLoaded, 0, ""),
		ev("short", q, beacon.EventInView, 200*time.Millisecond, ""),
		ev("in-view-first", served, beacon.EventServed, 0, ""),
		ev("in-view-first", q, beacon.EventLoaded, 5*time.Second, ""),
		ev("in-view-first", q, beacon.EventInView, 2*time.Second, ""),
		ev("out-first", served, beacon.EventServed, 0, ""),
		ev("out-first", q, beacon.EventLoaded, 0, ""),
		ev("out-first", q, beacon.EventInView, 1200*time.Millisecond, ""),
		ev("out-first", q, beacon.EventOutOfView, 600*time.Millisecond, ""),
	}
}

// fraudViolations reads the violations of a report's fraud rows, by
// "campaign/source".
func fraudViolations(t *testing.T, body []byte) map[string]detect.Violations {
	t.Helper()
	var rep report.ViewabilityReport
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatalf("decode report: %v\n%s", err, body)
	}
	if rep.Fraud == nil {
		t.Fatalf("report has no fraud section:\n%s", body)
	}
	out := map[string]detect.Violations{}
	for _, r := range rep.Fraud.Rows {
		if r.Violations != nil {
			out[r.CampaignID+"/"+r.Source] = *r.Violations
		}
	}
	return out
}

// The three faces of the one lifecycle checker agree: a -detect stack's
// GET /report, qtag-replay -report-json -detect over its WAL directory,
// and qtag.Audit over its store report the same violations for a stream
// with every class injected beside honest traffic, on which none of
// them finds a violation.
func TestStreamingReplayAndAuditAgree(t *testing.T) {
	cfg := collector.DefaultConfig()
	cfg.WALDir = filepath.Join(t.TempDir(), "beacons.wal")
	cfg.Detect = true
	stack, url, shutdown := collectortest.Boot(t, cfg)
	kept := beacon.Record(stack.Store)
	if err := (&beacon.HTTPSink{BaseURL: url}).SubmitBatch(append(events(), injected()...)); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(url + "/report")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /report: %d %v", resp.StatusCode, err)
	}
	streaming := fraudViolations(t, body)
	audit := map[string]detect.Violations{}
	for _, r := range qtagapi.Audit(kept).Rows {
		if r.Violations != nil {
			audit[r.CampaignID+"/"+r.Source] = *r.Violations
		}
	}
	if err := shutdown(); err != nil {
		t.Fatal(err)
	}
	out, _ := replay(t, "-journal", cfg.WALDir, "-report-json", "-detect")
	replayed := fraudViolations(t, []byte(out))

	want := map[string]detect.Violations{
		"camp-bad/qtag":       {NoServed: 1, OrphanOutOfView: 1, ImpossibleDwell: 1, OutOfOrder: 2},
		"camp-bad/commercial": {NoLoaded: 1},
	}
	for key, w := range want {
		if got := streaming[key]; got != w {
			t.Errorf("GET /report: %s = %+v, want %+v", key, got, w)
		}
	}
	for key, got := range streaming {
		if _, injected := want[key]; !injected {
			t.Errorf("GET /report: honest row %s has violations %+v, want none", key, got)
		}
	}
	if !reflect.DeepEqual(replayed, streaming) {
		t.Errorf("qtag-replay violations = %+v\nGET /report's = %+v", replayed, streaming)
	}
	if !reflect.DeepEqual(audit, streaming) {
		t.Errorf("qtag.Audit violations = %+v\nGET /report's = %+v", audit, streaming)
	}
}
