package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"qtag/internal/beacon"
	"qtag/internal/campaign"
	"qtag/internal/collector"
	"qtag/internal/collector/collectortest"
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
