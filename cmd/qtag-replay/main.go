// Command qtag-replay reads a beacon journal and either prints the
// aggregated stats or re-submits every event to a live collection
// server. -journal takes the WAL directory qtag-server writes under
// -wal-dir (newest valid snapshot first, then every record past its
// coverage, read-only and safe to point at a live or crashed server's
// directory), or a JSONL file written by older servers, which had a
// single-file journal before the WAL.
//
// Replay is tolerant by design: a corrupted, truncated or over-long
// line (the signature of a crash mid-write, or of the zero-filled page
// a power loss leaves) is skipped and counted, not fatal — the tool
// reports "skipped N malformed lines" (for a WAL directory, undecodable
// records and quarantined corruption are reported separately, with byte
// counts) and still exits 0 with the stats for everything readable.
// Such notes go to stderr, so -report-json's stdout stays pure JSON.
// Ingestion is idempotent end to end, so replaying into a server that
// already holds part of the journal is safe.
//
// -report switches the output to the streaming campaign viewability
// report: the journal is replayed through the same aggregation
// accumulators qtag-server feeds at ingest time (per campaign × format
// viewed / not-viewed / not-measured splits, viewability rates, dwell
// quantiles), proving the aggregates rebuild from the WAL alone.
// -report-json emits the same report as JSON for piping.
//
// -detect additionally rebuilds the streaming fraud scores
// (internal/detect) from the journal and appends them to the -report
// output (and the "fraud" object of -report-json). The journal records
// every accepted submission, duplicates included, so replay reproduces
// the duplicate-flood scores a live server computed; a torn tail only
// costs the unreadable records, never the scores for what was read.
// One caveat: a WAL snapshot stores the deduplicated store state, so
// duplicate counts for records the snapshot covers are compacted away
// (DESIGN.md §15). -report-json -detect over a WAL directory is the WAL
// audit: each fraud row's "violations" are the lifecycle checker's, as
// the live server's GET /report and qtag.Audit over its store give them.
//
// Usage:
//
//	qtag-replay -journal beacons.jsonl                # print stats
//	qtag-replay -journal beacons.wal                  # WAL directory
//	qtag-replay -journal beacons.wal -report          # viewability report
//	qtag-replay -journal beacons.wal -report -detect  # + fraud scores
//	qtag-replay -journal beacons.wal -report-json -detect  # WAL audit
//	qtag-replay -journal beacons.jsonl -server URL    # re-submit over HTTP
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"

	"qtag/internal/aggregate"
	"qtag/internal/beacon"
	"qtag/internal/detect"
	"qtag/internal/report"
)

func main() {
	journalPath := flag.String("journal", "", "journal to read: a JSONL file or a WAL directory (required)")
	serverURL := flag.String("server", "", "collection server to re-submit events to")
	binaryBeacons := flag.Bool("binary-beacons", false, "re-submit with the compact binary codec")
	reportMode := flag.Bool("report", false, "print the streaming campaign viewability report rebuilt from the journal")
	reportJSON := flag.Bool("report-json", false, "like -report, but emit JSON")
	detectMode := flag.Bool("detect", false, "rebuild the streaming fraud scores too; printed with -report, embedded in -report-json")
	flag.Parse()
	if *journalPath == "" {
		fmt.Fprintln(os.Stderr, "usage: qtag-replay -journal <beacons.jsonl | wal-dir> [-server URL]")
		os.Exit(2)
	}

	info, err := os.Stat(*journalPath)
	if err != nil {
		log.Fatalf("open journal: %v", err)
	}

	store := beacon.NewStore()
	// Rebuild the streaming aggregates alongside the store: the observer
	// fires once per first-seen event during replay, exactly as it does
	// at ingest time, so -report proves the WAL alone reproduces them.
	agg := aggregate.Attach(store, aggregate.Options{TTL: -1})
	// The aggregator hooks both seams, first-seen events and duplicate
	// submissions, and the fraud layer scores its records. The journal
	// holds every accepted submission, so the store's idempotent replay
	// routes repeats to the duplicate hook and the flood scores come back
	// exactly as the live server saw them.
	var det *detect.Detector
	if *detectMode {
		det = detect.Over(agg, detect.Options{})
	}
	var sink beacon.Sink = store
	if *serverURL != "" {
		sink = beacon.Tee(store, &beacon.HTTPSink{BaseURL: *serverURL, Retries: 2, Binary: *binaryBeacons})
	}

	replayed := 0
	if info.IsDir() {
		rec, err := beacon.ReplayWALDir(*journalPath, sink)
		if err != nil {
			// Partial reads still count: report what we got and move on.
			fmt.Fprintf(os.Stderr, "warning: wal replay ended early: %v\n", err)
		}
		replayed = rec.SnapshotRestored + rec.Replayed
		if rec.SnapshotRestored > 0 {
			fmt.Fprintf(os.Stderr, "restored %d events from snapshot (covers record %d)\n", rec.SnapshotRestored, rec.SnapshotIndex)
		}
		if rec.TornTail {
			fmt.Fprintf(os.Stderr, "warning: journal tail is torn (%d bytes unreadable) — a crash mid-write; everything before it was replayed\n", rec.TruncatedBytes)
		}
		// Undecodable records (one line each) and quarantined corruption
		// (chunks or whole segments, each possibly holding many records)
		// are different losses — report them separately so the operator's
		// accounting is exact.
		if skipped := rec.ReplaySkipped + rec.SnapshotSkipped; skipped > 0 {
			fmt.Fprintf(os.Stderr, "skipped %d undecodable records\n", skipped)
		}
		if rec.Quarantined > 0 {
			fmt.Fprintf(os.Stderr, "%d corrupted chunks (%d bytes) quarantined\n", rec.Quarantined, rec.QuarantinedBytes)
		}
	} else {
		f, err := os.Open(*journalPath)
		if err != nil {
			log.Fatalf("open journal: %v", err)
		}
		st, rerr := beacon.ReplayJournal(f, sink)
		f.Close()
		if rerr != nil {
			// A truncated or corrupted tail must not hide the readable
			// prefix: warn, keep the stats, exit 0.
			fmt.Fprintf(os.Stderr, "warning: journal read ended early: %v\n", rerr)
		}
		replayed = st.Replayed
		if st.Skipped > 0 {
			fmt.Fprintf(os.Stderr, "skipped %d malformed lines\n", st.Skipped)
		}
	}
	if *reportJSON {
		out := report.ViewabilityReport{Campaigns: agg.Snapshot(), Slices: agg.Slices()}
		if det != nil {
			fraud := det.Snapshot()
			out.Fraud = &fraud
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			log.Fatalf("encode report: %v", err)
		}
		return
	}
	fmt.Printf("replayed %d events from %s\n", replayed, *journalPath)
	fmt.Println()
	if *serverURL != "" {
		fmt.Printf("re-submitted to %s\n\n", *serverURL)
	}
	if *reportMode {
		fmt.Print(report.Text(agg.Snapshot()))
		if det != nil {
			fmt.Println()
			fmt.Print(det.Snapshot().Text())
		}
		return
	}

	ids := agg.CampaignIDs()
	rows := make([][]string, 0, len(ids))
	for _, id := range ids {
		c := agg.Totals(id)
		rows = append(rows, []string{id, fmt.Sprint(c.Served),
			report.Percent(c.MeasuredRate(beacon.SourceQTag)), report.Percent(c.ViewabilityRate(beacon.SourceQTag))})
	}
	fmt.Print(report.Table([]string{"Campaign", "Served", "Q-Tag measured", "Q-Tag viewability"}, rows))

	fmt.Println("\nTable 2 — measured rate by site type and OS:")
	for _, cell := range aggregate.Table2(agg.Slices()) {
		fmt.Println("  " + cell.String())
	}
}
