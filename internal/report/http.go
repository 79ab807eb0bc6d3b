package report

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"qtag/internal/aggregate"
	"qtag/internal/detect"
	"qtag/internal/jsonenc"
	"qtag/internal/obs"
)

// Handler serves the streaming campaign viewability report — the
// campaign-level product the paper's §4–§5 monetize — straight from the
// aggregate accumulators, for mounting next to the collection API:
//
//	GET /report                  JSON: per campaign × format counts,
//	                             rates, dwell histograms, Table 2's site
//	                             type × OS slices, rollup windows
//	GET /report?format=prom      Prometheus text exposition of the rows
//	                             and dwell histograms
//	GET /report?windows=0        JSON without the rollup windows
//
// The raw event store is never consulted, let alone scanned; the JSON
// form is encoded straight from the accumulators into reused buffers
// (no Snapshot, no reflection) and sent with a Content-Length in one
// Write.
func Handler(a *aggregate.Aggregator, now func() time.Time) http.Handler {
	return HandlerWithDetect(a, nil, now)
}

// HandlerWithDetect is Handler plus the fraud layer: with a non-nil
// detector the JSON payload gains a "fraud" object (per campaign ×
// solution scores, per-detector contributions, flagged campaigns) and
// the Prometheus exposition gains the qtag_detect_* families. A nil
// detector serves the exact pre-detect schema — the golden-file test
// pins both shapes.
func HandlerWithDetect(a *aggregate.Aggregator, d *detect.Detector, now func() time.Time) http.Handler {
	if now == nil {
		now = time.Now
	}
	var spare renderSlot
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// When the route is mounted behind obs.TraceMiddleware, annotate
		// the request's span with the report's shape; SpanFromContext is
		// nil-safe, so untraced deployments pay nothing here.
		sp := obs.SpanFromContext(r.Context())
		switch r.URL.Query().Get("format") {
		case "", "json":
			rb := spare.take()
			body, rows, flagged, open := rb.appendReport(a, d, now().UTC(), r.URL.Query().Get("windows") != "0")
			if d != nil {
				sp.SetAttr("report.flagged_campaigns", strconv.Itoa(flagged))
			}
			sp.SetAttr("report.campaign_rows", strconv.Itoa(rows))
			sp.SetAttr("report.open_impressions", strconv.Itoa(open))
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set("Content-Length", strconv.Itoa(len(body)))
			_, _ = w.Write(body)
			spare.keep(rb)
		case "prom", "prometheus":
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			_, _ = w.Write([]byte(Prometheus(a.Snapshot())))
			if d != nil {
				_, _ = w.Write([]byte(PrometheusDetect(d.Snapshot())))
			}
		default:
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusBadRequest)
			_ = json.NewEncoder(w).Encode(map[string]string{"error": "unknown format; want json or prom"})
		}
	})
}

// ViewabilityReport is the GET /report JSON payload, plain and
// federated alike. The handler does not marshal one:
// renderBuf.appendReport writes the same bytes straight from the
// accumulators. This type is what clients decode into (the federated
// merge, the benchmark's oracle) and the reference the byte-equality
// tests marshal — a field added here must be added there.
type ViewabilityReport struct {
	GeneratedAt time.Time          `json:"generated_at"`
	Campaigns   aggregate.Snapshot `json:"campaigns"`
	// Slices is the paper's Table 2 before the rates: every site type ×
	// OS cell summed over the campaigns, the cell of impressions that
	// named neither included, so its served sum to the rows'.
	Slices          []aggregate.Slice          `json:"slices,omitempty"`
	OpenImpressions int                        `json:"open_impressions"`
	Evicted         int64                      `json:"evicted_impression_states"`
	Windows         []aggregate.WindowSnapshot `json:"windows,omitempty"`
	// Fraud carries the detection layer's scores when the server runs
	// with -detect; absent otherwise, and from the federated reply
	// (scores are per-node state).
	Fraud *detect.Snapshot `json:"fraud,omitempty"`
	// Nodes and Degraded are set in the federated reply only: the nodes
	// whose reports it sums, and those whose report could not be
	// fetched.
	Nodes    []string `json:"nodes,omitempty"`
	Degraded []string `json:"degraded,omitempty"`
}

// renderBuf is one JSON render's working memory: the response body and
// the body of the render before it (jsonenc.Render), one scratch buffer
// — the dwell rows, which the aggregate encoder collects in the same
// lock hold as a campaign's rows and appends after all of them, then
// the flagged campaigns, which the fraud encoder appends after its rows
// — and the sum of the shards' Table 2 slices. Kept between renders, so
// a dashboard polling /report re-uses them instead of allocating (and
// the GC tracing) a Snapshot's worth of rows, maps and histogram copies
// per poll, and copies every campaign no event touched since its last
// poll from the previous body instead of encoding it again.
type renderBuf struct {
	render  jsonenc.Render
	scratch []byte
	cells   aggregate.SliceSum
}

// renderSlot is a handler's spare renderBuf: the one its last render
// used. It is held, not pooled: a sync.Pool drops its entries across
// collections and misses whenever a render ends on another P than the
// next one starts on, and each miss re-grows both bodies — megabytes of
// garbage at 5 000 campaigns, at moments that vary from run to run —
// and encodes every campaign. A render that finds the slot taken by a
// concurrent one uses a fresh buffer, which has no previous body to
// copy from, and drops it afterwards.
type renderSlot struct{ p atomic.Pointer[renderBuf] }

// maxPooledBytes bounds what the slot may keep between renders — both
// bodies and the scratch buffer, about two renders' worth at 5 000
// campaigns: a one-off report of a much larger state is not pinned.
const maxPooledBytes = 16 << 20

func (s *renderSlot) take() *renderBuf {
	if rb := s.p.Swap(nil); rb != nil {
		return rb
	}
	return new(renderBuf)
}

func (s *renderSlot) keep(rb *renderBuf) {
	if rb.render.Cap()+cap(rb.scratch) <= maxPooledBytes {
		s.p.CompareAndSwap(nil, rb)
	}
}

// appendReport renders the report into the next body of rb.render —
// byte for byte json.NewEncoder(w).Encode(ViewabilityReport{...}),
// trailing newline included — and returns it with the figures the
// handler annotates its span with. The sections are read in the order
// the fields are declared, each under its own locks only.
func (rb *renderBuf) appendReport(a *aggregate.Aggregator, d *detect.Detector, at time.Time, windows bool) (body []byte, rows, flagged, open int) {
	r := &rb.render
	b := append(r.Start(), `{"generated_at":`...)
	b = jsonenc.AppendTime(b, at)
	b = append(b, `,"campaigns":`...)
	b, rows = a.AppendSnapshotJSON(b, &rb.scratch, r)
	if a.SumSlices(&rb.cells); rb.cells.Len() > 0 { // omitempty
		b = append(b, `,"slices":`...)
		b = rb.cells.AppendJSON(b)
	}
	open = a.OpenImpressions()
	b = append(b, `,"open_impressions":`...)
	b = strconv.AppendInt(b, int64(open), 10)
	b = append(b, `,"evicted_impression_states":`...)
	b = strconv.AppendInt(b, a.Evicted(), 10)
	if windows {
		mark := len(b)
		b = append(b, `,"windows":`...)
		var n int
		if b, n = a.AppendWindowsJSON(b, r); n == 0 {
			b = b[:mark] // omitempty
		}
	}
	if d != nil {
		b = append(b, `,"fraud":`...)
		b, flagged = d.AppendSnapshotJSON(b, &rb.scratch, r)
	}
	return r.Finish(append(b, '}', '\n')), rows, flagged, open
}

// Prometheus renders a snapshot in Prometheus text exposition format
// (deterministic: the snapshot is already sorted).
func Prometheus(s aggregate.Snapshot) string {
	var b strings.Builder
	writeHeader := func(name, help, typ string) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	}

	type series struct {
		labels string
		value  string
	}
	families := []struct {
		name, help, typ string
		collect         func(r aggregate.Row, src string, c aggregate.SourceCounts) (string, bool)
	}{
		{"qtag_report_impressions", "Distinct impressions observed per campaign and format.", "gauge",
			func(r aggregate.Row, src string, _ aggregate.SourceCounts) (string, bool) {
				return strconv.FormatInt(r.Impressions, 10), src == ""
			}},
		{"qtag_report_served", "Impressions with a served event per campaign and format.", "gauge",
			func(r aggregate.Row, src string, _ aggregate.SourceCounts) (string, bool) {
				return strconv.FormatInt(r.Served, 10), src == ""
			}},
		{"qtag_report_measured", "Impressions a solution checked in on.", "gauge",
			func(_ aggregate.Row, src string, c aggregate.SourceCounts) (string, bool) {
				return strconv.FormatInt(c.Measured, 10), src != ""
			}},
		{"qtag_report_viewed", "Impressions classified viewed by a solution.", "gauge",
			func(_ aggregate.Row, src string, c aggregate.SourceCounts) (string, bool) {
				return strconv.FormatInt(c.Viewed, 10), src != ""
			}},
		{"qtag_report_not_viewed", "Impressions measured but not viewed.", "gauge",
			func(_ aggregate.Row, src string, c aggregate.SourceCounts) (string, bool) {
				return strconv.FormatInt(c.NotViewed, 10), src != ""
			}},
		{"qtag_report_not_measured", "Impressions a solution never checked in on.", "gauge",
			func(_ aggregate.Row, src string, c aggregate.SourceCounts) (string, bool) {
				return strconv.FormatInt(c.NotMeasured, 10), src != ""
			}},
		{"qtag_report_measured_rate", "Measured / served per solution.", "gauge",
			func(_ aggregate.Row, src string, c aggregate.SourceCounts) (string, bool) {
				return formatFloat(c.MeasuredRate), src != ""
			}},
		{"qtag_report_viewability_rate", "Viewed / measured per solution — the campaign viewability rate.", "gauge",
			func(_ aggregate.Row, src string, c aggregate.SourceCounts) (string, bool) {
				return formatFloat(c.ViewabilityRate), src != ""
			}},
	}
	for _, fam := range families {
		var out []series
		for _, r := range s.Rows {
			if v, ok := fam.collect(r, "", aggregate.SourceCounts{}); ok {
				out = append(out, series{labelSet("campaign", r.CampaignID, "format", r.Format), v})
			}
			for _, src := range sortedSources(r.Sources) {
				if v, ok := fam.collect(r, src, r.Sources[src]); ok {
					out = append(out, series{labelSet("campaign", r.CampaignID, "format", r.Format, "source", src), v})
				}
			}
		}
		if len(out) == 0 {
			continue
		}
		writeHeader(fam.name, fam.help, fam.typ)
		for _, s := range out {
			fmt.Fprintf(&b, "%s%s %s\n", fam.name, s.labels, s.value)
		}
	}

	if len(s.Dwell) > 0 {
		writeHeader("qtag_report_dwell_seconds", "In-view dwell per completed in-view/out-of-view cycle.", "histogram")
		for _, d := range s.Dwell {
			base := []string{"campaign", d.CampaignID, "source", d.Source}
			cum := int64(0)
			for i, c := range d.Dwell.Buckets {
				cum += c
				le := "+Inf"
				if i < len(d.Dwell.Bounds) {
					le = formatFloat(d.Dwell.Bounds[i])
				}
				fmt.Fprintf(&b, "qtag_report_dwell_seconds_bucket%s %d\n",
					labelSet(append(append([]string(nil), base...), "le", le)...), cum)
			}
			fmt.Fprintf(&b, "qtag_report_dwell_seconds_sum%s %s\n",
				labelSet(base...), formatFloat(time.Duration(d.Dwell.SumNs).Seconds()))
			fmt.Fprintf(&b, "qtag_report_dwell_seconds_count%s %d\n", labelSet(base...), d.Dwell.Count)
		}
	}
	return b.String()
}

// PrometheusDetect renders a detection snapshot as the qtag_detect_*
// per-row score families (deterministic: the snapshot is sorted). The
// detector's own throughput/eviction counters are registered on the
// process metrics registry instead; this covers the per-campaign view.
func PrometheusDetect(s detect.Snapshot) string {
	if len(s.Rows) == 0 {
		return ""
	}
	var b strings.Builder
	writeHeader := func(name, help, typ string) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	}

	writeHeader("qtag_detect_score", "Composite fraud score per campaign and solution (max of detector contributions).", "gauge")
	for _, r := range s.Rows {
		fmt.Fprintf(&b, "qtag_detect_score%s %s\n", labelSet("campaign", r.CampaignID, "source", r.Source), formatFloat(r.Score))
	}
	writeHeader("qtag_detect_flagged", "1 when the row's composite score is at or over the flag threshold with enough volume.", "gauge")
	for _, r := range s.Rows {
		v := "0"
		if r.Flagged {
			v = "1"
		}
		fmt.Fprintf(&b, "qtag_detect_flagged%s %s\n", labelSet("campaign", r.CampaignID, "source", r.Source), v)
	}
	writeHeader("qtag_detect_contribution", "Per-detector fraud score contribution.", "gauge")
	for _, r := range s.Rows {
		for _, det := range detect.Detectors {
			fmt.Fprintf(&b, "qtag_detect_contribution%s %s\n",
				labelSet("campaign", r.CampaignID, "source", r.Source, "detector", det), formatFloat(r.Contribs[det]))
		}
	}
	writeHeader("qtag_detect_row_events", "First-seen events scored per campaign and solution.", "gauge")
	for _, r := range s.Rows {
		fmt.Fprintf(&b, "qtag_detect_row_events%s %d\n", labelSet("campaign", r.CampaignID, "source", r.Source), r.Events)
	}
	writeHeader("qtag_detect_row_dups", "Duplicate submissions scored per campaign and solution.", "gauge")
	for _, r := range s.Rows {
		fmt.Fprintf(&b, "qtag_detect_row_dups%s %d\n", labelSet("campaign", r.CampaignID, "source", r.Source), r.Dups)
	}
	return b.String()
}

func sortedSources(m map[string]aggregate.SourceCounts) []string {
	out := make([]string, 0, len(m))
	for s := range m {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// labelSet renders {k="v",...} from alternating key/value arguments,
// escaping values per the exposition format.
func labelSet(kv ...string) string {
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(kv[i+1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabelValue(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Text renders the snapshot as the aligned plain-text table the cmd/
// tools print (qtag-replay -report): one line per campaign × format ×
// source, since the wire accepts any solution name, not just the two
// canonical ones.
func Text(s aggregate.Snapshot) string {
	rows := make([][]string, 0, len(s.Rows))
	for _, r := range s.Rows {
		format := r.Format
		if format == "" {
			format = "-"
		}
		for _, src := range sortedSources(r.Sources) {
			c := r.Sources[src]
			rows = append(rows, []string{
				r.CampaignID, format, src,
				fmt.Sprint(r.Impressions), fmt.Sprint(r.Served),
				fmt.Sprint(c.Viewed), fmt.Sprint(c.NotViewed), fmt.Sprint(c.NotMeasured),
				Percent(c.ViewabilityRate),
			})
		}
	}
	var b strings.Builder
	b.WriteString(Table(
		[]string{"Campaign", "Format", "Source", "Impressions", "Served", "Viewed", "Not viewed", "Not measured", "Viewability"},
		rows))
	if len(s.Dwell) > 0 {
		b.WriteString("\nin-view dwell (completed cycles):\n")
		for _, d := range s.Dwell {
			b.WriteString(fmt.Sprintf("  %-12s %-10s n=%-6d mean=%.2fs p50=%.2fs p90=%.2fs\n",
				d.CampaignID, d.Source, d.Dwell.Count,
				d.Dwell.MeanSeconds(), d.Dwell.Quantile(0.50), d.Dwell.Quantile(0.90)))
		}
	}
	return b.String()
}
