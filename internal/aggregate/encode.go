package aggregate

import (
	"slices"
	"strconv"

	"qtag/internal/beacon"
	"qtag/internal/jsonenc"
)

// The report encoders: GET /report's JSON, appended straight from the
// accumulators. Each emits byte for byte what encoding/json makes of the
// matching snapshot type (Snapshot, []WindowSnapshot), which stays the
// reference the property tests in internal/report compare against — so
// a field added to one of those types must be added here too.
//
// Where Snapshot copies each row into a map-bearing struct and sorts the
// structs, these walk the campaigns in the order the report lists them —
// the directory, a campaign's rows and its histograms are kept in key
// order — and append each row's JSON into the body under its lock. A
// record no event has written since the render before copies its bytes
// from that render's body instead (jsonenc.Span): between two polls of a
// running campaign set most campaigns are untouched.

// AppendSnapshotJSON appends the JSON encoding of a.Snapshot() to dst,
// the body r is writing, and returns it with the number of campaign
// rows. It takes each campaign's shard lock once, appending its rows to
// dst and its dwell rows to *dwell, a scratch buffer (reset here) that
// follows the rows from r's mark. A campaign no event has touched since
// r's previous render is copied from that body, rows and dwell rows
// alike; the others are encoded. Under ingest the result is consistent
// per campaign — a migrated impression is on one row, never two — and
// after quiescence exact.
func (a *Aggregator) AppendSnapshotJSON(dst []byte, dwell *[]byte, r *jsonenc.Render) ([]byte, int) {
	a.walkMu.Lock()
	defer a.walkMu.Unlock()
	dst = append(dst, `{"rows":[`...)
	dw, rows := (*dwell)[:0], 0
	for _, c := range a.dir.Order() {
		cs := a.shard(c.id)
		cs.mu.Lock()
		if rows > 0 && len(c.rows) > 0 {
			dst = append(dst, ',')
		}
		if len(dw) > 0 && len(c.dwell) > 0 {
			dw = append(dw, ',')
		}
		lo, dlo := len(dst), len(dw)
		var ok bool
		if dst, ok = c.at.Copy(dst, r); ok {
			dw = append(dw, r.PrevMarked(c.dwellLo, c.dwellHi)...)
		} else {
			for i, rw := range c.rows {
				if i > 0 {
					dst = append(dst, ',')
				}
				dst = rw.appendJSON(dst, c.id)
			}
			for i, d := range c.dwell {
				if i > 0 {
					dw = append(dw, ',')
				}
				dw = d.h.appendRowJSON(dw, c.id, d.source, a.boundsJSON)
			}
		}
		c.at.Wrote(r, lo, len(dst))
		c.dwellLo, c.dwellHi = dlo, len(dw)
		rows += len(c.rows)
		cs.mu.Unlock()
	}
	if rows == 0 {
		dst = append(dst[:len(dst)-1], `null`...) // the nil slice of an empty Snapshot
	} else {
		dst = append(dst, ']')
	}
	*dwell = dw
	if len(dw) > 0 { // omitempty
		dst = append(dst, `,"dwell":[`...)
		r.Mark(len(dst))
		dst = append(append(dst, dw...), ']')
	}
	return append(dst, '}'), rows
}

// appendJSON appends the row of campaign as its Row encodes. Caller
// holds the shard lock.
func (r *row) appendJSON(b []byte, campaign string) []byte {
	b = append(b, `{"campaign_id":`...)
	b = jsonenc.AppendString(b, campaign)
	if r.format != "" {
		b = append(b, `,"format":`...)
		b = jsonenc.AppendString(b, r.format)
	}
	b = append(b, `,"impressions":`...)
	b = strconv.AppendInt(b, r.impressions, 10)
	b = append(b, `,"served":`...)
	b = strconv.AppendInt(b, r.served, 10)
	b = append(b, `,"sources":{`...)

	// encoding/json writes a map's keys in byte order: the two canonical
	// solutions are already in it, and a third is rare enough to sort for.
	var buf [4]beacon.Source
	names := append(buf[:0], beacon.SourceCommercial, beacon.SourceQTag)
	for i := range r.src {
		if s := r.src[i].source; !canonical(s) {
			names = append(names, s)
		}
	}
	if len(names) > 2 {
		slices.Sort(names)
	}
	for i, s := range names {
		if i > 0 {
			b = append(b, ',')
		}
		b = jsonenc.AppendString(b, string(s))
		c := exportSource(r, r.find(s))
		b = append(b, `:{"measured":`...)
		b = strconv.AppendInt(b, c.Measured, 10)
		b = append(b, `,"viewed":`...)
		b = strconv.AppendInt(b, c.Viewed, 10)
		b = append(b, `,"not_viewed":`...)
		b = strconv.AppendInt(b, c.NotViewed, 10)
		b = append(b, `,"not_measured":`...)
		b = strconv.AppendInt(b, c.NotMeasured, 10)
		b = append(b, `,"measured_rate":`...)
		b = jsonenc.AppendFloat(b, c.MeasuredRate)
		b = append(b, `,"viewability_rate":`...)
		b = jsonenc.AppendFloat(b, c.ViewabilityRate)
		b = append(b, '}')
	}
	return append(b, `}}`...)
}

// appendRowJSON appends the histogram as its DwellRow encodes; bounds is
// the aggregator's pre-encoded copy of h.bounds.
func (h *DwellHist) appendRowJSON(b []byte, campaign, source string, bounds []byte) []byte {
	b = append(b, `{"campaign_id":`...)
	b = jsonenc.AppendString(b, campaign)
	b = append(b, `,"source":`...)
	b = jsonenc.AppendString(b, source)
	h.mu.Lock()
	b = append(b, `,"dwell":{"count":`...)
	b = strconv.AppendInt(b, h.n, 10)
	b = append(b, `,"sum_ns":`...)
	b = strconv.AppendInt(b, h.sumNs, 10)
	b = append(b, `,"buckets":[`...)
	for i, c := range h.counts {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, c, 10)
	}
	h.mu.Unlock()
	b = append(b, `],"bounds":`...)
	b = append(b, bounds...)
	return append(b, `}}`...)
}

// appendBoundsJSON encodes dwell bounds as DwellSnapshot.Bounds does: an
// array, or null when there are none (Snapshot's copy of an empty slice
// is a nil one).
func appendBoundsJSON(b []byte, bounds []float64) []byte {
	if len(bounds) == 0 {
		return append(b, `null`...)
	}
	b = append(b, '[')
	for i, f := range bounds {
		if i > 0 {
			b = append(b, ',')
		}
		b = jsonenc.AppendFloat(b, f)
	}
	return append(b, ']')
}

// AppendWindowsJSON appends the JSON encoding of a.Windows() to dst, the
// body r is writing, and returns it with the number of windows (none:
// the caller's omitempty). It holds winMu — which every Observe takes —
// while it appends: the windows are kept oldest first and each window's
// campaigns in id order, and a window's campaign that no event has
// touched since r's previous render is copied from that body.
func (a *Aggregator) AppendWindowsJSON(dst []byte, r *jsonenc.Render) ([]byte, int) {
	a.winMu.Lock()
	defer a.winMu.Unlock()
	dst = append(dst, '[')
	for i, w := range a.windows.windows {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"start":`...)
		dst = jsonenc.AppendTime(dst, w.start)
		dst = append(dst, `,"campaigns":{`...)
		for j, c := range w.dir.Order() {
			if j > 0 {
				dst = append(dst, ',')
			}
			lo := len(dst)
			var ok bool
			if dst, ok = c.at.Copy(dst, r); !ok {
				dst = jsonenc.AppendString(dst, c.id)
				dst = append(dst, `:{"events":`...)
				dst = strconv.AppendInt(dst, c.Events, 10)
				dst = append(dst, `,"impressions":`...)
				dst = strconv.AppendInt(dst, c.Impressions, 10)
				dst = append(dst, `,"viewed":`...)
				dst = strconv.AppendInt(dst, c.Viewed, 10)
				dst = append(dst, '}')
			}
			c.at.Wrote(r, lo, len(dst))
		}
		dst = append(dst, `}}`...)
	}
	return append(dst, ']'), len(a.windows.windows)
}
