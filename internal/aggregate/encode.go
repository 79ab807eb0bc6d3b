package aggregate

import (
	"slices"
	"strconv"
	"time"

	"qtag/internal/beacon"
	"qtag/internal/jsonenc"
)

// The report encoders: GET /report's JSON, appended straight from the
// accumulators. Each emits byte for byte what encoding/json makes of the
// matching snapshot type (Snapshot, []WindowSnapshot), which stays the
// reference the property tests in internal/report compare against — so
// a field added to one of those types must be added here too.
//
// They walk exactly as Snapshot does — one campaign-shard lock at a
// time, never two — but where Snapshot copies each row into a map-
// bearing struct and sorts the structs, these append the row's finished
// JSON into a caller-owned arena while the lock is held and sort a small
// index of the fragments afterwards, outside any lock.

// AppendSnapshotJSON appends the JSON encoding of a.Snapshot() to dst
// and returns it with the number of campaign rows. rows and dwell are
// scratch (reset here, reusable after); the same consistency holds as
// for Snapshot: per campaign shard under ingest, exact after quiescence.
func (a *Aggregator) AppendSnapshotJSON(dst []byte, rows, dwell *jsonenc.Frags) ([]byte, int) {
	rows.Reset()
	dwell.Reset()
	for i := range a.camps {
		cs := &a.camps[i]
		cs.mu.Lock()
		for k, r := range cs.rows {
			off := len(rows.Buf)
			rows.Buf = r.appendJSON(rows.Buf)
			rows.Add(k.Campaign, k.Format, off)
		}
		for k, h := range cs.dwell {
			off := len(dwell.Buf)
			dwell.Buf = h.appendRowJSON(dwell.Buf, k, a.boundsJSON)
			dwell.Add(k.Campaign, k.Source, off)
		}
		cs.mu.Unlock()
	}
	dst = append(dst, `{"rows":`...)
	dst = rows.AppendArray(dst)
	if dwell.Len() > 0 { // omitempty
		dst = append(dst, `,"dwell":`...)
		dst = dwell.AppendArray(dst)
	}
	return append(dst, '}'), rows.Len()
}

// appendJSON appends the row as its Row encodes. Caller holds the shard
// lock.
func (r *row) appendJSON(b []byte) []byte {
	b = append(b, `{"campaign_id":`...)
	b = jsonenc.AppendString(b, r.key.Campaign)
	if r.key.Format != "" {
		b = append(b, `,"format":`...)
		b = jsonenc.AppendString(b, r.key.Format)
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
func (h *DwellHist) appendRowJSON(b []byte, k dwellKey, bounds []byte) []byte {
	b = append(b, `{"campaign_id":`...)
	b = jsonenc.AppendString(b, k.Campaign)
	b = append(b, `,"source":`...)
	b = jsonenc.AppendString(b, k.Source)
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

// AppendWindowsJSON appends the JSON encoding of a.Windows() to dst and
// returns it with the number of windows (none: the caller's omitempty).
// fr is scratch. Fragments are appended under winMu — which every
// Observe takes — and sorted after it is released.
func (a *Aggregator) AppendWindowsJSON(dst []byte, fr *jsonenc.Frags) ([]byte, int) {
	type span struct {
		start    time.Time
		from, to int // the window's campaigns in fr's index
	}
	fr.Reset()
	a.winMu.Lock()
	spans := make([]span, 0, len(a.windows.windows))
	for _, w := range a.windows.windows {
		from := fr.Len()
		for id, c := range w.camps {
			off := len(fr.Buf)
			fr.Buf = jsonenc.AppendString(fr.Buf, id)
			fr.Buf = append(fr.Buf, `:{"events":`...)
			fr.Buf = strconv.AppendInt(fr.Buf, c.Events, 10)
			fr.Buf = append(fr.Buf, `,"impressions":`...)
			fr.Buf = strconv.AppendInt(fr.Buf, c.Impressions, 10)
			fr.Buf = append(fr.Buf, `,"viewed":`...)
			fr.Buf = strconv.AppendInt(fr.Buf, c.Viewed, 10)
			fr.Buf = append(fr.Buf, '}')
			fr.Add(id, "", off)
		}
		spans = append(spans, span{w.start, from, fr.Len()})
	}
	a.winMu.Unlock()

	slices.SortFunc(spans, func(x, y span) int { return x.start.Compare(y.start) })
	dst = append(dst, '[')
	for i, s := range spans {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"start":`...)
		dst = jsonenc.AppendTime(dst, s.start)
		dst = append(dst, `,"campaigns":{`...)
		dst = fr.AppendSorted(dst, s.from, s.to)
		dst = append(dst, `}}`...)
	}
	return append(dst, ']'), len(spans)
}
