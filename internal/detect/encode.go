package detect

import (
	"slices"
	"strconv"
	"strings"

	"qtag/internal/jsonenc"
)

// contribOrder is contribs' indices in the byte order of the detector
// names: the order encoding/json writes ScoreRow.Contribs in.
var contribOrder = func() []int {
	order := []int{0, 1, 2, 3, 4}
	slices.SortFunc(order, func(a, b int) int { return strings.Compare(Detectors[a], Detectors[b]) })
	return order
}()

// AppendSnapshotJSON appends the JSON encoding of d.Snapshot() to dst —
// byte for byte what encoding/json makes of it — the body r is writing,
// and returns it with the number of flagged campaigns. It is the fraud
// section of GET /report: a walk of the campaign directory that takes
// each campaign's shard lock once and scores and appends its rows, kept
// in source order, straight into dst — no ScoreRow, no contributions
// map, no sort — or, for a campaign no event or duplicate has touched
// since r's previous render, copies them from that body. The flagged
// campaigns collect in *flagged, a scratch buffer (reset here). Under
// ingest the result is consistent per campaign — a late served event's
// un-count lands on all of a campaign's rows or on none — and after
// quiescence it is exact.
func (d *Detector) AppendSnapshotJSON(dst []byte, flagged *[]byte, r *jsonenc.Render) ([]byte, int) {
	d.walkMu.Lock()
	defer d.walkMu.Unlock()
	dst = append(dst, `{"rows":[`...)
	fl, rows, nflagged := (*flagged)[:0], 0, 0
	for _, c := range d.dir.Order() {
		cs := d.shard(c.id)
		cs.mu.Lock()
		if rows > 0 && len(c.rows) > 0 {
			dst = append(dst, ',')
		}
		lo := len(dst)
		var ok bool
		if dst, ok = c.at.Copy(dst, r); !ok {
			dst, c.flagged = d.appendRows(dst, c)
		}
		c.at.Wrote(r, lo, len(dst))
		rows += len(c.rows)
		hit := c.flagged
		cs.mu.Unlock()
		if hit {
			if nflagged > 0 {
				fl = append(fl, ',')
			}
			fl = jsonenc.AppendString(fl, c.id)
			nflagged++
		}
	}
	if rows == 0 {
		dst = append(dst[:len(dst)-1], `null`...) // the nil slice of an empty Snapshot
	} else {
		dst = append(dst, ']')
	}
	*flagged = fl
	if nflagged > 0 { // omitempty
		dst = append(dst, `,"flagged_campaigns":[`...)
		dst = append(append(dst, fl...), ']')
	}
	return append(dst, '}'), nflagged
}

// appendRows scores and appends a campaign's rows, comma-separated, and
// reports whether one of them is flagged. Caller holds the shard lock.
func (d *Detector) appendRows(dst []byte, c *campaign) ([]byte, bool) {
	hit := false
	for j, r := range c.rows {
		co, composite := d.contribs(r)
		flag := d.flags(r, composite)
		hit = hit || flag
		if j > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"campaign_id":`...)
		dst = jsonenc.AppendString(dst, c.id)
		dst = append(dst, `,"source":`...)
		dst = jsonenc.AppendString(dst, r.source)
		dst = append(dst, `,"events":`...)
		dst = strconv.AppendInt(dst, r.events, 10)
		dst = append(dst, `,"dups":`...)
		dst = strconv.AppendInt(dst, r.dups, 10)
		dst = append(dst, `,"impressions":`...)
		dst = strconv.AppendInt(dst, r.impressions, 10)
		dst = append(dst, `,"score":`...)
		dst = jsonenc.AppendFloat(dst, composite)
		dst = append(dst, `,"flagged":`...)
		dst = strconv.AppendBool(dst, flag)
		dst = append(dst, `,"contributions":{`...)
		for n, i := range contribOrder {
			if n > 0 {
				dst = append(dst, ',')
			}
			dst = append(append(append(dst, '"'), Detectors[i]...), `":`...)
			dst = jsonenc.AppendFloat(dst, co[i])
		}
		dst = append(dst, '}')
		if v := r.violations(); v != (Violations{}) { // omitempty
			sep := `,"violations":{"`
			for i, n := range v.counts() {
				dst = strconv.AppendInt(append(append(append(dst, sep...), violationNames[i]...), `":`...), n, 10)
				sep = `,"`
			}
			dst = append(dst, '}')
		}
		dst = append(dst, '}')
	}
	return dst, hit
}
