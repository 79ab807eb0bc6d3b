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
// byte for byte what encoding/json makes of it — and returns it with the
// number of flagged campaigns. It is the fraud section of GET /report: a
// walk of the campaign directory that takes each campaign's shard lock
// once and scores and appends its rows, kept in source order, straight
// into dst — no ScoreRow, no contributions map, no sort. The flagged
// campaigns collect in *flagged, a scratch buffer (reset here). Under
// ingest the result is consistent per campaign — a late served event's
// un-count lands on all of a campaign's rows or on none — and after
// quiescence it is exact.
func (d *Detector) AppendSnapshotJSON(dst []byte, flagged *[]byte) ([]byte, int) {
	d.walkMu.Lock()
	defer d.walkMu.Unlock()
	dst = append(dst, `{"rows":[`...)
	fl, rows, nflagged := (*flagged)[:0], 0, 0
	for _, c := range d.dir.Order() {
		cs := d.shard(c.id)
		cs.mu.Lock()
		hit := false
		for _, r := range c.rows {
			co, composite := d.contribs(r)
			flag := d.flags(r, composite)
			hit = hit || flag
			if rows > 0 {
				dst = append(dst, ',')
			}
			rows++
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
			dst = append(dst, `}}`...)
		}
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
