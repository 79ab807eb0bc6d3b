package detect

import (
	"slices"
	"strconv"
	"strings"

	"qtag/internal/aggregate"
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
// section of GET /report: the aggregator's walk of its directory
// (AppendScoresJSON) hands each campaign's rows, kept in source order,
// to appendRows, which scores and appends them straight into dst — no
// ScoreRow, no contributions map, no sort — unless the walk copies them
// from r's previous body. The flagged campaigns collect in *flagged, a
// scratch buffer. Under ingest the result is consistent per campaign — a
// late served event's un-count lands on all of a campaign's rows or on
// none — and after quiescence it is exact.
func (d *Detector) AppendSnapshotJSON(dst []byte, flagged *[]byte, r *jsonenc.Render) ([]byte, int) {
	dst = append(dst, `{"rows":[`...)
	dst, rows, nflagged := d.agg.AppendScoresJSON(dst, flagged, r, d.appendRows)
	if rows == 0 {
		dst = append(dst[:len(dst)-1], `null`...) // the nil slice of an empty Snapshot
	} else {
		dst = append(dst, ']')
	}
	if nflagged > 0 { // omitempty
		dst = append(dst, `,"flagged_campaigns":[`...)
		dst = append(append(dst, *flagged...), ']')
	}
	return append(dst, '}'), nflagged
}

// appendRows scores and appends the rows of campaign id, comma-separated,
// and reports whether one of them is flagged. Caller holds the shard
// lock.
func (d *Detector) appendRows(dst []byte, id string, rows []*aggregate.Score) ([]byte, bool) {
	hit := false
	for j, r := range rows {
		co, composite := d.contribs(r)
		flag := d.flags(r, composite)
		hit = hit || flag
		if j > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"campaign_id":`...)
		dst = jsonenc.AppendString(dst, id)
		dst = append(dst, `,"source":`...)
		dst = jsonenc.AppendString(dst, r.Source)
		dst = append(dst, `,"events":`...)
		dst = strconv.AppendInt(dst, r.Events, 10)
		dst = append(dst, `,"dups":`...)
		dst = strconv.AppendInt(dst, r.Dups, 10)
		dst = append(dst, `,"impressions":`...)
		dst = strconv.AppendInt(dst, r.Impressions, 10)
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
		if v := violations(r); v != (Violations{}) { // omitempty
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
