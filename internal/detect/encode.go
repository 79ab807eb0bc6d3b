package detect

import (
	"slices"
	"strconv"
	"strings"

	"qtag/internal/jsonenc"
)

// contribKeys are the ScoreRow.Contribs map keys as encoding/json
// writes them — in byte order of the name, quoted, with their colon —
// each with its index into contribs' result.
var contribKeys = func() (keys [5]struct {
	json string
	i    int
}) {
	order := []int{0, 1, 2, 3, 4}
	slices.SortFunc(order, func(a, b int) int { return strings.Compare(Detectors[a], Detectors[b]) })
	for n, i := range order {
		keys[n].json, keys[n].i = `"`+Detectors[i]+`":`, i
	}
	return keys
}()

// AppendSnapshotJSON appends the JSON encoding of d.Snapshot() to dst —
// byte for byte what encoding/json makes of it — and returns it with the
// number of flagged campaigns. It is the fraud section of GET /report:
// the same walk as Snapshot, one row-shard lock at a time, but each row
// is scored and encoded into fr's arena under the lock, with no
// ScoreRow, no contributions map and no sort of anything wider than
// fr's index. fr is scratch (reset here).
func (d *Detector) AppendSnapshotJSON(dst []byte, fr *jsonenc.Frags) ([]byte, int) {
	fr.Reset()
	var flaggedIDs []string // row keys' campaigns: owned strings, safe past the lock
	for i := range d.camps {
		cs := &d.camps[i]
		cs.mu.Lock()
		for k, r := range cs.rows {
			c, composite := d.contribs(r)
			flag := d.flags(r, composite)
			if flag {
				flaggedIDs = append(flaggedIDs, k.Campaign)
			}
			off := len(fr.Buf)
			b := append(fr.Buf, `{"campaign_id":`...)
			b = jsonenc.AppendString(b, k.Campaign)
			b = append(b, `,"source":`...)
			b = jsonenc.AppendString(b, k.Source)
			b = append(b, `,"events":`...)
			b = strconv.AppendInt(b, r.events, 10)
			b = append(b, `,"dups":`...)
			b = strconv.AppendInt(b, r.dups, 10)
			b = append(b, `,"impressions":`...)
			b = strconv.AppendInt(b, r.impressions, 10)
			b = append(b, `,"score":`...)
			b = jsonenc.AppendFloat(b, composite)
			b = append(b, `,"flagged":`...)
			b = strconv.AppendBool(b, flag)
			b = append(b, `,"contributions":{`...)
			for n, key := range contribKeys {
				if n > 0 {
					b = append(b, ',')
				}
				b = append(b, key.json...)
				b = jsonenc.AppendFloat(b, c[key.i])
			}
			fr.Buf = append(b, `}}`...)
			fr.Add(k.Campaign, k.Source, off)
		}
		cs.mu.Unlock()
	}
	dst = append(dst, `{"rows":`...)
	dst = fr.AppendArray(dst)
	slices.Sort(flaggedIDs)
	flaggedIDs = slices.Compact(flaggedIDs)
	if len(flaggedIDs) > 0 {
		dst = append(dst, `,"flagged_campaigns":[`...)
		for i, id := range flaggedIDs {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = jsonenc.AppendString(dst, id)
		}
		dst = append(dst, ']')
	}
	return append(dst, '}'), len(flaggedIDs)
}
