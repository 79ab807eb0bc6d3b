package aggregate

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"qtag/internal/beacon"
	"qtag/internal/jsonenc"
)

// slice is one site type × OS cell of Table 2 before the rates. In a
// campaign's SliceSum it is the campaign's: an impression counts as
// served in the slice its served event names, and per solution as
// measured and viewed in the slices its first loaded and first in-view
// events name — the events that set the bits the rows count, so a
// campaign's slices sum to its rows. Slices never migrate: a tag stamps
// one Meta on every beacon of an impression, and where beacons disagree
// each count stays where its event put it.
type slice struct {
	siteType, os string // owned
	served       int64
	src          []sliceSrc // by source name
}

// sliceSrc is one solution's counts in a slice.
type sliceSrc struct {
	source           beacon.Source // owned (see beacon.Source.Owned)
	measured, viewed int64
}

// SliceSum is Table 2 before the rates, summed over campaigns: its
// slices in (site type, OS) order, each with its solutions in name
// order, so the report encodes it as it stands. A campaign keeps its own
// slices in one; each campaign shard keeps one more, its campaigns'
// slices summed as fold credits them, so the sum over every campaign is
// a sum over the shards. It keeps no map, and a report render keeps one
// between polls, so once the cells are known a sum allocates nothing.
type SliceSum struct{ cells []slice }

// cell returns (creating, in order, if needed) the slice for a site type
// and OS, good until the next call. A new slice keeps copies of the
// strings unless they are owned already.
func (s *SliceSum) cell(siteType, os string, owned bool) *slice {
	i := sort.Search(len(s.cells), func(h int) bool {
		c := &s.cells[h]
		return c.siteType > siteType || c.siteType == siteType && c.os >= os
	})
	if i == len(s.cells) || s.cells[i].siteType != siteType || s.cells[i].os != os {
		// Take the spare slice past the end if there is one, so the
		// solutions of an earlier render's cell are reused.
		n := len(s.cells)
		if n < cap(s.cells) {
			s.cells = s.cells[:n+1]
		} else {
			s.cells = append(s.cells, slice{})
		}
		spare := s.cells[n].src[:0]
		copy(s.cells[i+1:], s.cells[i:n])
		if !owned {
			siteType, os = strings.Clone(siteType), strings.Clone(os)
		}
		s.cells[i] = slice{siteType: siteType, os: os, src: spare}
	}
	return &s.cells[i]
}

// solution returns (creating, in name order, if needed) the slice's
// counts for src, which must be owned.
func (c *slice) solution(src beacon.Source) *sliceSrc {
	for i := range c.src {
		if c.src[i].source == src {
			return &c.src[i]
		}
	}
	i := 0
	for i < len(c.src) && c.src[i].source < src {
		i++
	}
	c.src = slices.Insert(c.src, i, sliceSrc{source: src})
	return &c.src[i]
}

// add adds o's slices to s.
func (s *SliceSum) add(o *SliceSum) {
	for i := range o.cells {
		sl := &o.cells[i]
		cell := s.cell(sl.siteType, sl.os, true)
		cell.served += sl.served
		for k := range sl.src {
			dst := cell.solution(sl.src[k].source)
			dst.measured += sl.src[k].measured
			dst.viewed += sl.src[k].viewed
		}
	}
}

// Len is the number of slices.
func (s *SliceSum) Len() int { return len(s.cells) }

// slices returns the sum as Slices returns it.
func (s *SliceSum) slices() []Slice {
	out := make([]Slice, len(s.cells))
	for i, c := range s.cells {
		out[i] = Slice{SiteType: c.siteType, OS: c.os, Counts: Counts{Served: c.served}}
		for _, sc := range c.src {
			addTo(&out[i].Measured, sc.source, sc.measured)
			addTo(&out[i].Viewed, sc.source, sc.viewed)
		}
	}
	return out
}

// AppendJSON appends the sum as encoding/json encodes the []Slice of
// the same cells.
func (s *SliceSum) AppendJSON(b []byte) []byte {
	b = append(b, '[')
	for i := range s.cells {
		c := &s.cells[i]
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"site_type":`...)
		b = jsonenc.AppendString(b, c.siteType)
		b = append(b, `,"os":`...)
		b = jsonenc.AppendString(b, c.os)
		b = append(b, `,"served":`...)
		b = strconv.AppendInt(b, c.served, 10)
		b = appendBySource(b, `,"measured":{`, c.src, false)
		b = appendBySource(b, `,"viewed":{`, c.src, true)
		b = append(b, '}')
	}
	return append(b, ']')
}

// appendBySource appends key and the solutions' non-zero measured (or
// viewed) counts as a Counts map encodes — nothing, as omitempty omits
// an empty map, when all are 0.
func appendBySource(b []byte, key string, src []sliceSrc, viewed bool) []byte {
	n := 0
	for i := range src {
		v := src[i].measured
		if viewed {
			v = src[i].viewed
		}
		if v == 0 {
			continue
		}
		if n == 0 {
			b = append(b, key...)
		} else {
			b = append(b, ',')
		}
		b = jsonenc.AppendString(b, string(src[i].source))
		b = append(b, ':')
		b = strconv.AppendInt(b, v, 10)
		n++
	}
	if n > 0 {
		b = append(b, '}')
	}
	return b
}

// Counts are impressions as the paper counts them: Served, and per
// solution Measured (it checked in: a loaded beacon) and Viewed (it
// reported the impression in view). A solution that counted nothing has
// no entry.
type Counts struct {
	Served   int64                   `json:"served"`
	Measured map[beacon.Source]int64 `json:"measured,omitempty"`
	Viewed   map[beacon.Source]int64 `json:"viewed,omitempty"`
}

// Add adds o to c.
func (c *Counts) Add(o Counts) {
	c.Served += o.Served
	for s, n := range o.Measured {
		addTo(&c.Measured, s, n)
	}
	for s, n := range o.Viewed {
		addTo(&c.Viewed, s, n)
	}
}

func addTo(m *map[beacon.Source]int64, s beacon.Source, n int64) {
	if n == 0 {
		return
	}
	if *m == nil {
		*m = make(map[beacon.Source]int64)
	}
	(*m)[s] += n
}

// MeasuredRate is s's measured / served, 0 when nothing was served.
func (c Counts) MeasuredRate(s beacon.Source) float64 {
	if c.Served == 0 {
		return 0
	}
	return float64(c.Measured[s]) / float64(c.Served)
}

// ViewabilityRate is s's viewed / measured, 0 when s measured nothing.
func (c Counts) ViewabilityRate(s beacon.Source) float64 {
	if c.Measured[s] == 0 {
		return 0
	}
	return float64(c.Viewed[s]) / float64(c.Measured[s])
}

// Slice is one site type × OS cell of Table 2: the counts of the
// impressions whose beacons named that site type and OS. It is also an
// element of GET /report's "slices", where the cell of impressions that
// named neither is the one with both strings empty.
type Slice struct {
	SiteType string `json:"site_type"`
	OS       string `json:"os"`
	Counts
}

// SumSlices sets sum to every campaign's Table 2 slices summed — what
// Slices() returns — from the shards' running sums, taking the shard
// locks one at a time: its cost is shards × slices, not campaigns. Under
// ingest it is consistent per shard, and after quiescence exact.
func (a *Aggregator) SumSlices(sum *SliceSum) {
	sum.cells = sum.cells[:0]
	for i := range a.camps {
		cs := &a.camps[i]
		cs.mu.Lock()
		sum.add(&cs.slices)
		cs.mu.Unlock()
	}
}

// Slices returns the Table 2 slices of the given campaigns — of every
// campaign when none is given — summed across them, in (site type, OS)
// order. A campaign the aggregator has not seen adds nothing. Like
// Snapshot it takes the shard locks one at a time.
func (a *Aggregator) Slices(campaignIDs ...string) []Slice {
	var sum SliceSum
	if len(campaignIDs) == 0 {
		a.SumSlices(&sum)
		return sum.slices()
	}
	ids := slices.Clone(campaignIDs)
	slices.Sort(ids)
	for _, id := range slices.Compact(ids) {
		cs := a.shard(id)
		cs.mu.Lock()
		if c := cs.camps[id]; c != nil {
			sum.add(&c.slices)
		}
		cs.mu.Unlock()
	}
	return sum.slices()
}

// Totals is Slices summed: the given campaigns' counts — every
// campaign's when none is given — whatever their site type and OS. They
// equal the campaigns' report rows summed over formats.
func (a *Aggregator) Totals(campaignIDs ...string) Counts {
	var t Counts
	for _, s := range a.Slices(campaignIDs...) {
		t.Add(s.Counts)
	}
	return t
}

// Table2Cell is one row of the paper's Table 2: the measured rates of a
// site type × OS slice of mobile impressions.
type Table2Cell struct {
	SiteType string
	OS       string
	Served   int
	// QTag and Commercial are the measured rates in this slice.
	QTag       float64
	Commercial float64
}

// String implements fmt.Stringer.
func (c Table2Cell) String() string {
	return fmt.Sprintf("%-8s %-8s qtag %.1f%%  commercial %.1f%% (n=%d)",
		c.SiteType, c.OS, c.QTag*100, c.Commercial*100, c.Served)
}

// Table2 reads the paper's Table 2 off slices (an aggregator's, or a
// GET /report's): its four cells in the paper's order — app/Android,
// app/iOS, browser/Android, browser/iOS — each zero when no slice names
// it. The paper computes the table on the campaigns instrumented with
// both tags, so slice those when only some carry the commercial one.
func Table2(sl []Slice) []Table2Cell {
	cells := make([]Table2Cell, 0, 4)
	for _, site := range []string{"app", "browser"} {
		for _, os := range []string{"Android", "iOS"} {
			c := Table2Cell{SiteType: site, OS: os}
			for _, s := range sl {
				if s.SiteType == site && s.OS == os {
					c.Served = int(s.Served)
					c.QTag = s.MeasuredRate(beacon.SourceQTag)
					c.Commercial = s.MeasuredRate(beacon.SourceCommercial)
				}
			}
			cells = append(cells, c)
		}
	}
	return cells
}
