package aggregate

import (
	"cmp"
	"slices"
	"strings"

	"qtag/internal/beacon"
)

// slice is one site type × OS cell of a campaign: the paper's Table 2
// before the rates. An impression counts as served in the slice its
// served event names, and per solution as measured and viewed in the
// slices its first loaded and first in-view events name — the events
// that set the bits the rows count, so a campaign's slices sum to its
// rows. Slices never migrate: a tag stamps one Meta on every beacon of
// an impression, and where beacons disagree each count stays where its
// event put it.
type slice struct {
	siteType, os string // owned
	served       int64
	src          []sliceSrc // in first-report order
}

// sliceSrc is one solution's counts in a slice.
type sliceSrc struct {
	source           beacon.Source // owned (see beacon.Source.Owned)
	measured, viewed int64
}

// slice returns (creating, in (site type, OS) order, if needed) the
// campaign's slice for m's site type and OS, good until the next call.
// Caller holds the shard lock. A new slice clones the strings: they come
// from the event in hand.
func (c *campaign) slice(m beacon.Meta) *slice {
	key := [2]string{m.SiteType, m.OS}
	i, ok := slices.BinarySearchFunc(c.slices, key, func(s slice, k [2]string) int {
		return cmp.Or(strings.Compare(s.siteType, k[0]), strings.Compare(s.os, k[1]))
	})
	if !ok {
		c.slices = slices.Insert(c.slices, i, slice{siteType: strings.Clone(m.SiteType), os: strings.Clone(m.OS)})
	}
	return &c.slices[i]
}

// solution returns (creating if needed) the slice's counts for s, which
// must be owned.
func (s *slice) solution(src beacon.Source) *sliceSrc {
	for i := range s.src {
		if s.src[i].source == src {
			return &s.src[i]
		}
	}
	s.src = append(s.src, sliceSrc{source: src})
	return &s.src[len(s.src)-1]
}

// Counts are impressions as the paper counts them: Served, and per
// solution Measured (it checked in: a loaded beacon) and Viewed (it
// reported the impression in view). A solution that counted nothing has
// no entry.
type Counts struct {
	Served   int64
	Measured map[beacon.Source]int64
	Viewed   map[beacon.Source]int64
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
// impressions whose beacons named that site type and OS.
type Slice struct {
	SiteType, OS string
	Counts
}

// Slices returns the Table 2 slices of the given campaigns — of every
// campaign when none is given — summed across them, in (site type, OS)
// order. A campaign the aggregator has not seen adds nothing. Like
// Snapshot it takes the shard locks one at a time.
func (a *Aggregator) Slices(campaignIDs ...string) []Slice {
	acc := map[[2]string]*Slice{}
	add := func(c *campaign) {
		for i := range c.slices {
			s := &c.slices[i]
			out := acc[[2]string{s.siteType, s.os}]
			if out == nil {
				out = &Slice{SiteType: s.siteType, OS: s.os}
				acc[[2]string{s.siteType, s.os}] = out
			}
			out.Served += s.served
			for _, sc := range s.src {
				addTo(&out.Measured, sc.source, sc.measured)
				addTo(&out.Viewed, sc.source, sc.viewed)
			}
		}
	}
	if len(campaignIDs) == 0 {
		for i := range a.camps {
			cs := &a.camps[i]
			cs.mu.Lock()
			for _, c := range cs.camps {
				add(c)
			}
			cs.mu.Unlock()
		}
	} else {
		ids := slices.Clone(campaignIDs)
		slices.Sort(ids)
		for _, id := range slices.Compact(ids) {
			cs := a.shard(id)
			cs.mu.Lock()
			if c := cs.camps[id]; c != nil {
				add(c)
			}
			cs.mu.Unlock()
		}
	}
	out := make([]Slice, 0, len(acc))
	for _, s := range acc {
		out = append(out, *s)
	}
	slices.SortFunc(out, func(a, b Slice) int {
		return cmp.Or(strings.Compare(a.SiteType, b.SiteType), strings.Compare(a.OS, b.OS))
	})
	return out
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
