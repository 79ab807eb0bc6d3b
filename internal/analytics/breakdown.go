package analytics

import (
	"fmt"
	"math"
	"sort"
	"time"

	"qtag/internal/beacon"
)

// Dimension selects an attribute to break measurement rates down by.
type Dimension int

// Breakdown dimensions.
const (
	// ByExchange groups by the ad exchange that carried the impression
	// (the §5 dataset spans eight exchanges).
	ByExchange Dimension = iota
	// ByCountry groups by the campaign's target country.
	ByCountry
	// ByOS groups by operating system.
	ByOS
	// BySiteType groups by browser vs in-app webview.
	BySiteType
	// ByAdSize groups by creative size (300×250 vs 320×50 in §5).
	ByAdSize
)

// String implements fmt.Stringer.
func (d Dimension) String() string {
	switch d {
	case ByExchange:
		return "exchange"
	case ByCountry:
		return "country"
	case ByOS:
		return "os"
	case BySiteType:
		return "site-type"
	case ByAdSize:
		return "ad-size"
	default:
		return fmt.Sprintf("Dimension(%d)", int(d))
	}
}

func (d Dimension) keyOf(k beacon.CounterKey) (string, bool) {
	switch d {
	case ByExchange:
		return k.Exchange, k.Exchange != ""
	case ByCountry:
		return k.Country, k.Country != ""
	case ByOS:
		return k.OS, k.OS != ""
	case BySiteType:
		return k.SiteType, k.SiteType != ""
	default:
		return "", false
	}
}

func (d Dimension) keyOfEvent(e beacon.Event) (string, bool) {
	switch d {
	case ByExchange:
		return e.Meta.Exchange, e.Meta.Exchange != ""
	case ByCountry:
		return e.Meta.Country, e.Meta.Country != ""
	case ByOS:
		return e.Meta.OS, e.Meta.OS != ""
	case BySiteType:
		return e.Meta.SiteType, e.Meta.SiteType != ""
	case ByAdSize:
		return e.Meta.AdSize, e.Meta.AdSize != ""
	default:
		return "", false
	}
}

// SliceRates is one group of a dimensional breakdown.
type SliceRates struct {
	Key        string
	Served     int
	QTag       float64 // measured rate
	Commercial float64 // measured rate
	QTagView   float64 // viewability rate of Q-Tag-measured impressions
}

// BreakdownBy computes measured rates grouped by a counter-backed
// dimension (exchange, country, OS or site type), sorted by key. ByAdSize
// is event-backed and must go through TimeSeries/event scans; it returns
// nil here.
func BreakdownBy(store *beacon.Store, dim Dimension) []SliceRates {
	if dim == ByAdSize {
		return breakdownFromEvents(store, dim)
	}
	acc := map[string]*sliceCounts{}
	for k, n := range store.Counters() {
		key, ok := dim.keyOf(k)
		if !ok {
			continue
		}
		c := acc[key]
		if c == nil {
			c = &sliceCounts{}
			acc[key] = c
		}
		switch {
		case k.Type == beacon.EventServed:
			c.served += n
		case k.Type == beacon.EventLoaded && k.Source == beacon.SourceQTag:
			c.qtag += n
		case k.Type == beacon.EventLoaded && k.Source == beacon.SourceCommercial:
			c.comm += n
		case k.Type == beacon.EventInView && k.Source == beacon.SourceQTag:
			c.qview += n
		}
	}
	return finishSlices(acc)
}

func breakdownFromEvents(store *beacon.Store, dim Dimension) []SliceRates {
	acc := map[string]*sliceCounts{}
	for _, e := range store.Events() {
		key, ok := dim.keyOfEvent(e)
		if !ok {
			continue
		}
		c := acc[key]
		if c == nil {
			c = &sliceCounts{}
			acc[key] = c
		}
		switch {
		case e.Type == beacon.EventServed:
			c.served++
		case e.Type == beacon.EventLoaded && e.Source == beacon.SourceQTag:
			c.qtag++
		case e.Type == beacon.EventLoaded && e.Source == beacon.SourceCommercial:
			c.comm++
		case e.Type == beacon.EventInView && e.Source == beacon.SourceQTag:
			c.qview++
		}
	}
	return finishSlices(acc)
}

// sliceCounts accumulates the raw event counts behind one slice.
type sliceCounts struct{ served, qtag, comm, qview int }

func finishSlices(acc map[string]*sliceCounts) []SliceRates {
	out := make([]SliceRates, 0, len(acc))
	for key, c := range acc {
		s := SliceRates{Key: key, Served: c.served}
		if c.served > 0 {
			s.QTag = float64(c.qtag) / float64(c.served)
			s.Commercial = float64(c.comm) / float64(c.served)
		}
		if c.qtag > 0 {
			s.QTagView = float64(c.qview) / float64(c.qtag)
		}
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Bucket is one interval of a measurement-rate time series.
type Bucket struct {
	Start  time.Time
	Served int
	QTag   float64 // measured rate in the bucket
	InView float64 // Q-Tag viewability rate in the bucket
}

// unixNanoRange is the span of instants time.Time.UnixNano represents.
var unixNanoRange = [2]time.Time{time.Unix(0, math.MinInt64), time.Unix(0, math.MaxInt64)}

// TimeSeries buckets served/measured/in-view events by their timestamps —
// the monitoring view a DSP watches during a live campaign. A bucket
// starts at a multiple of width since the Unix epoch and holds the
// instants from there up to the next, before 1970 as after. Events
// whose instant UnixNano cannot represent — before 1678 or after 2262,
// the zero timestamp among them — are ignored. Width must be positive.
func TimeSeries(store *beacon.Store, width time.Duration) []Bucket {
	if width <= 0 {
		panic("analytics: TimeSeries needs a positive bucket width")
	}
	type counts struct {
		start                  time.Time
		served, loaded, inview int
	}
	acc := map[int64]*counts{}
	for _, e := range store.Events() {
		if e.At.Before(unixNanoRange[0]) || e.At.After(unixNanoRange[1]) {
			continue
		}
		ns := e.At.UnixNano()
		slot, into := ns/int64(width), ns%int64(width)
		if into < 0 { // floor, not truncation toward zero
			slot, into = slot-1, into+int64(width)
		}
		c := acc[slot]
		if c == nil {
			// From the instant, not from slot × width, which for the
			// earliest slot is below what an int64 of nanoseconds holds.
			c = &counts{start: e.At.Add(-time.Duration(into)).UTC()}
			acc[slot] = c
		}
		switch {
		case e.Type == beacon.EventServed:
			c.served++
		case e.Type == beacon.EventLoaded && e.Source == beacon.SourceQTag:
			c.loaded++
		case e.Type == beacon.EventInView && e.Source == beacon.SourceQTag:
			c.inview++
		}
	}
	slots := make([]int64, 0, len(acc))
	for s := range acc {
		slots = append(slots, s)
	}
	sort.Slice(slots, func(i, j int) bool { return slots[i] < slots[j] })
	out := make([]Bucket, 0, len(slots))
	for _, s := range slots {
		c := acc[s]
		b := Bucket{Start: c.start, Served: c.served}
		if c.served > 0 {
			b.QTag = float64(c.loaded) / float64(c.served)
		}
		if c.loaded > 0 {
			b.InView = float64(c.inview) / float64(c.loaded)
		}
		out = append(out, b)
	}
	return out
}
