package aggregate

import (
	"cmp"
	"slices"
	"sort"
	"strings"
	"time"

	"qtag/internal/jsonenc"
	"qtag/internal/keydir"
)

// windowCounts is one campaign's activity inside one rollup window.
type windowCounts struct {
	Events      int64 `json:"events"`
	Impressions int64 `json:"impressions"` // impressions first seen in this window
	Viewed      int64 `json:"viewed"`      // impressions that became viewed in this window
}

// windowCamp is one campaign's counts in one window, under its owned id,
// and where the last render put them (observe marks it dirty).
type windowCamp struct {
	id string
	windowCounts
	at jsonenc.Span
}

// window is one fixed-width rollup bucket keyed by arrival time: its
// campaigns by id, and in id order for the report.
type window struct {
	slot  int64 // unix nanos / width
	start time.Time
	camps map[string]*windowCamp
	dir   keydir.Dir[windowCamp]
}

// windowRing keeps the most recent MaxWindows rollup windows, evicting
// the oldest as arrival time advances — the time-windowed face of the
// aggregator, bounded regardless of traffic volume or clock skew in
// event payloads (windows go by the arrival clock, not Event.At).
type windowRing struct {
	width time.Duration
	max   int64
	// windows are the retained windows in slot order — at most max, all
	// within max slots of newest, the newest slot ever seen.
	windows []*window
	newest  int64
}

// observe folds one event's transitions into its arrival window. Not
// self-synchronized: the Aggregator wraps every call in its winMu. An
// event whose window is past the horizon — the arrival clock stepped
// back — opens none: it counts on the campaign rows only.
func (r *windowRing) observe(now time.Time, campaign string, created, viewedFirst bool) {
	slot := now.UnixNano() / int64(r.width)
	if len(r.windows) == 0 || slot > r.newest {
		r.newest = slot
		r.windows = slices.DeleteFunc(r.windows, func(w *window) bool { return w.slot <= slot-r.max })
	}
	if slot <= r.newest-r.max {
		return
	}
	i, ok := slices.BinarySearchFunc(r.windows, slot, func(w *window, s int64) int { return cmp.Compare(w.slot, s) })
	if !ok {
		w := &window{slot: slot, start: time.Unix(0, slot*int64(r.width)).UTC(), camps: make(map[string]*windowCamp)}
		w.dir.Init(func(c *windowCamp) string { return c.id })
		r.windows = slices.Insert(r.windows, i, w)
	}
	w := r.windows[i]
	c := w.camps[campaign]
	if c == nil {
		c = &windowCamp{id: strings.Clone(campaign)}
		w.camps[c.id] = c
		w.dir.Add(c)
	}
	c.at.Dirty()
	c.Events++
	if created {
		c.Impressions++
	}
	if viewedFirst {
		c.Viewed++
	}
}

// WindowSnapshot is one rollup window, shaped for the /report payload.
type WindowSnapshot struct {
	Start     time.Time               `json:"start"`
	Campaigns map[string]windowCounts `json:"campaigns"`
}

// snapshot copies the retained windows sorted oldest-first.
func (r *windowRing) snapshot() []WindowSnapshot {
	out := make([]WindowSnapshot, 0, len(r.windows))
	for _, w := range r.windows {
		ws := WindowSnapshot{Start: w.start, Campaigns: make(map[string]windowCounts, len(w.camps))}
		for id, c := range w.camps {
			ws.Campaigns[id] = c.windowCounts
		}
		out = append(out, ws)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out
}
