package aggregate

import (
	"sort"
	"strings"
	"time"
)

// windowCounts is one campaign's activity inside one rollup window.
type windowCounts struct {
	Events      int64 `json:"events"`
	Impressions int64 `json:"impressions"` // impressions first seen in this window
	Viewed      int64 `json:"viewed"`      // impressions that became viewed in this window
}

// window is one fixed-width rollup bucket keyed by arrival time.
type window struct {
	start time.Time
	camps map[string]*windowCounts
}

// windowRing keeps the most recent MaxWindows rollup windows, evicting
// the oldest as arrival time advances — the time-windowed face of the
// aggregator, bounded regardless of traffic volume or clock skew in
// event payloads (windows go by the arrival clock, not Event.At).
type windowRing struct {
	width time.Duration
	max   int
	// windows is keyed by window start (unix nanos / width); small — at
	// most max entries — so a map beats maintaining an actual ring.
	windows map[int64]*window
}

func (r *windowRing) init(width time.Duration, max int) {
	r.width = width
	r.max = max
	r.windows = make(map[int64]*window)
}

// observe folds one event's transitions into its arrival window. Not
// self-synchronized: the Aggregator wraps every call in its winMu.
func (r *windowRing) observe(now time.Time, campaign string, created, viewedFirst bool) {
	slot := now.UnixNano() / int64(r.width)
	w := r.windows[slot]
	if w == nil {
		w = &window{start: time.Unix(0, slot*int64(r.width)).UTC(), camps: make(map[string]*windowCounts)}
		r.windows[slot] = w
		// Evict everything older than the retention horizon.
		for k := range r.windows {
			if k <= slot-int64(r.max) {
				delete(r.windows, k)
			}
		}
	}
	c := w.camps[campaign]
	if c == nil {
		c = &windowCounts{}
		w.camps[strings.Clone(campaign)] = c
	}
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
			ws.Campaigns[id] = *c
		}
		out = append(out, ws)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out
}
