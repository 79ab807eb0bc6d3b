package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer. Spans of one request share its
// request id; bulk measurements that belong to no request carry -1.
// Start and End are nanoseconds since the recorder was created.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // -1 for a root
	Request int    `json:"request"`
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
}

func (s span) duration() int64 { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. It is used from
// one goroutine: the traced run calls each layer one call at a time.
// When off, begin and end cost one branch, which is what the traced
// run's untraced half compares against.
type recorder struct {
	t0      time.Time
	spans   []span
	stack   []int
	request int
	off     bool
}

func newRecorder() *recorder { return &recorder{t0: time.Now(), request: -1} }

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// begin opens a span under the innermost open span.
func (r *recorder) begin(name string) int {
	if r.off {
		return -1
	}
	parent := -1
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Request: r.request, Name: name, Start: r.now()})
	r.stack = append(r.stack, id)
	return id
}

// end closes the innermost open span, which must be id.
func (r *recorder) end(id int) {
	if id < 0 {
		return
	}
	r.spans[id].End = r.now()
	r.stack = r.stack[:len(r.stack)-1]
}

// add records a span that ran on another goroutine (an HTTP handler
// behind a socket) from timestamps taken there.
func (r *recorder) add(name string, start, end time.Time) {
	if r.off {
		return
	}
	parent := -1
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	r.spans = append(r.spans, span{ID: len(r.spans), Parent: parent, Request: r.request, Name: name,
		Start: int64(start.Sub(r.t0)), End: int64(end.Sub(r.t0))})
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its child spans cover. Overlapping children are
// counted once, and a child is clipped to its parent.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.duration() - covered
	}
	return self
}

// byName groups values (durations or self times, index-aligned with
// spans) by span name.
func byName(spans []span, values []int64) map[string][]float64 {
	out := map[string][]float64{}
	for i, s := range spans {
		out[s.Name] = append(out[s.Name], float64(values[i]))
	}
	return out
}

// writeSpans writes the span file of one workload.
func writeSpans(path string, workload string, seed uint64, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
