package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"time"

	"qtag/internal/beacon"
	"qtag/internal/simrand"
)

// Lifecycle probabilities of the paper's §3 event flow.
const (
	pInView    = 0.6
	pOutOfView = 0.5
	zipfS      = 1.1
)

// Table 2 slices the measured rate by OS × site type; every impression
// is drawn from one of the four slices.
var (
	osSlices   = []string{"android", "ios"}
	siteSlices = []string{"app", "browser"}
	formats    = []string{"display", "video"}
	adSizes    = []string{"300x250", "320x50", "728x90"}
)

// request is one pre-serialised POST /v1/events: the full HTTP/1.1
// request bytes, and which generated events its body carries.
type request struct {
	wire  []byte
	head  int // length of the header block: wire[head:] is the body
	first int // events[first : first+n]
	n     int
	dup   bool // verbatim re-send of the previous request
}

// body returns the request's payload.
func (r request) body() []byte { return r.wire[r.head:] }

// pool is the seeded input of one phase: events in send order and the
// requests that carry them.
type pool struct {
	events []beacon.Event
	reqs   []request
}

// zipf draws campaign ranks with P(k) ∝ 1/k^s by inverting a
// precomputed CDF.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for k := 1; k <= n; k++ {
		sum += 1 / math.Pow(float64(k), s)
		cdf[k-1] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return zipf{cdf: cdf}
}

func (z zipf) draw(r *simrand.RNG) int {
	return sort.SearchFloat64s(z.cdf, r.Float64())
}

// genSpec is what the generator needs to know about a phase.
type genSpec struct {
	seed      uint64
	label     string // phase label: part of every impression id, and the RNG fork
	campaigns int
	batch     int // events per request
	binary    bool
	dupShare  float64 // share of requests followed by a verbatim re-send
	requests  int     // distinct (non-dup) requests to produce
}

// generateEvents draws one phase's events, requests × batch of them. It
// is a pure function of spec: another seed gives other impression ids,
// campaigns and timestamps.
func generateEvents(spec genSpec) []beacon.Event {
	rng := simrand.New(spec.seed).Fork(spec.label)
	z := newZipf(spec.campaigns, zipfS)
	want := spec.requests * spec.batch
	events := make([]beacon.Event, 0, want+4)
	base := time.Unix(1546300800, 0).UTC() // 2019-01-01, the paper's campaign year
	idPrefix := "s" + strconv.FormatUint(spec.seed, 36) + "-" + spec.label + "-"
	for imp := 0; len(events) < want; imp++ {
		id := idPrefix + strconv.Itoa(imp)
		camp := "camp-" + strconv.Itoa(z.draw(rng)+1)
		meta := beacon.Meta{
			OS:       osSlices[rng.Intn(len(osSlices))],
			SiteType: siteSlices[rng.Intn(len(siteSlices))],
			Format:   formats[rng.Intn(len(formats))],
			AdSize:   adSizes[rng.Intn(len(adSizes))],
			Slot:     "slot-" + strconv.Itoa(rng.Intn(40)),
		}
		// Impressions start ~20 ms apart in event time; the tag checks in
		// after the creative loads, reports in-view once the one-second
		// standard is met, and out-of-view after a random dwell.
		at := base.Add(time.Duration(imp)*20*time.Millisecond + time.Duration(rng.Intn(20_000))*time.Microsecond)
		ev := beacon.Event{ImpressionID: id, CampaignID: camp, Type: beacon.EventServed, At: at, Meta: meta}
		events = append(events, ev)
		ev.Source = beacon.SourceQTag
		ev.Type = beacon.EventLoaded
		ev.At = at.Add(time.Duration(200+rng.Intn(1300)) * time.Millisecond)
		events = append(events, ev)
		if rng.Bool(pInView) {
			ev.Type = beacon.EventInView
			ev.At = ev.At.Add(time.Duration(1000+rng.Intn(4000)) * time.Millisecond)
			events = append(events, ev)
			if rng.Bool(pOutOfView) {
				ev.Type = beacon.EventOutOfView
				ev.At = ev.At.Add(time.Duration(rng.Exponential(4)*1000+150) * time.Millisecond)
				events = append(events, ev)
			}
		}
	}
	return events[:want]
}

// generate builds one phase's pool: the events and the pre-serialised
// requests that carry them. The same seed gives byte-identical requests.
func generate(spec genSpec) pool {
	events := generateEvents(spec)
	want := len(events)
	resend := simrand.New(spec.seed).Fork(spec.label + "/resend")

	contentType := "application/json"
	if spec.binary {
		contentType = beacon.BinaryContentType
	}
	p := pool{events: events, reqs: make([]request, 0, spec.requests+int(float64(spec.requests)*spec.dupShare)+1)}
	for first := 0; first < want; first += spec.batch {
		batch := events[first : first+spec.batch]
		var body []byte
		if spec.binary {
			body = beacon.AppendBinaryEvents(nil, batch)
		} else {
			body = jsonBody(batch)
		}
		r := request{first: first, n: spec.batch}
		r.wire, r.head = wireRequest(contentType, body)
		p.reqs = append(p.reqs, r)
		if spec.dupShare > 0 && resend.Bool(spec.dupShare) {
			r.dup = true
			p.reqs = append(p.reqs, r)
		}
	}
	return p
}

// jsonBody encodes a batch the way a tag or an HTTPSink does: one event
// as an object, several as an array.
func jsonBody(batch []beacon.Event) []byte {
	var body []byte
	if len(batch) == 1 {
		body, _ = json.Marshal(batch[0]) // Event has only marshalable fields
	} else {
		body, _ = json.Marshal(batch)
	}
	return body
}

// wireRequest frames body as a keep-alive HTTP/1.1 POST /v1/events and
// returns the request bytes and the length of their header block.
func wireRequest(contentType string, body []byte) ([]byte, int) {
	head := fmt.Sprintf("POST /v1/events HTTP/1.1\r\nHost: qtag\r\nContent-Type: %s\r\nContent-Length: %d\r\n\r\n",
		contentType, len(body))
	return append([]byte(head), body...), len(head)
}

// eventsOf returns the events the first n requests of p carry, without
// the re-sends.
func (p pool) eventsOf(n int) []beacon.Event {
	if n <= 0 {
		return nil
	}
	if n > len(p.reqs) {
		n = len(p.reqs)
	}
	last := p.reqs[n-1]
	return p.events[:last.first+last.n]
}
