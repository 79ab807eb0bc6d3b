// Package beacon implements the monitoring side of Q-Tag: the event wire
// format ad tags emit, an idempotent in-memory event store whose
// observers do the counting (internal/aggregate), an HTTP collection
// server (the "monitoring server" of §3), and a client transport for
// tags.
//
// Event flow for one impression:
//
//	DSP ad server  ──served──▶ store
//	measurement tag ──loaded──▶ store          (tag executed: impression is *measured*)
//	measurement tag ──in-view──▶ store          (viewability criteria met)
//	measurement tag ──out-of-view──▶ store      (visibility lost afterwards)
//
// An impression with a served event but no loaded event from a solution is
// *not measured* by that solution; one with loaded but no in-view is
// measured-not-viewed. These definitions implement the paper's measured
// rate and viewability rate metrics (§6).
package beacon

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"
)

// EventType enumerates the beacon event kinds.
type EventType string

// Event kinds.
const (
	// EventServed is logged server-side by the DSP when the ad is
	// delivered. It has no Source.
	EventServed EventType = "served"
	// EventLoaded is the tag's check-in: the measurement code executed.
	EventLoaded EventType = "loaded"
	// EventInView reports that the viewability standard criteria were met.
	EventInView EventType = "in-view"
	// EventOutOfView reports that visibility was lost after an in-view.
	EventOutOfView EventType = "out-of-view"
)

// Source identifies which measurement solution emitted an event.
type Source string

// Measurement solutions compared in the paper.
const (
	// SourceQTag is this paper's solution.
	SourceQTag Source = "qtag"
	// SourceCommercial is the anonymous commercial verifier baseline.
	SourceCommercial Source = "commercial"
)

// Owned returns s safe to keep after the buffer it was decoded from is
// gone or rewritten: the solutions this package names as their
// constants, any other value as a copy.
func (s Source) Owned() Source {
	switch s {
	case SourceQTag:
		return SourceQTag
	case SourceCommercial:
		return SourceCommercial
	}
	return Source(strings.Clone(string(s)))
}

// Meta carries the impression attributes used for slicing (Table 2 slices
// by OS and site type).
type Meta struct {
	OS       string `json:"os,omitempty"`
	SiteType string `json:"site_type,omitempty"`
	AdSize   string `json:"ad_size,omitempty"`
	Format   string `json:"format,omitempty"`
	Country  string `json:"country,omitempty"`
	Exchange string `json:"exchange,omitempty"`
	// Slot is the publisher placement the creative rendered in. Honest
	// inventory spreads impressions over many placements; ad stacking
	// concentrates simultaneous in-views onto one, which is what the
	// geometry detector in internal/detect keys on. Optional on the wire.
	Slot string `json:"slot,omitempty"`
}

// Event is one beacon message.
type Event struct {
	// ImpressionID uniquely identifies the ad impression.
	ImpressionID string `json:"impression_id"`
	// CampaignID identifies the ad campaign the impression belongs to.
	CampaignID string `json:"campaign_id"`
	// Source is the emitting measurement solution; empty for served
	// events, required otherwise.
	Source Source `json:"source,omitempty"`
	// Type is the event kind.
	Type EventType `json:"type"`
	// At is the event timestamp.
	At time.Time `json:"at"`
	// Seq distinguishes repeated in-view/out-of-view cycles within one
	// impression; 0 for the first cycle.
	Seq int `json:"seq,omitempty"`
	// Meta carries slicing attributes.
	Meta Meta `json:"meta,omitempty"`
	// Trace is the W3C traceparent of the distributed-tracing span that
	// last handled this event, so the trace survives hops that outlive
	// any single HTTP request: queue requeues, hinted-handoff WAL
	// records, drain replay. It is not part of the idempotency Key and
	// never affects dedup or aggregation.
	Trace string `json:"trace,omitempty"`
	// Deadline is the absolute instant after which the submitting
	// client no longer cares about this event's outcome, derived from
	// the X-Qtag-Budget-Ms request header. Ephemeral by design
	// (json:"-"): it never reaches the WAL, snapshots, or hint records —
	// replayed and drained work is background work with no waiting
	// client, so it carries no deadline. HTTPSink decrements the
	// remaining budget when forwarding to peers; a zero Deadline means
	// "no deadline".
	Deadline time.Time `json:"-"`
}

// Validation errors.
var (
	ErrNoImpression = errors.New("beacon: event missing impression id")
	ErrNoCampaign   = errors.New("beacon: event missing campaign id")
	ErrBadType      = errors.New("beacon: unknown event type")
	ErrBadSource    = errors.New("beacon: event source invalid for type")
)

// Validate checks structural invariants of the event.
func (e Event) Validate() error {
	if e.ImpressionID == "" {
		return ErrNoImpression
	}
	if e.CampaignID == "" {
		return ErrNoCampaign
	}
	switch e.Type {
	case EventServed:
		if e.Source != "" {
			return fmt.Errorf("%w: served events carry no source", ErrBadSource)
		}
	case EventLoaded, EventInView, EventOutOfView:
		if e.Source == "" {
			return fmt.Errorf("%w: %s events require a source", ErrBadSource, e.Type)
		}
	default:
		return fmt.Errorf("%w: %q", ErrBadType, e.Type)
	}
	return nil
}

// AppendKey appends Key to dst and returns the extended slice; see Key
// for why it decides nothing.
func (e Event) AppendKey(dst []byte) []byte {
	dst = append(dst, e.CampaignID...)
	dst = append(dst, '|')
	dst = append(dst, e.ImpressionID...)
	dst = append(dst, '|')
	dst = append(dst, e.Source...)
	dst = append(dst, '|')
	dst = append(dst, e.Type...)
	dst = append(dst, '|')
	return strconv.AppendInt(dst, int64(e.Seq), 10)
}

// Key renders the idempotency key — (campaign, impression, source, type,
// seq) — for logs and test oracles. It is for display only: the fields
// are joined with an unescaped '|', so campaign "a|b" with impression "c"
// and campaign "a" with impression "b|c" render alike although they are
// different keys. The store compares the fields themselves — the
// impression key (AppendImpressionKey), then the solution, type and seq
// in the impression's seen set — and re-submitting an event whose five
// fields all match a stored one is a no-op.
func (e Event) Key() string {
	var buf [96]byte
	return string(e.AppendKey(buf[:0]))
}

// AppendImpressionKey appends the key of the event's impression —
// (campaign, impression) — to dst: the campaign's length, the campaign,
// the impression. The length prefix keeps distinct pairs distinct
// whatever bytes the ids hold; the store's impression records, and the
// state an observer keeps in them, are keyed by it.
func (e Event) AppendImpressionKey(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(e.CampaignID)))
	dst = append(dst, e.CampaignID...)
	return append(dst, e.ImpressionID...)
}

// String implements fmt.Stringer.
func (e Event) String() string {
	src := string(e.Source)
	if src == "" {
		src = "dsp"
	}
	return fmt.Sprintf("%s %s imp=%s camp=%s", src, e.Type, e.ImpressionID, e.CampaignID)
}

// owned returns e with its strings copied into one allocation of its
// own, so that it stays valid after the memory they alias — a pooled
// request body — is reused.
func (e Event) owned() Event {
	fields := [...]*string{
		&e.ImpressionID, &e.CampaignID, (*string)(&e.Source), (*string)(&e.Type),
		&e.Meta.OS, &e.Meta.SiteType, &e.Meta.AdSize, &e.Meta.Format,
		&e.Meta.Country, &e.Meta.Exchange, &e.Meta.Slot, &e.Trace,
	}
	n := 0
	for _, f := range fields {
		n += len(*f)
	}
	if n == 0 {
		return e
	}
	var b strings.Builder
	b.Grow(n)
	for _, f := range fields {
		b.WriteString(*f)
	}
	all := b.String()
	for _, f := range fields {
		*f, all = all[:len(*f)], all[len(*f):]
	}
	return e
}

// Sink consumes beacon events. Implementations include *Store (direct,
// in-process) and *HTTPSink (over the wire to a collection Server).
//
// An event's strings are valid only for the duration of Submit: the
// server decodes binary requests with strings that alias the request
// body, whose buffer is reused once the request is answered. A sink that
// keeps an event past the call owns a copy — the store and its observers
// keep copies, the journals and HTTPSink encode, QueueSink copies each
// event it queues.
type Sink interface {
	Submit(Event) error
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(Event) error

// Submit implements Sink.
func (f SinkFunc) Submit(e Event) error { return f(e) }

// discardSink accepts and discards everything — the terminal sink of a
// durability pipeline that has no journal configured.
type discardSink struct{}

// Submit implements Sink.
func (discardSink) Submit(Event) error { return nil }

// SubmitBatch implements BatchSink.
func (discardSink) SubmitBatch([]Event) error { return nil }

// Discard is a Sink (and BatchSink) that accepts every event and drops
// it. qtag-server uses it as the durability pipeline's terminal when no
// journal is configured, so the queue/breaker metrics keep the same
// shape either way.
var Discard BatchSink = discardSink{}
