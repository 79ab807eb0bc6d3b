package beacon

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"
	"unsafe"
)

// This file is the compact binary beacon codec (DESIGN.md §16): a
// length-prefixed, varint-field wire format for Event negotiated via
// Content-Type alongside the JSON path. It exists because the ladder's
// bottleneck moved off the locks and onto JSON decode and per-event
// allocation — the binary path decodes a whole batch with zero
// steady-state allocations (BatchDecoder) or exactly two (the copying
// DecodeBinaryEvents), versus one-per-field for encoding/json.
//
// Wire format, one event (all multi-byte integers are varints):
//
//	byte    version        0x01
//	byte    flags          bit0: At is the zero time.Time
//	byte    type code      1 served, 2 loaded, 3 in-view, 4 out-of-view,
//	                       0 = literal string follows the IDs
//	byte    source code    0 none, 1 qtag, 2 commercial,
//	                       0xFF = literal string follows
//	varint  At unix seconds (zigzag; 0 under the zero-time flag)
//	uvarint At nanoseconds
//	varint  Seq (zigzag)
//	str     ImpressionID
//	str     CampaignID
//	[str    Type literal, only when type code is 0]
//	[str    Source literal, only when source code is 0xFF]
//	str     Trace
//	str     Meta.OS, SiteType, AdSize, Format, Country, Exchange, Slot
//
// where str is a uvarint byte length followed by raw UTF-8. Deadline is
// ephemeral by design (like its json:"-" tag) and never encoded.
// Timestamps normalize to UTC on decode: the codec preserves the
// instant, not the wall-clock offset, and nothing downstream (dedup
// keys, aggregation, fraud scoring) reads the offset.
//
// A batch frame is:
//
//	byte    0xF1 batch magic
//	byte    version 0x01
//	uvarint event count
//	count × (uvarint event byte length, event bytes)
//
// The version byte doubles as the WAL payload tag: binary payloads
// start 0x01, while every legacy JSON payload starts '{' (0x7B) — so
// DecodeStoredEvent dispatches on the first byte and old JSONL-payload
// WAL directories and hint backlogs replay unchanged.
const (
	binaryEventVersion = 0x01
	binaryBatchMagic   = 0xF1
)

// BinaryContentType negotiates the binary codec on POST /v1/events.
// A server that does not speak the requested binary version answers
// 415; HTTPSink then falls back to JSON and latches, so mixed-version
// deployments keep flowing.
const BinaryContentType = "application/x-qtag-binary"

// ErrBinaryVersion reports a binary payload whose version (or batch
// magic) this codec does not speak — the server maps it to 415 so
// newer clients know to fall back, distinct from a framing error in a
// version it does speak (400).
var ErrBinaryVersion = errors.New("beacon: unsupported binary codec version")

var errBinaryTruncated = errors.New("beacon: truncated binary event")

// Event type and source dispatch tables. Code 0 (type) and 0xFF
// (source) escape to a literal string so the codec round-trips any
// Event JSON can carry, valid or not — the differential fuzz depends
// on that.
const srcLiteral = 0xFF

func typeCode(t EventType) byte {
	switch t {
	case EventServed:
		return 1
	case EventLoaded:
		return 2
	case EventInView:
		return 3
	case EventOutOfView:
		return 4
	default:
		return 0
	}
}

func typeFromCode(c byte) (EventType, bool) {
	switch c {
	case 1:
		return EventServed, true
	case 2:
		return EventLoaded, true
	case 3:
		return EventInView, true
	case 4:
		return EventOutOfView, true
	default:
		return "", false
	}
}

func sourceCode(s Source) byte {
	switch s {
	case "":
		return 0
	case SourceQTag:
		return 1
	case SourceCommercial:
		return 2
	default:
		return srcLiteral
	}
}

func sourceFromCode(c byte) (Source, bool) {
	switch c {
	case 0:
		return "", true
	case 1:
		return SourceQTag, true
	case 2:
		return SourceCommercial, true
	default:
		return "", false
	}
}

// appendStr appends one length-prefixed string field.
func appendStr(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// AppendBinaryEvent appends e's binary encoding to dst and returns the
// extended slice. Allocation-free when dst has capacity — the WAL
// journal and HTTPSink feed it pooled buffers.
func AppendBinaryEvent(dst []byte, e Event) []byte {
	var flags byte
	if e.At.IsZero() {
		flags |= 1
	}
	tc, sc := typeCode(e.Type), sourceCode(e.Source)
	dst = append(dst, binaryEventVersion, flags, tc, sc)
	if flags&1 != 0 {
		dst = append(dst, 0, 0) // zero-time: sec and nsec collapse to single bytes
	} else {
		dst = binary.AppendVarint(dst, e.At.Unix())
		dst = binary.AppendUvarint(dst, uint64(e.At.Nanosecond()))
	}
	dst = binary.AppendVarint(dst, int64(e.Seq))
	dst = appendStr(dst, e.ImpressionID)
	dst = appendStr(dst, e.CampaignID)
	if tc == 0 {
		dst = appendStr(dst, string(e.Type))
	}
	if sc == srcLiteral {
		dst = appendStr(dst, string(e.Source))
	}
	dst = appendStr(dst, e.Trace)
	dst = appendStr(dst, e.Meta.OS)
	dst = appendStr(dst, e.Meta.SiteType)
	dst = appendStr(dst, e.Meta.AdSize)
	dst = appendStr(dst, e.Meta.Format)
	dst = appendStr(dst, e.Meta.Country)
	dst = appendStr(dst, e.Meta.Exchange)
	dst = appendStr(dst, e.Meta.Slot)
	return dst
}

// maxBinaryEventLen bounds len(AppendBinaryEvent(nil, *e)) from above —
// the four header bytes, three varints and a length prefix for each of
// the twelve strings at their widest — so that a caller can reserve room
// before encoding. It bounds the store's record form (arena.go) too.
func maxBinaryEventLen(e *Event) int {
	const fixed = 4 + 3*binary.MaxVarintLen64 + 12*binary.MaxVarintLen64
	return fixed + len(e.ImpressionID) + len(e.CampaignID) + len(e.Type) + len(e.Source) + len(e.Trace) +
		len(e.Meta.OS) + len(e.Meta.SiteType) + len(e.Meta.AdSize) + len(e.Meta.Format) +
		len(e.Meta.Country) + len(e.Meta.Exchange) + len(e.Meta.Slot)
}

// AppendBinaryEvents appends the batch frame for events to dst. The
// per-event length prefix is what lets the decoder skip or arena-slice
// each event without re-parsing on framing errors.
func AppendBinaryEvents(dst []byte, events []Event) []byte {
	dst = append(dst, binaryBatchMagic, binaryEventVersion)
	dst = binary.AppendUvarint(dst, uint64(len(events)))
	for _, e := range events {
		// Reserve a 1-byte length prefix (events under 128 bytes, the
		// common beacon), encode, then widen the prefix in place when the
		// event turned out larger — one overlapping copy, no re-encode.
		lenAt := len(dst)
		dst = append(dst, 0)
		body := lenAt + 1
		dst = AppendBinaryEvent(dst, e)
		n := len(dst) - body
		var pfx [binary.MaxVarintLen64]byte
		w := binary.PutUvarint(pfx[:], uint64(n))
		if w > 1 {
			dst = append(dst, pfx[:w-1]...) // grow; contents overwritten below
			copy(dst[body+w-1:], dst[body:body+n])
		}
		copy(dst[lenAt:], pfx[:w])
	}
	return dst
}

// uvarintStr reads a uvarint from s at off; ok is false on truncation
// or overflow.
func uvarintStr(s string, off int) (v uint64, next int, ok bool) {
	var shift uint
	for i := off; i < len(s); i++ {
		b := s[i]
		if shift >= 64 || (shift == 63 && b > 1) {
			return 0, 0, false
		}
		if b < 0x80 {
			return v | uint64(b)<<shift, i + 1, true
		}
		v |= uint64(b&0x7F) << shift
		shift += 7
	}
	return 0, 0, false
}

// varintStr reads a zigzag varint from s at off.
func varintStr(s string, off int) (int64, int, bool) {
	u, next, ok := uvarintStr(s, off)
	if !ok {
		return 0, 0, false
	}
	v := int64(u >> 1)
	if u&1 != 0 {
		v = ^v
	}
	return v, next, true
}

// strField reads one length-prefixed string field. The result aliases
// s's backing memory — copying versus aliasing is decided by whoever
// built s (see DecodeBinaryEvents vs BatchDecoder).
func strField(s string, off int) (string, int, bool) {
	n, off, ok := uvarintStr(s, off)
	if !ok || n > uint64(len(s)-off) {
		return "", 0, false
	}
	end := off + int(n)
	return s[off:end], end, true
}

// decodeEventStr decodes one event encoding from s starting at off,
// returning the offset past it: the wire form when n is nil, a store
// record's otherwise, its campaign and Meta strings read through n (see
// names.field). Strings alias s, or are n's.
func decodeEventStr(s string, off int, n *names) (Event, int, error) {
	var e Event
	if len(s)-off < 4 {
		return e, 0, errBinaryTruncated
	}
	if s[off] != binaryEventVersion {
		return e, 0, fmt.Errorf("%w: event version 0x%02x", ErrBinaryVersion, s[off])
	}
	flags, tc, sc := s[off+1], s[off+2], s[off+3]
	off += 4
	sec, off, ok := varintStr(s, off)
	if !ok {
		return e, 0, errBinaryTruncated
	}
	nsec, off, ok := uvarintStr(s, off)
	if !ok || nsec > 999_999_999 {
		return e, 0, errBinaryTruncated
	}
	seq, off, ok := varintStr(s, off)
	if !ok {
		return e, 0, errBinaryTruncated
	}
	if flags&1 == 0 {
		e.At = time.Unix(sec, int64(nsec)).UTC()
	}
	e.Seq = int(seq)
	if e.ImpressionID, off, ok = strField(s, off); !ok {
		return e, 0, errBinaryTruncated
	}
	if e.CampaignID, off, ok = n.field(s, off); !ok {
		return e, 0, errBinaryTruncated
	}
	if t, known := typeFromCode(tc); known {
		e.Type = t
	} else if tc == 0 {
		var lit string
		if lit, off, ok = strField(s, off); !ok {
			return e, 0, errBinaryTruncated
		}
		e.Type = EventType(lit)
	} else {
		return e, 0, fmt.Errorf("beacon: unknown binary event type code 0x%02x", tc)
	}
	if src, known := sourceFromCode(sc); known {
		e.Source = src
	} else if sc == srcLiteral {
		var lit string
		if lit, off, ok = strField(s, off); !ok {
			return e, 0, errBinaryTruncated
		}
		e.Source = Source(lit)
	} else {
		return e, 0, fmt.Errorf("beacon: unknown binary event source code 0x%02x", sc)
	}
	if e.Trace, off, ok = strField(s, off); !ok {
		return e, 0, errBinaryTruncated
	}
	for _, field := range [...]*string{
		&e.Meta.OS, &e.Meta.SiteType, &e.Meta.AdSize, &e.Meta.Format,
		&e.Meta.Country, &e.Meta.Exchange, &e.Meta.Slot,
	} {
		if *field, off, ok = n.field(s, off); !ok {
			return e, 0, errBinaryTruncated
		}
	}
	return e, off, nil
}

// minEventBytes is the floor of any valid event encoding (header, three
// single-byte varints, ten empty string prefixes) — the batch decoder's
// defence against a forged count forcing a huge preallocation.
const minEventBytes = 17

// decodeBatchStr decodes a batch frame from s, appending onto events.
func decodeBatchStr(s string, events []Event) ([]Event, error) {
	if len(s) < 2 {
		return nil, errBinaryTruncated
	}
	if s[0] != binaryBatchMagic || s[1] != binaryEventVersion {
		return nil, fmt.Errorf("%w: frame 0x%02x 0x%02x", ErrBinaryVersion, s[0], s[1])
	}
	count, off, ok := uvarintStr(s, 2)
	if !ok {
		return nil, errBinaryTruncated
	}
	if maxCount := uint64(len(s)-off)/minEventBytes + 1; count > maxCount {
		return nil, fmt.Errorf("beacon: binary batch claims %d events in %d bytes", count, len(s)-off)
	}
	if events == nil {
		events = make([]Event, 0, count)
	}
	for i := uint64(0); i < count; i++ {
		n, next, ok := uvarintStr(s, off)
		if !ok || n > uint64(len(s)-next) {
			return nil, errBinaryTruncated
		}
		end := next + int(n)
		e, at, err := decodeEventStr(s[:end], next, nil)
		if err != nil {
			return nil, fmt.Errorf("beacon: binary event %d: %w", i, err)
		}
		if at != end {
			return nil, fmt.Errorf("beacon: binary event %d: %d trailing bytes", i, end-at)
		}
		events = append(events, e)
		off = end
	}
	if off != len(s) {
		return nil, fmt.Errorf("beacon: %d trailing bytes after binary batch", len(s)-off)
	}
	return events, nil
}

// aliasString views b as a string without copying. The caller owns the
// aliasing contract: the string (and everything sliced from it) is
// valid only while b's memory is, and only while b is not rewritten.
func aliasString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// DecodeBinaryEvents decodes a batch frame, copying all string data out
// of b — one arena allocation shared by every field, so the result is
// safe to retain however long b's buffer is reused or pooled. This is
// the decode for replay paths (WAL, hint drains) whose scan buffers
// recycle under the events.
func DecodeBinaryEvents(b []byte) ([]Event, error) {
	return decodeBatchStr(string(b), nil)
}

// DecodeBinaryEvent decodes a single event encoding (a WAL or hint
// record payload), copying its strings out of payload via one arena
// allocation.
func DecodeBinaryEvent(payload []byte) (Event, error) {
	s := string(payload)
	e, off, err := decodeEventStr(s, 0, nil)
	if err != nil {
		return Event{}, err
	}
	if off != len(s) {
		return Event{}, fmt.Errorf("beacon: %d trailing bytes after binary event", len(s)-off)
	}
	return e, nil
}

// BatchDecoder decodes binary batch frames with zero steady-state
// allocations: decoded string fields alias b's memory and the returned
// slice is reused across calls. The aliasing contract mirrors
// wal.DecodeRecord: the events (struct values included, since their
// strings alias) are valid only while b's buffer is live and unwritten,
// and only until the next Decode call on the same decoder. The ingest
// server decodes each request out of its pooled body buffer and hands
// the events to its sink before buffer and decoder go back to their
// pools; by the Sink contract, a sink that keeps an event past Submit
// keeps a copy (QueueSink), never the body.
type BatchDecoder struct {
	events []Event
}

// Decode parses one batch frame from b under the aliasing contract
// above.
func (d *BatchDecoder) Decode(b []byte) ([]Event, error) {
	if d.events == nil {
		d.events = make([]Event, 0, 16)
	}
	// Clear before reuse so stale strings from the previous batch don't
	// pin that batch's arena past its lifetime.
	clear(d.events[:cap(d.events)])
	events, err := decodeBatchStr(aliasString(b), d.events[:0])
	d.events = events[:0]
	if err != nil {
		return nil, err
	}
	return events, nil
}

// DecodeStoredEvent decodes one durable record payload — a WAL record,
// a hint-log record — dispatching on the version tag: binary payloads
// start with the codec version byte, legacy JSONL payloads with '{'.
// This is what keeps pre-binary WAL directories replaying byte-for-byte
// after the journal switched to binary appends.
func DecodeStoredEvent(payload []byte) (Event, error) {
	if len(payload) > 0 && payload[0] == binaryEventVersion {
		return DecodeBinaryEvent(payload)
	}
	var e Event
	if err := json.Unmarshal(payload, &e); err != nil {
		return Event{}, err
	}
	return e, nil
}

// encBufPool holds the pooled encode buffers shared by the binary
// client path and the WAL journal's record encoding.
var encBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

func getEncBuf() *[]byte  { return encBufPool.Get().(*[]byte) }
func putEncBuf(b *[]byte) { encBufPool.Put(b) }

// batchDecoderPool recycles the server's per-request batch decoders
// (the []Event scratch inside them). Return one with putBatchDecoder.
var batchDecoderPool = sync.Pool{New: func() any { return new(BatchDecoder) }}

// putBatchDecoder clears d's scratch and returns d to batchDecoderPool.
// The events in it alias the body of the request d last decoded, and a
// decoder can wait in the pool — through a collection, in its victim
// cache — long after that request: uncleared, it would keep the body
// (up to the server's body limit) alive all that time.
func putBatchDecoder(d *BatchDecoder) {
	clear(d.events[:cap(d.events)])
	batchDecoderPool.Put(d)
}
