package beacon

import (
	"encoding/binary"
	"math"
	"time"

	"qtag/internal/imptable"
)

// This file is the store's record arena (DESIGN.md §10, "Store layout"):
// every first-seen event of a shard is held once, in append-only []byte
// chunks. Chunks carry no pointers, so the garbage collector never scans
// a stored event — the cost the map[string]Event layout paid on every
// cycle.
//
// A record is the event, as an anchor or as a follow-on (self-delimiting).
// An anchor is the event in store form: the binary codec's
// (AppendBinaryEvent) with the campaign id and the seven Meta strings as
// references into the shard's names instead of length-prefixed strings.
// A reference is a uvarint: id<<1 for an interned string, or len<<1|1
// followed by the bytes of a literal. A shard holds a few hundred
// distinct campaign and Meta strings across millions of events, so a
// record refers to each in a byte or two instead of repeating it.
//
// A follow-on is a later event of an anchor's impression, stored as what
// it does not share with the anchor:
//
//	byte       followOnTag
//	uint32 LE  the anchor's handle
//	byte       type code, source code (as the codec's)
//	varint     Seq
//	varint     At − the anchor's At, in nanoseconds
//	[str       Type literal, only when the type code is 0]
//	[str       Source literal, only when the source code is srcLiteral]
//	str        Trace
//
// Its campaign, impression id and Meta are the anchor's. The anchor is
// the newest of its impression's, whose handle the impression's record
// holds (see storeShard); an event is written as a follow-on only when
// they are equal and the delta gives back its At exactly (anchorFor);
// otherwise it is an anchor of its own, and the impression's newest.
// A bench-shaped impression sends about three beacons, and its later
// ones cost about 15 bytes each instead of 40.
//
// A handle is chunk<<arenaChunkBits | offset: records start inside the
// first arenaChunkSize bytes of their chunk, so a record too large for a
// regular chunk gets a chunk of its own and is still addressable. Room
// is reserved by maxBinaryEventLen — which bounds both forms, since a
// reference is never longer than a length-prefixed string and a
// follow-on is an anchor's header with fewer fields — before a record is
// encoded, so the encoder never outgrows a chunk and nothing is encoded
// twice.
const (
	arenaChunkBits = 16
	arenaChunkSize = 1 << arenaChunkBits
	arenaMaxChunks = 1 << (32 - arenaChunkBits)
	// A new chunk is a quarter of what the shard already holds, within
	// [arenaMinChunk, arenaChunkSize]: a small store stays small, and the
	// unused tail of the open chunk is never much of the whole.
	arenaMinChunk = 4 << 10

	// noRecord stands for no anchor, as an impression record says it. No
	// record can start at the last byte of the last chunk, so it is never
	// a handle.
	noRecord = imptable.NoAnchor

	// followOnTag starts a follow-on; an anchor starts with the codec's
	// binaryEventVersion.
	followOnTag = 0x02
)

// arena is one shard's record memory. The shard lock guards it.
type arena struct {
	chunks  [][]byte
	bytes   int // Σ cap(chunk)
	records int
}

// append stores e, whose strings ids numbers in the shard's names, and
// returns the record's handle: as a follow-on of the anchor at near when
// anchorFor allows it, as an anchor — anchored is then true — otherwise.
// It fails, storing nothing, only when the shard already holds every
// chunk a handle can address.
func (a *arena) append(near uint32, e *Event, ids *eventNames) (h uint32, anchored bool, err error) {
	anchor, delta := a.anchorFor(near, e, ids)
	need := maxBinaryEventLen(e)
	n := len(a.chunks)
	// A record starts only where a handle can point, which also keeps
	// anything from following an oversized record into its chunk.
	if n == 0 || len(a.chunks[n-1])+need > min(cap(a.chunks[n-1]), arenaChunkSize) {
		if n == arenaMaxChunks {
			return 0, false, ErrStoreFull
		}
		size := max(min(max(a.bytes/4, arenaMinChunk), arenaChunkSize)&^(arenaMinChunk-1), need)
		a.chunks = append(a.chunks, make([]byte, 0, size))
		a.bytes += size
		n++
	}
	c := a.chunks[n-1]
	at := len(c)
	if anchor == noRecord {
		c = appendRecord(c, e, ids)
	} else {
		c = appendFollowOn(c, anchor, delta, e)
	}
	a.chunks[n-1] = c
	a.records++
	return uint32(n-1)<<arenaChunkBits | uint32(at), anchor == noRecord, nil
}

// appendRecord appends e's store form: AppendBinaryEvent's encoding,
// line for line, but for appendRef where that has appendStr. (Sharing
// the lines with it costs the wire encoder two calls an event.)
func appendRecord(dst []byte, e *Event, ids *eventNames) []byte {
	var flags byte
	if e.At.IsZero() {
		flags |= 1
	}
	tc, sc := typeCode(e.Type), sourceCode(e.Source)
	dst = append(dst, binaryEventVersion, flags, tc, sc)
	if flags&1 != 0 {
		dst = append(dst, 0, 0)
	} else {
		dst = binary.AppendVarint(dst, e.At.Unix())
		dst = binary.AppendUvarint(dst, uint64(e.At.Nanosecond()))
	}
	dst = binary.AppendVarint(dst, int64(e.Seq))
	dst = appendStr(dst, e.ImpressionID)
	dst = appendRef(dst, ids.campaign, e.CampaignID)
	if tc == 0 {
		dst = appendStr(dst, string(e.Type))
	}
	if sc == srcLiteral {
		dst = appendStr(dst, string(e.Source))
	}
	dst = appendStr(dst, e.Trace)
	dst = appendRef(dst, ids.os, e.Meta.OS)
	dst = appendRef(dst, ids.siteType, e.Meta.SiteType)
	dst = appendRef(dst, ids.adSize, e.Meta.AdSize)
	dst = appendRef(dst, ids.format, e.Meta.Format)
	dst = appendRef(dst, ids.country, e.Meta.Country)
	dst = appendRef(dst, ids.exchange, e.Meta.Exchange)
	return appendRef(dst, ids.slot, e.Meta.Slot)
}

// appendFollowOn appends e as a follow-on of the anchor at handle anchor,
// whose At is e.At less delta nanoseconds.
func appendFollowOn(dst []byte, anchor uint32, delta int64, e *Event) []byte {
	tc, sc := typeCode(e.Type), sourceCode(e.Source)
	dst = append(dst, followOnTag)
	dst = binary.LittleEndian.AppendUint32(dst, anchor)
	dst = append(dst, tc, sc)
	dst = binary.AppendVarint(dst, int64(e.Seq))
	dst = binary.AppendVarint(dst, delta)
	if tc == 0 {
		dst = appendStr(dst, string(e.Type))
	}
	if sc == srcLiteral {
		dst = appendStr(dst, string(e.Source))
	}
	return appendStr(dst, e.Trace)
}

// appendRef appends s as a reference: to its number id, or, when s is
// not interned (a non-empty string numbered 0), as a literal.
func appendRef(dst []byte, id uint32, s string) []byte {
	if id == 0 && s != "" {
		dst = binary.AppendUvarint(dst, uint64(len(s))<<1|1)
		return append(dst, s...)
	}
	return binary.AppendUvarint(dst, uint64(id)<<1)
}

// sameRef reads the reference at off in s and reports whether it refers
// to str, which the shard numbers id (0 for "" and for a literal). A
// shard never renumbers a string, and what it numbered for a record it
// numbers for every later one, so a numbered reference is compared by
// its number. A literal's bytes are compared with str: a string a
// record kept as a literal — too long for names.id, or met while the
// table was full — is never numbered later, so its id is 0.
func sameRef(s string, off int, id uint32, str string) (int, bool) {
	v, off, ok := uvarintStr(s, off)
	if !ok {
		return 0, false
	}
	if v&1 == 0 {
		return off, v == uint64(id)<<1 && (id != 0 || str == "")
	}
	if v>>1 != uint64(len(str)) || len(str) > len(s)-off || s[off:off+len(str)] != str {
		return 0, false
	}
	return off + len(str), true
}

// event returns the chunk bytes from the record at h on: its event, and
// whatever was appended after it.
func (a *arena) event(h uint32) []byte {
	return a.chunks[h>>arenaChunkBits][h&(arenaChunkSize-1):]
}

// anchorHeader is what an anchor holds before its impression id.
type anchorHeader struct {
	tc, sc byte
	at     time.Time
	seq    int64
	body   int // offset of the impression id
}

// readAnchor reads the header of the anchor s starts with.
func readAnchor(s string) (anchorHeader, bool) {
	var h anchorHeader
	if len(s) < 4 {
		return h, false
	}
	flags := s[1]
	h.tc, h.sc = s[2], s[3]
	sec, off, ok := varintStr(s, 4)
	if !ok {
		return h, false
	}
	nsec, off, ok := uvarintStr(s, off)
	if !ok {
		return h, false
	}
	if h.seq, h.body, ok = varintStr(s, off); !ok {
		return h, false
	}
	if flags&1 == 0 {
		h.at = time.Unix(sec, int64(nsec))
	}
	return h, true
}

// anchorFor returns the anchor a follow-on of e may refer to and e.At as
// a delta from the anchor's, or noRecord when e must be an anchor: the
// candidate is the anchor at near, and it qualifies only when it holds
// e's impression id, campaign and seven Meta values and
// the delta gives back e.At exactly (an int64 of nanoseconds spans ±292
// years). The strings are compared by their references against ids, not
// resolved; the impression id is the only one compared byte by byte.
func (a *arena) anchorFor(near uint32, e *Event, ids *eventNames) (uint32, int64) {
	if near == noRecord {
		return noRecord, 0
	}
	s := aliasString(a.event(near))
	h, ok := readAnchor(s)
	if !ok {
		return noRecord, 0
	}
	imp, off, ok := strField(s, h.body)
	if !ok || imp != e.ImpressionID {
		return noRecord, 0
	}
	if off, ok = sameRef(s, off, ids.campaign, e.CampaignID); !ok {
		return noRecord, 0
	}
	if h.tc == 0 {
		if _, off, ok = strField(s, off); !ok {
			return noRecord, 0
		}
	}
	if h.sc == srcLiteral {
		if _, off, ok = strField(s, off); !ok {
			return noRecord, 0
		}
	}
	if _, off, ok = strField(s, off); !ok { // Trace
		return noRecord, 0
	}
	for _, r := range [...]struct {
		id  uint32
		str string
	}{
		{ids.os, e.Meta.OS}, {ids.siteType, e.Meta.SiteType}, {ids.adSize, e.Meta.AdSize},
		{ids.format, e.Meta.Format}, {ids.country, e.Meta.Country}, {ids.exchange, e.Meta.Exchange},
		{ids.slot, e.Meta.Slot},
	} {
		if off, ok = sameRef(s, off, r.id, r.str); !ok {
			return noRecord, 0
		}
	}
	// Sub returns a delta that Add takes back to e.At exactly, or, when
	// none fits, saturates.
	d := e.At.Sub(h.at)
	if d == math.MaxInt64 || d == math.MinInt64 {
		return noRecord, 0
	}
	return near, int64(d)
}

// events appends every stored event to dst, in insertion order, reading
// references through n. Each chunk is copied once and its events'
// literal strings share the copy — a follow-on's impression id is its
// anchor's, in the copy of the anchor's chunk — so the result does not
// alias the arena; interned strings are n's, which never change.
func (a *arena) events(dst []Event, n *names) []Event {
	copies := make([]string, len(a.chunks))
	for i, c := range a.chunks {
		s := string(c)
		copies[i] = s
		for off := 0; off < len(s); {
			e, next, err := decodeRecord(copies, s, off, n)
			if err != nil {
				panic("beacon: store arena holds an undecodable record: " + err.Error())
			}
			dst = append(dst, e)
			off = next
		}
	}
	return dst
}

// decodeRecord decodes the record event at off in s, a chunk copy, and
// returns the offset past it. copies holds the copies of the chunks up
// to s's, where a follow-on's anchor is: it was appended first. (The
// type and source lines repeat decodeEventStr's rather than share them:
// a call there costs the wire decoder on every event.)
func decodeRecord(copies []string, s string, off int, n *names) (Event, int, error) {
	if s[off] != followOnTag {
		return decodeEventStr(s, off, n)
	}
	if len(s)-off < 7 {
		return Event{}, 0, errBinaryTruncated
	}
	h := uint32(s[off+1]) | uint32(s[off+2])<<8 | uint32(s[off+3])<<16 | uint32(s[off+4])<<24
	e, _, err := decodeEventStr(copies[h>>arenaChunkBits], int(h&(arenaChunkSize-1)), n)
	if err != nil {
		return Event{}, 0, err
	}
	tc, sc := s[off+5], s[off+6]
	seq, off, ok := varintStr(s, off+7)
	if !ok {
		return Event{}, 0, errBinaryTruncated
	}
	delta, off, ok := varintStr(s, off)
	if !ok {
		return Event{}, 0, errBinaryTruncated
	}
	e.Seq = int(seq)
	e.At = e.At.Add(time.Duration(delta)).UTC()
	var known bool
	if e.Type, known = typeFromCode(tc); !known {
		var lit string
		if lit, off, ok = strField(s, off); tc != 0 || !ok {
			return Event{}, 0, errBinaryTruncated
		}
		e.Type = EventType(lit)
	}
	if e.Source, known = sourceFromCode(sc); !known {
		var lit string
		if lit, off, ok = strField(s, off); sc != srcLiteral || !ok {
			return Event{}, 0, errBinaryTruncated
		}
		e.Source = Source(lit)
	}
	if e.Trace, off, ok = strField(s, off); !ok {
		return Event{}, 0, errBinaryTruncated
	}
	return e, off, nil
}
