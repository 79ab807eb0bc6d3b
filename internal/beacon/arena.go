package beacon

import "encoding/binary"

// This file is the store's record arena (DESIGN.md §10, "Store layout"):
// every first-seen event of a shard is held once, in append-only []byte
// chunks. Chunks carry no pointers, so the garbage collector never scans
// a stored event — the cost the map[string]Event layout paid on every
// cycle.
//
// A record is
//
//	uint32 LE  handle of the previous record with the same index hash,
//	           or noRecord
//	bytes      the event in store form (self-delimiting)
//
// The store form is the binary codec's (AppendBinaryEvent) with the
// campaign id and the seven Meta strings as references into the shard's
// names instead of length-prefixed strings. A reference is a uvarint:
// id<<1 for an interned string, or len<<1|1 followed by the bytes of a
// literal. A shard holds a few hundred distinct campaign and Meta strings
// across millions of events, so a record refers to each in a byte or two
// instead of repeating it.
//
// A handle is chunk<<arenaChunkBits | offset: records start inside the
// first arenaChunkSize bytes of their chunk, so a record too large for a
// regular chunk gets a chunk of its own and is still addressable. Room
// is reserved by maxBinaryEventLen — which bounds the store form too,
// since a reference is never longer than a length-prefixed string —
// before a record is encoded, so the encoder never outgrows a chunk and
// nothing is encoded twice.
const (
	arenaChunkBits = 16
	arenaChunkSize = 1 << arenaChunkBits
	arenaMaxChunks = 1 << (32 - arenaChunkBits)
	// A new chunk is a quarter of what the shard already holds, within
	// [arenaMinChunk, arenaChunkSize]: a small store stays small, and the
	// unused tail of the open chunk is never much of the whole.
	arenaMinChunk  = 4 << 10
	arenaLinkBytes = 4

	// noRecord ends a chain. No record can start at the last byte of the
	// last chunk, so it is never a handle.
	noRecord = ^uint32(0)
)

// arena is one shard's record memory. The shard lock guards it.
type arena struct {
	chunks  [][]byte
	bytes   int // Σ cap(chunk)
	records int
}

// append stores e, whose strings ids numbers in the shard's names,
// linked to prev and returns the record's handle. It fails, storing
// nothing, only when the shard already holds every chunk a handle can
// address.
func (a *arena) append(prev uint32, e *Event, ids *eventNames) (uint32, error) {
	need := arenaLinkBytes + maxBinaryEventLen(e)
	n := len(a.chunks)
	// A record starts only where a handle can point, which also keeps
	// anything from following an oversized record into its chunk.
	if n == 0 || len(a.chunks[n-1])+need > min(cap(a.chunks[n-1]), arenaChunkSize) {
		if n == arenaMaxChunks {
			return 0, ErrStoreFull
		}
		size := max(min(max(a.bytes/4, arenaMinChunk), arenaChunkSize)&^(arenaMinChunk-1), need)
		a.chunks = append(a.chunks, make([]byte, 0, size))
		a.bytes += size
		n++
	}
	c := a.chunks[n-1]
	at := len(c)
	c = binary.LittleEndian.AppendUint32(c, prev)
	a.chunks[n-1] = appendRecord(c, e, ids)
	a.records++
	return uint32(n-1)<<arenaChunkBits | uint32(at), nil
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

// appendRef appends s as a reference: to its number id, or, when s is
// not interned (a non-empty string numbered 0), as a literal.
func appendRef(dst []byte, id uint32, s string) []byte {
	if id == 0 && s != "" {
		dst = binary.AppendUvarint(dst, uint64(len(s))<<1|1)
		return append(dst, s...)
	}
	return binary.AppendUvarint(dst, uint64(id)<<1)
}

// record returns the chunk bytes from the record at h on: its link, its
// store form, and whatever was appended after it.
func (a *arena) record(h uint32) []byte {
	return a.chunks[h>>arenaChunkBits][h&(arenaChunkSize-1):]
}

// next returns the handle the record at h links to.
func (a *arena) next(h uint32) uint32 {
	return binary.LittleEndian.Uint32(a.record(h))
}

// holds reports whether the record at h, whose references point into n,
// is an event with e's idempotency key — (campaign, impression, source,
// type, seq), field by field. This is what makes dedup exact whatever
// the index hash does: a hash only chooses which records are compared.
// The type and source codes are canonical — a literal is written only
// for a value that has no code — so equal codes and equal literals are
// equal fields.
func (a *arena) holds(h uint32, e *Event, n *names) bool {
	s := aliasString(a.record(h)[arenaLinkBytes:])
	if len(s) < 4 {
		return false
	}
	tc, sc := s[2], s[3]
	if tc != typeCode(e.Type) || sc != sourceCode(e.Source) {
		return false
	}
	_, off, ok := varintStr(s, 4) // At seconds
	if !ok {
		return false
	}
	if _, off, ok = uvarintStr(s, off); !ok { // At nanoseconds
		return false
	}
	seq, off, ok := varintStr(s, off)
	if !ok || seq != int64(e.Seq) {
		return false
	}
	f, off, ok := strField(s, off)
	if !ok || f != e.ImpressionID {
		return false
	}
	if f, off, ok = n.field(s, off); !ok || f != e.CampaignID {
		return false
	}
	if tc == 0 {
		if f, off, ok = strField(s, off); !ok || f != string(e.Type) {
			return false
		}
	}
	if sc == srcLiteral {
		if f, _, ok = strField(s, off); !ok || f != string(e.Source) {
			return false
		}
	}
	return true
}

// events appends every stored event to dst, in insertion order, reading
// references through n. Each chunk is copied once and its events'
// literal strings share the copy, so the result does not alias the
// arena; interned strings are n's, which never change.
func (a *arena) events(dst []Event, n *names) []Event {
	for _, c := range a.chunks {
		s := string(c)
		for off := 0; off < len(s); {
			e, next, err := decodeEventStr(s, off+arenaLinkBytes, n)
			if err != nil {
				panic("beacon: store arena holds an undecodable record: " + err.Error())
			}
			dst = append(dst, e)
			off = next
		}
	}
	return dst
}
