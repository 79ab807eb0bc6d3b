// Package imptable is the observers' open-impression working set
// (DESIGN.md §10, "Observer layout"): what internal/aggregate and
// internal/detect keep about an impression between its first beacon and
// its eviction — whether it was served, its format, how far each
// solution has got, and the cycle stamps waiting for their partner. A
// Table is one shard of it; a Pass shards Tables and folds each
// first-seen event into its impression once for every observer joined
// to it.
//
// Q-Tag's protocol holds every impression open (an in-view waits for its
// out-of-view, "not measured" is what never arrived), so this is the one
// part of the collector whose size follows the campaign, not the request.
// Nothing in it that grows with the number of open impressions holds a
// pointer: records live in fixed-size slab chunks addressed by index,
// behind a map[uint32]uint32 from key hash to the newest record of a
// collision chain, and the garbage collector scans neither. What does not
// fit a record — a long key, a third solution, a third open cycle — spills
// (see Entry), so the table is exact, never lossy.
//
// A Table is not safe for concurrent use; its shard's lock guards it.
package imptable

import (
	"encoding/binary"
	"hash/maphash"
	"strings"
	"time"

	"qtag/internal/pairing"
)

const (
	// InlineKey is the longest key an Entry holds itself. An impression
	// key is a length byte, the campaign id and the impression id
	// (beacon.Event.AppendImpressionKey); the simulator's and the
	// benchmark's are 20–27 bytes, and 39 rounds the record to 96 — a
	// cache line and a half. A longer key (a UUID impression id, say)
	// goes to 64-byte key blocks, which cost it one or two more lines.
	InlineKey = 39

	// inlineSources is how many solutions an Entry tracks itself.
	inlineSources = 2

	// Records and key blocks are allocated chunkSize at a time (24 and
	// 16 KiB): an index is chunk<<chunkBits | offset, and at most one chunk
	// per shard is partly unused.
	chunkBits = 8
	chunkSize = 1 << chunkBits

	// none ends a collision chain, a recency list, a free list and a key's
	// block chain. A shard cannot hold 2^32-1 records (412 GB), so it is
	// never an index.
	none = ^uint32(0)

	spilledKey = 0xFF // Entry.klen of a key held in blocks
	blockData  = 60
)

// Entry is one open impression: a 96-byte record without a pointer.
// Served is the caller's; the rest is reached through the Table.
//
// What spills, and where:
//
//   - a key longer than InlineKey: its length and first block index take
//     the key field's first eight bytes, its bytes a chain of key blocks;
//   - a solution beyond the first two, one whose name the shard's
//     254-name table has no room for, a waiting stamp pairing.Pending
//     cannot hold, a format beyond the shard's 65 534: an overflow struct
//     in the table's side map. That map holds pointers, and is empty on
//     honest traffic.
type Entry struct {
	hash         uint32
	next         uint32 // older record with the same hash; next free record once freed
	older, newer uint32 // recency list
	touched      int64  // arrival clock of the last Open, Unix nanoseconds

	pending  pairing.Pending
	srcID    [inlineSources]uint8 // names id of a solution; 0: slot unused; nameSpilled: see overflow
	srcFlags [inlineSources]uint8
	format   uint16 // names id; formatSpilled: see overflow
	Served   bool
	spilled  bool // the side map has an overflow for this entry

	klen uint8
	key  [InlineKey]byte
}

// formatSpilled and nameSpilled are the ids of a format and of a solution
// name that are held in the entry's overflow.
const (
	formatSpilled = ^uint16(0)
	nameSpilled   = ^uint8(0)
)

// keyBlock is one link of a long key.
type keyBlock struct {
	next uint32 // next block of the key; next free block once freed
	data [blockData]byte
}

// source is a solution's progress held outside the Entry.
type source struct {
	name  string
	flags uint8
}

// overflow is what an Entry has no room for.
type overflow struct {
	sources []source // the third solution on, in first-beacon order
	pending pairing.Overflow
	format  string                // valid when Entry.format is formatSpilled
	names   [inlineSources]string // names[i] valid when Entry.srcID[i] is nameSpilled
}

// slab is index-addressed storage that grows a chunk at a time and never
// moves what it holds.
type slab[T any] struct {
	chunks [][]T
	used   uint32 // indexes handed out so far
}

func (s *slab[T]) at(i uint32) *T { return &s.chunks[i>>chunkBits][i&(chunkSize-1)] }

// grow returns an index never handed out before.
func (s *slab[T]) grow() uint32 {
	if int(s.used>>chunkBits) == len(s.chunks) {
		s.chunks = append(s.chunks, make([]T, chunkSize))
	}
	s.used++
	return s.used - 1
}

// names interns strings as small integers: 0 is "", max is never given
// out. The strings are the table's own copies.
type names[I uint8 | uint16] struct {
	ids  map[string]I
	list []string // list[id-1]
}

func (n *names[I]) name(id I) string {
	if id == 0 {
		return ""
	}
	return n.list[id-1]
}

// id returns s's id, giving it the next one if it is new; ok is false when
// there is none left.
func (n *names[I]) id(s string) (id I, ok bool) {
	if s == "" {
		return 0, true
	}
	if id, ok = n.ids[s]; ok {
		return id, true
	}
	if len(n.list) == int(^I(0))-1 {
		return 0, false
	}
	if n.ids == nil {
		n.ids = make(map[string]I)
	}
	s = strings.Clone(s)
	n.list = append(n.list, s)
	n.ids[s] = I(len(n.list))
	return I(len(n.list)), true
}

// hashMask is all ones; ForceCollisions narrows it.
var hashMask = ^uint32(0)

// ForceCollisions is for tests: tables made until restore is called hash
// every key to one of n values (a power of two), so that collision
// chains, unlinking from the middle of one and exact key comparison carry
// whole test suites instead of the odd unlucky key.
func ForceCollisions(n uint32) (restore func()) {
	old := hashMask
	hashMask = n - 1
	return func() { hashMask = old }
}

// Table is one shard's open impressions, least recently opened first.
type Table struct {
	index          map[uint32]uint32 // key hash → newest record of its chain
	recs           slab[Entry]
	freeRec        uint32
	n              int
	newest, oldest uint32

	blocks    slab[keyBlock]
	freeBlock uint32

	over    map[*Entry]*overflow
	sources names[uint8]
	formats names[uint16]

	// seed keys the index hash, fresh per table: ids come off the wire,
	// and a chain is walked linearly.
	seed maphash.Seed
	mask uint32
}

// New returns an empty table.
func New() *Table {
	return &Table{
		index:   make(map[uint32]uint32),
		freeRec: none, freeBlock: none,
		newest: none, oldest: none,
		seed: maphash.MakeSeed(),
		mask: hashMask,
	}
}

// Len returns how many impressions are open.
func (t *Table) Len() int { return t.n }

// Open returns the entry of the impression with this key, making it the
// most recently opened as of now (arrival clock, Unix nanoseconds);
// created is true when the impression was not open and the entry is new.
// The key is copied. The entry stays where it is until it is evicted or
// swept.
func (t *Table) Open(key []byte, now int64) (e *Entry, created bool) {
	h := uint32(maphash.Bytes(t.seed, key)) & t.mask
	head, chained := t.index[h]
	if !chained {
		head = none
	}
	for at := head; at != none; at = e.next {
		// The hash only chooses which records are compared: an impression
		// is the one whose key bytes are these, whatever else shares its
		// chain.
		if e = t.recs.at(at); t.holds(e, key) {
			if t.newest != at {
				t.unlink(e)
				t.pushNewest(at, e)
			}
			e.touched = now
			return e, false
		}
	}
	at := t.freeRec
	if at != none {
		t.freeRec = t.recs.at(at).next
	} else {
		at = t.recs.grow()
	}
	e = t.recs.at(at)
	*e = Entry{hash: h, next: head, touched: now}
	t.setKey(e, key)
	t.index[h] = at
	t.pushNewest(at, e)
	t.n++
	return e, true
}

// pushNewest links e, the record at index at, in at the recent end.
func (t *Table) pushNewest(at uint32, e *Entry) {
	e.older, e.newer = t.newest, none
	if t.newest != none {
		t.recs.at(t.newest).newer = at
	} else {
		t.oldest = at
	}
	t.newest = at
}

// unlink takes e out of the recency list.
func (t *Table) unlink(e *Entry) {
	if e.newer != none {
		t.recs.at(e.newer).older = e.older
	} else {
		t.newest = e.older
	}
	if e.older != none {
		t.recs.at(e.older).newer = e.newer
	} else {
		t.oldest = e.newer
	}
}

// remove frees the record at index at: out of its chain and the recency
// list, its key blocks and its overflow released, its slot the next one
// Open hands out.
func (t *Table) remove(at uint32) {
	e := t.recs.at(at)
	if head := t.index[e.hash]; head != at {
		prev := t.recs.at(head)
		for prev.next != at {
			prev = t.recs.at(prev.next)
		}
		prev.next = e.next
	} else if e.next != none {
		t.index[e.hash] = e.next
	} else {
		delete(t.index, e.hash)
	}
	t.unlink(e)
	if e.klen == spilledKey {
		for b := binary.LittleEndian.Uint32(e.key[4:]); b != none; {
			blk := t.blocks.at(b)
			rest := blk.next
			blk.next, t.freeBlock = t.freeBlock, b
			b = rest
		}
	}
	if e.spilled {
		delete(t.over, e)
	}
	e.next, t.freeRec = t.freeRec, at
	t.n--
}

// setKey stores key in e: inline, or — back to front, so that each block
// knows its successor — in key blocks.
func (t *Table) setKey(e *Entry, key []byte) {
	if len(key) <= InlineKey {
		e.klen = uint8(copy(e.key[:], key))
		return
	}
	next := none
	for end := len(key); end > 0; {
		start := (end - 1) / blockData * blockData
		b := t.freeBlock
		if b != none {
			t.freeBlock = t.blocks.at(b).next
		} else {
			b = t.blocks.grow()
		}
		blk := t.blocks.at(b)
		blk.next = next
		copy(blk.data[:], key[start:end])
		next, end = b, start
	}
	e.klen = spilledKey
	binary.LittleEndian.PutUint32(e.key[0:], uint32(len(key)))
	binary.LittleEndian.PutUint32(e.key[4:], next)
}

// holds reports whether e's key is key, byte for byte.
func (t *Table) holds(e *Entry, key []byte) bool {
	if e.klen != spilledKey {
		return string(e.key[:e.klen]) == string(key)
	}
	if int(binary.LittleEndian.Uint32(e.key[0:])) != len(key) {
		return false
	}
	for b := binary.LittleEndian.Uint32(e.key[4:]); len(key) > 0; {
		blk := t.blocks.at(b)
		n := min(len(key), blockData)
		if string(blk.data[:n]) != string(key[:n]) {
			return false
		}
		key, b = key[n:], blk.next
	}
	return true
}

// EvictOldest drops the least recently opened impression, unless that is
// keep — the entry the caller has just opened, which is the oldest only
// when it is alone. It reports whether it dropped one.
func (t *Table) EvictOldest(keep *Entry) bool {
	if t.oldest == none || t.recs.at(t.oldest) == keep {
		return false
	}
	t.remove(t.oldest)
	return true
}

// Sweep drops every impression last opened ttl or longer before now,
// walking from the cold end and stopping at the first that is not, and
// returns how many it dropped. The recency list is in Open order, which
// is arrival-clock order wherever that clock does not run backwards.
func (t *Table) Sweep(now int64, ttl time.Duration) int {
	dropped := 0
	for t.oldest != none && now-t.recs.at(t.oldest).touched >= int64(ttl) {
		t.remove(t.oldest)
		dropped++
	}
	return dropped
}

// more returns e's overflow, or nil — without a map access — when it has
// none.
func (t *Table) more(e *Entry) *overflow {
	if !e.spilled {
		return nil
	}
	return t.over[e]
}

// spill returns e's overflow, making it if need be.
func (t *Table) spill(e *Entry) *overflow {
	if o := t.more(e); o != nil {
		return o
	}
	if t.over == nil {
		t.over = make(map[*Entry]*overflow)
	}
	o := &overflow{}
	t.over[e], e.spilled = o, true
	return o
}

// Format returns e's format.
func (t *Table) Format(e *Entry) string {
	if e.format == formatSpilled {
		return t.over[e].format
	}
	return t.formats.name(e.format)
}

// SetFormat sets e's format; the string is copied the first time the
// table sees it.
func (t *Table) SetFormat(e *Entry, format string) {
	if id, ok := t.formats.id(format); ok {
		e.format = id
		return
	}
	t.spill(e).format, e.format = strings.Clone(format), formatSpilled
}

// Sources returns how many solutions have reported on e.
func (t *Table) Sources(e *Entry) int {
	n := 0
	for n < inlineSources && e.srcID[n] != 0 {
		n++
	}
	if n == inlineSources {
		if o := t.more(e); o != nil {
			n += len(o.sources)
		}
	}
	return n
}

// SourceAt returns the name and the progress flags of e's i'th solution
// in first-beacon order, i < Sources(e). The flags are the caller's to
// define and change; the pointer is good until the next Source call on e.
func (t *Table) SourceAt(e *Entry, i int) (name string, flags *uint8) {
	if i < inlineSources {
		return t.inlineName(e, i), &e.srcFlags[i]
	}
	s := &t.over[e].sources[i-inlineSources]
	return s.name, &s.flags
}

func (t *Table) inlineName(e *Entry, i int) string {
	if e.srcID[i] == nameSpilled {
		return t.over[e].names[i]
	}
	return t.sources.name(e.srcID[i])
}

// Source returns the position and progress flags of solution name on e,
// adding it — fresh is then true — if this is its first beacon on the
// impression. The position is the solution's index for SourceAt, InView
// and OutOfView, and does not change while the impression is open.
func (t *Table) Source(e *Entry, name string) (i int, flags *uint8, fresh bool) {
	for i = 0; i < inlineSources; i++ {
		if e.srcID[i] == 0 {
			id, ok := t.sources.id(name)
			if !ok {
				t.spill(e).names[i], id = strings.Clone(name), nameSpilled
			}
			e.srcID[i] = id
			return i, &e.srcFlags[i], true
		}
		if t.inlineName(e, i) == name {
			return i, &e.srcFlags[i], false
		}
	}
	o := t.spill(e)
	for j := range o.sources {
		if o.sources[j].name == name {
			return inlineSources + j, &o.sources[j].flags, false
		}
	}
	o.sources = append(o.sources, source{name: strings.Clone(name)})
	j := len(o.sources) - 1
	return inlineSources + j, &o.sources[j].flags, true
}

// waiting returns the overflow of e's pending stamps, or nil.
func (t *Table) waiting(e *Entry) *pairing.Overflow {
	if o := t.more(e); o != nil {
		return &o.pending
	}
	return nil
}

// InView offers the in-view of cycle (solution src, seq) to e's pending
// stamps; see pairing.Pending.InView.
func (t *Table) InView(e *Entry, src, seq int, at time.Time) (dwell time.Duration, paired bool) {
	dwell, paired, spill := e.pending.InView(t.waiting(e), src, seq, at)
	if spill {
		dwell, paired, _ = e.pending.InView(&t.spill(e).pending, src, seq, at)
	}
	return dwell, paired
}

// OutOfView offers the out-of-view of cycle (solution src, seq) to e's
// pending stamps; see pairing.Pending.OutOfView.
func (t *Table) OutOfView(e *Entry, src, seq int, at time.Time) (dwell time.Duration, paired, orphan bool) {
	dwell, paired, orphan, spill := e.pending.OutOfView(t.waiting(e), src, seq, at)
	if spill {
		dwell, paired, orphan, _ = e.pending.OutOfView(&t.spill(e).pending, src, seq, at)
	}
	return dwell, paired, orphan
}
