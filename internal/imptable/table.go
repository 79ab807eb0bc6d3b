// Package imptable is the impression record set (DESIGN.md §10, "Store
// layout" and "Observer layout"): one record per impression, from its
// first beacon to its close. A record holds the impression's seen set —
// which of its beacons have arrived, the set that decides whether a
// beacon is first-seen or a duplicate — and its key, beside what
// internal/aggregate keeps of it: whether it was served, its format, how
// far each solution has got, and the cycle stamps waiting for their
// partner. A Table is one shard of it: internal/beacon's store shards own
// one each, and a standalone aggregator shards its own.
//
// Q-Tag's protocol holds every impression open (an in-view waits for its
// out-of-view, "not measured" is what never arrived), so this is the one
// part of the collector whose size follows the campaign, not the request.
// Nothing in it that grows with the number of impressions holds a
// pointer: records live in fixed-size slab chunks addressed by index,
// behind a map[uint32]uint32 from key hash to the newest record of a
// collision chain, and the garbage collector scans neither. What does not
// fit a record — a long key, a third solution, a third open cycle, a seq
// past the seen set's bits — spills (see Entry), so the table is exact,
// never lossy.
//
// A closing table (NewClosing) keeps a compact closed record — the key
// and the seen set — of every impression the TTL sweep or the cap
// closes, behind a second index that stays empty while nothing closes:
// a re-sent beacon of a closed impression is still a duplicate, and a new
// one reopens it with its seen set.
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
	// InlineKey is the longest key an Entry or a closed record holds
	// itself. An impression key is a length byte, the campaign id and the
	// impression id (beacon.Event.AppendImpressionKey); the simulator's
	// and the benchmark's are 20–27 bytes, and 32 rounds the record to 96
	// — a cache line and a half — and the closed record to 48. A longer
	// key (a UUID impression id, say) goes to 64-byte key blocks, which
	// cost it one or two more lines.
	InlineKey = 32

	// inlineSources is how many solutions an Entry tracks itself.
	inlineSources = 2

	// A seen set holds served seqs 0–5 and its inline solutions' loaded,
	// in-view and out-of-view seqs 0–7 as bits; the two bits above the
	// served ones mark the inline solutions that have reported since the
	// impression opened (Source's fresh).
	servedSeqs = 6
	inlineSeqs = 8
	hereBits   = 0xFF &^ (1<<servedSeqs - 1)

	// Records and key blocks are allocated chunkSize at a time (24 and
	// 16 KiB): an index is chunk<<chunkBits | offset, and at most one chunk
	// per shard is partly unused.
	chunkBits = 8
	chunkSize = 1 << chunkBits

	// none ends a collision chain, a recency list, a free list and a key's
	// block chain. A shard cannot hold 2^32-1 records (412 GB), so it is
	// never an index.
	none = ^uint32(0)

	spilledKey = 0xFF // keyField.n of a key held in blocks
	blockData  = 60
)

// Entry is one open impression: a 96-byte record without a pointer.
// Served is the caller's; the rest is reached through the Table.
//
// What spills, and where:
//
//   - a key longer than InlineKey: its length and first block index take
//     the key field's first eight bytes, its bytes a chain of key blocks,
//     which go with the key to its closed record and back;
//   - a solution beyond the first two, one whose name the shard's
//     254-name table has no room for, a waiting stamp pairing.Pending
//     cannot hold, a format beyond the shard's 65 534, a beacon the seen
//     set has no bit for: an overflow struct in the table's side map.
//     That map holds pointers, and is empty on honest traffic.
type Entry struct {
	hash         uint32
	next         uint32 // older record with the same hash; next free record once freed
	older, newer uint32 // recency list
	touched      int64  // arrival clock of the last Open, Unix nanoseconds

	pending  pairing.Pending
	format   uint16 // names id; formatSpilled: see overflow
	seen     seenSet
	srcFlags [inlineSources]uint8
	Served   bool
	spilled  bool // the side map has an overflow for this entry

	key keyField
}

// keyField is an impression's key: inline up to InlineKey bytes, or
// spilled to key blocks.
type keyField struct {
	n     uint8 // the key's length; spilledKey: see Entry
	bytes [InlineKey]byte
}

// seenSet is which beacons of an impression have arrived, as bits (see
// servedSeqs), and the solutions they are filed under: position i < 2 is
// srcID[i], the rest are the overflow's. A beacon it has no bit for is in
// the overflow's seen map.
type seenSet struct {
	srcID [inlineSources]uint8 // names id of a solution; 0: slot unused; nameSpilled: see overflow
	bits  [1 + 3*inlineSources]uint8
}

// Kind is a beacon's type, as a seen set files it.
type Kind uint8

const (
	Served Kind = iota
	Loaded
	InView
	OutOfView
)

// seenBit returns the byte and the bit of bits that hold the beacon
// (kind, solution position pos, seq), or ok false when none does.
func seenBit(kind Kind, pos, seq int) (i int, mask uint8, ok bool) {
	switch {
	case kind == Served && uint(seq) < servedSeqs:
		return 0, 1 << seq, true
	case kind != Served && pos < inlineSources && uint(seq) < inlineSeqs:
		return 1 + 3*pos + int(kind-Loaded), 1 << seq, true
	}
	return 0, 0, false
}

// closedRec is a closed impression: its key and its seen set, on the
// chain of its key's hash; what the seen set spilled is in
// Table.closedOver. It is 48 bytes without a pointer.
type closedRec struct {
	next    uint32 // older closed record with the same hash; next free one once freed
	seen    seenSet
	spilled bool
	key     keyField
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
	here  bool // it has reported since the impression opened
}

// seenKey is a beacon a seen set has no bit for; src is -1 for served.
type seenKey struct {
	seq  int64
	src  int32
	kind Kind
}

// overflow is what an Entry — or, of it, a closed record — has no room
// for.
type overflow struct {
	sources []source // the third solution on, in first-beacon order
	pending pairing.Overflow
	format  string                // valid when Entry.format is formatSpilled
	names   [inlineSources]string // names[i] valid when seen.srcID[i] is nameSpilled
	seen    map[seenKey]struct{}
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
// every key to one of n values (a power of two) in their open and closed
// indexes alike, so that collision chains, unlinking from the middle of
// one and exact key comparison carry whole test suites instead of the
// odd unlucky key. n = 0 lifts the force: those tables use the real hash.
func ForceCollisions(n uint32) (restore func()) {
	old := hashMask
	hashMask = n - 1
	return func() { hashMask = old }
}

// Table is one shard's impressions: the open ones, least recently opened
// first, and — in a closing table — the closed ones.
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

	// The closed records, kept when closing is set.
	closing    bool
	closed     map[uint32]uint32 // key hash → newest closed record of its chain; nil until one closes
	closedRecs slab[closedRec]
	freeClosed uint32
	nclosed    int
	closedOver map[uint32]*overflow

	visits int // see Visits

	// seed keys the index hash, fresh per table: ids come off the wire,
	// and a chain is walked linearly.
	seed maphash.Seed
	mask uint32
}

// New returns an empty table that forgets an impression when it closes:
// what a standalone aggregator, fed only first-seen events, keeps.
func New() *Table {
	return &Table{
		index:   make(map[uint32]uint32),
		freeRec: none, freeBlock: none, freeClosed: none,
		newest: none, oldest: none,
		seed: maphash.MakeSeed(),
		mask: hashMask,
	}
}

// NewClosing returns an empty table that keeps a closed record of every
// impression it closes.
func NewClosing() *Table {
	t := New()
	t.closing = true
	return t
}

// Len returns how many impressions are open.
func (t *Table) Len() int { return t.n }

// Closed returns how many closed records the table keeps.
func (t *Table) Closed() int { return t.nclosed }

// Visits returns how many records — open or closed — and overflow seen
// sets the table's lookups have compared a key or a beacon with: the
// work that stays constant per lookup however many beacons an impression
// carries and however many impressions the table holds, as long as the
// hash spreads them.
func (t *Table) Visits() int { return t.visits }

// Chains returns how many hash chains the open and closed indexes hold —
// at most the ForceCollisions count when that is in force.
func (t *Table) Chains() int { return len(t.index) + len(t.closed) }

func (t *Table) hash(key []byte) uint32 { return uint32(maphash.Bytes(t.seed, key)) & t.mask }

// lookup returns the open record of key, or none, and the head of the
// chain of its hash h, or none.
func (t *Table) lookup(key []byte, h uint32) (at, head uint32) {
	head, ok := t.index[h]
	if !ok {
		return none, none
	}
	for at = head; at != none; at = t.recs.at(at).next {
		// The hash only chooses which records are compared: an impression
		// is the one whose key bytes are these, whatever else shares its
		// chain.
		t.visits++
		if t.holds(&t.recs.at(at).key, key) {
			return at, head
		}
	}
	return none, head
}

// open makes the record at at the most recently opened as of now
// (arrival clock, Unix nanoseconds), or — at is none — opens one for key,
// copied, on the chain of hash h, whose head is head; created is true
// for a new one. An entry stays where it is until it is evicted or
// swept.
func (t *Table) open(h, at, head uint32, key []byte, now int64) (e *Entry, created bool) {
	if at != none {
		e = t.recs.at(at)
		if t.newest != at {
			t.unlink(e)
			t.pushNewest(at, e)
		}
		e.touched = now
		return e, false
	}
	at = t.freeRec
	if at != none {
		t.freeRec = t.recs.at(at).next
	} else {
		at = t.recs.grow()
	}
	e = t.recs.at(at)
	*e = Entry{hash: h, next: head, touched: now}
	t.setKey(&e.key, key)
	t.index[h] = at
	t.pushNewest(at, e)
	t.n++
	return e, true
}

// Probe is Find's lookup of one beacon, for Admit.
type Probe struct {
	hash, at, head uint32 // at: the open record, or none; head: its chain's
	closed         uint32 // the closed record when there is no open one, or none
	pos            int    // the beacon's solution's position on the record; -1: served, or a solution the record has not seen
	kind           Kind
	src            string
	seq            int
}

// Find looks up the impression with this key — open, or else closed —
// and reports whether its beacon (kind, solution src, seq) has arrived
// before: whether the beacon is a duplicate. It changes nothing; src is
// not kept past Admit.
func (t *Table) Find(key []byte, kind Kind, src string, seq int) (p Probe, seen bool) {
	p = Probe{hash: t.hash(key), closed: none, pos: -1, kind: kind, src: src, seq: seq}
	if p.at, p.head = t.lookup(key, p.hash); p.at != none {
		e := t.recs.at(p.at)
		return p, t.has(&p, &e.seen, t.more(e))
	}
	if t.nclosed == 0 {
		return p, false
	}
	head, ok := t.closed[p.hash]
	if !ok {
		return p, false
	}
	for at := head; at != none; at = t.closedRecs.at(at).next {
		c := t.closedRecs.at(at)
		t.visits++
		if t.holds(&c.key, key) {
			p.closed = at
			var o *overflow
			if c.spilled {
				o = t.closedOver[at]
			}
			return p, t.has(&p, &c.seen, o)
		}
	}
	return p, false
}

// has sets p.pos to the position of p's solution in the seen set s with
// overflow o, and reports whether p's beacon is in it.
func (t *Table) has(p *Probe, s *seenSet, o *overflow) bool {
	if p.kind != Served {
		if p.pos = t.position(s, o, p.src); p.pos < 0 {
			return false
		}
	}
	if i, mask, ok := seenBit(p.kind, p.pos, p.seq); ok {
		return s.bits[i]&mask != 0
	}
	if o == nil || o.seen == nil {
		return false
	}
	t.visits++
	_, ok := o.seen[seenKey{int64(p.seq), int32(p.pos), p.kind}]
	return ok
}

// position returns the position of solution name in the seen set s with
// overflow o, or -1.
func (t *Table) position(s *seenSet, o *overflow, name string) int {
	for i := 0; i < inlineSources; i++ {
		switch id := s.srcID[i]; {
		case id == 0: // slots fill in order
			return -1
		case id == nameSpilled && o.names[i] == name, id != nameSpilled && t.sources.name(id) == name:
			return i
		}
	}
	if o != nil {
		for j := range o.sources {
			if o.sources[j].name == name {
				return inlineSources + j
			}
		}
	}
	return -1
}

// Admission is what Admit did with a first-seen beacon.
type Admission struct {
	Entry   *Entry
	Created bool // the impression was not open: Entry is new, or reopened from its closed record
	Src     int  // the beacon's solution's position (SourceAt); -1 for a served beacon
	Fresh   bool // the solution's first beacon since the impression opened
}

// Admit files the beacon Find found p not to have seen, with the
// impression's key: it makes the impression the most recently opened as
// of now — opening it, from its closed record if it has one — and marks
// the beacon seen. Nothing may change the table between Find and Admit.
func (t *Table) Admit(p *Probe, key []byte, now int64) Admission {
	e, created := t.open(p.hash, p.at, p.head, key, now)
	if p.closed != none {
		t.reopen(e, p.hash, p.closed)
	}
	a := Admission{Entry: e, Created: created, Src: -1}
	if p.kind != Served {
		a.Src, _, a.Fresh = t.source(e, p.src, p.pos)
	}
	if i, mask, ok := seenBit(p.kind, a.Src, p.seq); ok {
		e.seen.bits[i] |= mask
	} else {
		o := t.spill(e)
		if o.seen == nil {
			o.seen = make(map[seenKey]struct{})
		}
		o.seen[seenKey{int64(p.seq), int32(a.Src), p.kind}] = struct{}{}
	}
	return a
}

// reopen gives e, just opened with its own copy of the key, the seen set
// and the solutions of the closed record at c, on the chain of hash h,
// and frees the record and its key.
func (t *Table) reopen(e *Entry, h, c uint32) {
	rec := t.closedRecs.at(c)
	t.freeKey(&rec.key)
	e.seen = rec.seen
	if rec.spilled {
		if t.over == nil {
			t.over = make(map[*Entry]*overflow)
		}
		t.over[e], e.spilled = t.closedOver[c], true
		delete(t.closedOver, c)
	}
	unchain(t.closed, h, c, func(i uint32) *uint32 { return &t.closedRecs.at(i).next })
	rec.next, t.freeClosed = t.freeClosed, c
	t.nclosed--
}

// close files e, which is leaving the open records, as a closed record:
// its key — key blocks and all — and its seen set and solutions without
// what they held of the open impression (the flags, the since-open
// marks, the stamps, the format).
func (t *Table) close(e *Entry) {
	c := t.freeClosed
	if c != none {
		t.freeClosed = t.closedRecs.at(c).next
	} else {
		c = t.closedRecs.grow()
	}
	if t.closed == nil {
		t.closed = make(map[uint32]uint32)
	}
	head, chained := t.closed[e.hash]
	if !chained {
		head = none
	}
	rec := t.closedRecs.at(c)
	*rec = closedRec{next: head, seen: e.seen, key: e.key}
	rec.seen.bits[0] &^= hereBits
	if o := t.more(e); o != nil {
		o.pending, o.format = pairing.Overflow{}, ""
		for i := range o.sources {
			o.sources[i].flags, o.sources[i].here = 0, false
		}
		if t.closedOver == nil {
			t.closedOver = make(map[uint32]*overflow)
		}
		t.closedOver[c], rec.spilled = o, true
	}
	t.closed[e.hash] = c
	t.nclosed++
}

// unchain takes record at out of the chain of hash h in index, reaching
// a record's link through next.
func unchain(index map[uint32]uint32, h, at uint32, next func(uint32) *uint32) {
	switch head := index[h]; {
	case head != at:
		for ; *next(head) != at; head = *next(head) {
		}
		*next(head) = *next(at)
	case *next(at) != none:
		index[h] = *next(at)
	default:
		delete(index, h)
	}
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
// list, its key blocks and its overflow released — to its closed record
// in a closing table — its slot the next one open hands out.
func (t *Table) remove(at uint32) {
	e := t.recs.at(at)
	unchain(t.index, e.hash, at, func(i uint32) *uint32 { return &t.recs.at(i).next })
	t.unlink(e)
	if t.closing {
		t.close(e)
	} else {
		t.freeKey(&e.key)
	}
	if e.spilled {
		delete(t.over, e)
	}
	e.next, t.freeRec = t.freeRec, at
	t.n--
}

// setKey stores key in k: inline, or — back to front, so that each block
// knows its successor — in key blocks.
func (t *Table) setKey(k *keyField, key []byte) {
	if len(key) <= InlineKey {
		k.n = uint8(copy(k.bytes[:], key))
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
	k.n = spilledKey
	binary.LittleEndian.PutUint32(k.bytes[0:], uint32(len(key)))
	binary.LittleEndian.PutUint32(k.bytes[4:], next)
}

// freeKey releases k's key blocks, if it has any.
func (t *Table) freeKey(k *keyField) {
	if k.n != spilledKey {
		return
	}
	for b := binary.LittleEndian.Uint32(k.bytes[4:]); b != none; {
		blk := t.blocks.at(b)
		rest := blk.next
		blk.next, t.freeBlock = t.freeBlock, b
		b = rest
	}
}

// holds reports whether k is key, byte for byte.
func (t *Table) holds(k *keyField, key []byte) bool {
	if k.n != spilledKey {
		return string(k.bytes[:k.n]) == string(key)
	}
	if int(binary.LittleEndian.Uint32(k.bytes[0:])) != len(key) {
		return false
	}
	for b := binary.LittleEndian.Uint32(k.bytes[4:]); len(key) > 0; {
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
	for n < inlineSources && e.seen.srcID[n] != 0 {
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
	if e.seen.srcID[i] == nameSpilled {
		return t.over[e].names[i]
	}
	return t.sources.name(e.seen.srcID[i])
}

// source returns solution name's position on e — pos, or a new one when
// pos < 0 — and its progress flags, and whether this is the solution's
// first beacon since the impression opened. The position is the
// solution's index for SourceAt, InView and OutOfView, and does not
// change while the impression is open — nor, in a closing table, while
// it is closed.
func (t *Table) source(e *Entry, name string, pos int) (int, *uint8, bool) {
	if pos < 0 {
		pos = t.addSource(e, name)
	}
	if pos < inlineSources {
		here := uint8(1) << (servedSeqs + pos)
		fresh := e.seen.bits[0]&here == 0
		e.seen.bits[0] |= here
		return pos, &e.srcFlags[pos], fresh
	}
	s := &t.over[e].sources[pos-inlineSources]
	fresh := !s.here
	s.here = true
	return pos, &s.flags, fresh
}

// addSource gives e a position for solution name, which it has none for.
func (t *Table) addSource(e *Entry, name string) int {
	for i := 0; i < inlineSources; i++ {
		if e.seen.srcID[i] == 0 {
			id, ok := t.sources.id(name)
			if !ok {
				t.spill(e).names[i], id = strings.Clone(name), nameSpilled
			}
			e.seen.srcID[i] = id
			return i
		}
	}
	o := t.spill(e)
	o.sources = append(o.sources, source{name: strings.Clone(name)})
	return inlineSources + len(o.sources) - 1
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
func (t *Table) InView(e *Entry, src, seq int, at time.Time) (dwell time.Duration, paired, reversed bool) {
	dwell, paired, reversed, spill := e.pending.InView(t.waiting(e), src, seq, at)
	if spill {
		dwell, paired, reversed, _ = e.pending.InView(&t.spill(e).pending, src, seq, at)
	}
	return dwell, paired, reversed
}

// OutOfView offers the out-of-view of cycle (solution src, seq) to e's
// pending stamps; see pairing.Pending.OutOfView.
func (t *Table) OutOfView(e *Entry, src, seq int, at time.Time) (dwell time.Duration, paired, reversed, orphan bool) {
	dwell, paired, reversed, orphan, spill := e.pending.OutOfView(t.waiting(e), src, seq, at)
	if spill {
		dwell, paired, reversed, orphan, _ = e.pending.OutOfView(&t.spill(e).pending, src, seq, at)
	}
	return dwell, paired, reversed, orphan
}

// Gap offers a loaded or seq-0 in-view to e's stamps; see pairing.Pending.Gap.
func (t *Table) Gap(e *Entry, src int, at time.Time, inView bool) (gap time.Duration, paired bool) {
	gap, paired, spill := e.pending.Gap(t.waiting(e), src, at, inView)
	if spill {
		gap, paired, _ = e.pending.Gap(&t.spill(e).pending, src, at, inView)
	}
	return gap, paired
}
