package beacon

import (
	"errors"
	"hash/maphash"
	"sort"
	"strings"
	"sync"
)

// names interns the strings one shard's records refer to instead of
// repeating them (see arena). The shard lock guards it.
type names struct {
	ids  map[string]uint32
	strs []string // strs[id-1]; id 0 is ""
}

// A record's strings are interned only while they are at most
// maxInternedLen bytes and the shard holds fewer than maxInternedNames
// names; past either they are kept in the record as literals. A tag may
// fill them with anything, and this keeps a table that every record can
// point into from growing with them.
const (
	maxInternedNames = 1 << 16
	maxInternedLen   = 64
)

// id returns s's number when s is short and either interned already or
// still has room in the table, and 0 otherwise: a non-empty string under
// 0 is kept as a literal. A string is cloned the first time it is
// numbered: s usually aliases a request body, and the table outlives the
// request.
func (n *names) id(s string) uint32 {
	if s == "" || len(s) > maxInternedLen {
		return 0
	}
	if id, ok := n.ids[s]; ok {
		return id
	}
	if len(n.strs) >= maxInternedNames {
		return 0
	}
	s = strings.Clone(s)
	n.strs = append(n.strs, s)
	n.ids[s] = uint32(len(n.strs))
	return uint32(len(n.strs))
}

func (n *names) str(id uint32) string {
	if id == 0 {
		return ""
	}
	return n.strs[id-1]
}

// eventNames are a first-seen event's campaign and Meta strings as
// numbers in its shard's names (0 for a literal).
type eventNames struct {
	campaign, os, siteType, exchange, country, adSize, format, slot uint32
}

// intern numbers e's strings, adding those the shard has room for.
func (n *names) intern(e *Event) eventNames {
	return eventNames{
		campaign: n.id(e.CampaignID),
		os:       n.id(e.Meta.OS),
		siteType: n.id(e.Meta.SiteType),
		exchange: n.id(e.Meta.Exchange),
		country:  n.id(e.Meta.Country),
		adSize:   n.id(e.Meta.AdSize),
		format:   n.id(e.Meta.Format),
		slot:     n.id(e.Meta.Slot),
	}
}

// field reads one string of an event encoding at off: a length-prefixed
// string when n is nil — the wire form — and otherwise a reference into
// n, the store form (see arena). The result aliases s or is n's own.
func (n *names) field(s string, off int) (string, int, bool) {
	v, off, ok := uvarintStr(s, off)
	if !ok {
		return "", 0, false
	}
	if n != nil {
		if v&1 == 0 {
			if v>>1 > uint64(len(n.strs)) {
				return "", 0, false
			}
			return n.str(uint32(v >> 1)), off, true
		}
		v >>= 1 // a literal's length
	}
	if v > uint64(len(s)-off) {
		return "", 0, false
	}
	end := off + int(v)
	return s[off:end], end, true
}

// ErrStoreFull reports a first-seen event whose shard already holds as
// many record chunks as a record handle can address (4 GiB of encoded
// events in one shard). The event is not stored and no observer fires.
var ErrStoreFull = errors.New("beacon: store shard is full")

// storeShard is one independently locked partition of the store: its own
// records and dedup index, so concurrent Submits on different
// impressions never contend on a shared mutex. Read paths (Len, Events,
// ArenaBytes) merge across shards under per-shard RLocks.
//
// Neither the arena nor the index holds a pointer, so what the store
// keeps per event is invisible to the garbage collector. index maps 32
// bits of a seeded hash to the newest record of its chain; the records
// of a chain link to one another, and a chain is only ever a candidate
// list — see arena.holds. The hash is of the impression key
// (Event.AppendImpressionKey) for an impression's first
// impressionChainMax records, so one entry serves all the beacons of a
// common impression and a later one can follow on its anchor (see
// arena); a record beyond those goes on the chain of its idempotency
// key's hash instead.
type storeShard struct {
	mu    sync.RWMutex
	arena arena
	index map[uint32]uint32
	names names
}

// impressionChainMax bounds an impression chain, and so the walk of a
// lookup: one impression chain, and, only when that one is full, one key
// chain. Without it one impression carrying many distinct Seq values
// would cost a walk over all of them per event — quadratic in the
// impression. A bench-shaped impression has three or four records.
const impressionChainMax = 16

// chain returns the head of the chain of hash h, or noRecord.
func (sh *storeShard) chain(h uint32) uint32 {
	if head, ok := sh.index[h]; ok {
		return head
	}
	return noRecord
}

// find walks the chain from head for a record of e's idempotency key,
// and returns whether it holds one and how many records it compared.
func (sh *storeShard) find(head uint32, e *Event) (bool, int) {
	walked := 0
	for at := head; at != noRecord; at = sh.arena.next(at) {
		if sh.arena.holds(at, e, &sh.names) {
			return true, walked
		}
		walked++
	}
	return false, walked
}

// Store is an idempotent, thread-safe, in-memory event store, sharded by
// impression-ID hash so the ingest path scales with cores. It is the
// reference implementation of the DSP's "distributed monitoring
// infrastructure" (§5) collapsed to a single process; the HTTP Server
// exposes it over the wire. It keeps events and counts nothing: the
// observers it feeds (internal/aggregate) do the counting.
type Store struct {
	shards []storeShard
	mask   uint32 // len(shards)-1; shard count is a power of two

	// observers are invoked, in registration order, for every first-seen
	// event while the event's shard lock is held — duplicates never reach
	// them. See AddObserver.
	observers []func(Event)
	// dupObservers are invoked, in registration order, for every
	// duplicate submission (same idempotency key as a stored event),
	// under the same shard lock. First-seen events never reach them; the
	// two hook sets partition every valid submission. See AddDupObserver.
	dupObservers []func(Event)

	// seed keys the index hashes, fresh per store. hashMask is all ones;
	// the collision tests zero it so that every record of a shard shares
	// one chain.
	seed     maphash.Seed
	hashMask uint32
}

// DefaultStoreShards is the shard count NewStore picks.
const DefaultStoreShards = 16

// maxStoreShards bounds NewStoreWithShards; beyond this the per-shard
// fixed overhead dominates any contention win.
const maxStoreShards = 1024

// NewStore returns an empty store with DefaultStoreShards shards.
func NewStore() *Store { return NewStoreWithShards(DefaultStoreShards) }

// NewStoreWithShards returns an empty store partitioned into n shards,
// rounded up to the next power of two and clamped to [1, 1024]. One
// shard reproduces the seed single-lock store exactly (the equivalence
// property tests assert this); the shard count never changes observable
// behaviour, only contention.
func NewStoreWithShards(n int) *Store {
	if n < 1 {
		n = 1
	}
	if n > maxStoreShards {
		n = maxStoreShards
	}
	// Round up to a power of two so shard selection is a mask, not a mod.
	size := 1
	for size < n {
		size <<= 1
	}
	s := &Store{
		shards:   make([]storeShard, size),
		mask:     uint32(size - 1),
		seed:     maphash.MakeSeed(),
		hashMask: ^uint32(0),
	}
	for i := range s.shards {
		s.shards[i].index = make(map[uint32]uint32)
		s.shards[i].names.ids = make(map[string]uint32)
	}
	return s
}

// Shards returns the store's shard count (always a power of two).
func (s *Store) Shards() int { return len(s.shards) }

// AddObserver appends a first-seen-event hook: fn is called exactly
// once per distinct idempotency key, under the event's shard lock, so
// for any one impression the calls are serialized in store-insertion
// order and atomic with the insertion itself. Duplicate submissions
// never fire it — an observer inherits the store's dedup for free,
// which is what lets the streaming aggregation and fraud-detection
// layers stay idempotent under at-least-once beacon delivery and WAL
// replay. Multiple observers fan out in registration order on every
// first-seen event; each sees exactly the same event stream.
//
// AddObserver must be called before the store starts ingesting (it is
// not synchronized against concurrent Submits), and fn must not call
// back into the store.
func (s *Store) AddObserver(fn func(Event)) { s.observers = append(s.observers, fn) }

// AddDupObserver appends a duplicate-submission hook: fn is called,
// under the event's shard lock, every time a valid submission is
// absorbed as a duplicate of an already-stored event. First-seen
// events never fire it. Idempotent delivery makes duplicates invisible
// to counters by design, so this hook is the only place duplicate
// *pressure* — HTTP retry storms, bot farms replaying captured beacons
// — is observable; internal/detect feeds its flood detector from it.
// The server journals every accepted submission (not just first-seen
// ones), so a WAL replay into an empty store re-fires dup hooks for
// the same submissions and duplicate statistics rebuild with the rest.
//
// Like AddObserver, it must be registered before ingest starts and fn
// must not call back into the store.
func (s *Store) AddDupObserver(fn func(Event)) { s.dupObservers = append(s.dupObservers, fn) }

// shardIndex picks the shard for an impression via the shared addressing
// hash (HashID): every event of one impression (and therefore every
// duplicate of one idempotency key) lands in the same shard. The same
// hash drives node selection in internal/cluster, so in-process and
// cross-node routing never disagree about an impression.
func (s *Store) shardIndex(impressionID string) uint32 { return HashID(impressionID) & s.mask }

// Submit validates and stores the event. Duplicate submissions (same
// idempotency key) are silently absorbed: at-least-once delivery from tags
// never reaches the observers twice. Submit implements Sink.
func (s *Store) Submit(e Event) error {
	if err := e.Validate(); err != nil {
		return err
	}
	sh := &s.shards[s.shardIndex(e.ImpressionID)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return s.applyLocked(sh, e)
}

// applyLocked stores one validated event in its shard, whose lock the
// caller holds, and fires the first-seen or the duplicate observers.
// Nothing it keeps aliases e's strings: the record is a copy, and an
// interned string is cloned when — and only when — the shard first sees
// it. A full shard may still have interned a refused event's strings;
// they are unreachable from any record.
func (s *Store) applyLocked(sh *storeShard, e Event) error {
	// The hash inputs are built in a stack buffer: the impression key,
	// and past an impression chain's bound the display key, whose '|'
	// ambiguity is harmless here — a hash picks a chain, and every record
	// on it is compared with e field by field.
	var kb [96]byte
	h := uint32(maphash.Bytes(s.seed, e.AppendImpressionKey(kb[:0]))) & s.hashMask
	head := sh.chain(h)
	found, walked := sh.find(head, &e)
	prev := head
	if !found && walked >= impressionChainMax {
		h = uint32(maphash.Bytes(s.seed, e.AppendKey(kb[:0]))) & s.hashMask
		prev = sh.chain(h)
		found, _ = sh.find(prev, &e)
	}
	if found {
		for _, fn := range s.dupObservers {
			fn(e)
		}
		return nil
	}
	ids := sh.names.intern(&e)
	at, err := sh.arena.append(prev, head, &e, &ids)
	if err != nil {
		return err
	}
	sh.index[h] = at
	for _, fn := range s.observers {
		fn(e)
	}
	return nil
}

// batchScratch is SubmitBatch's per-call working memory: a counting sort
// of the event positions by shard.
type batchScratch struct {
	shard []uint32 // shard[i] is events[i]'s shard
	next  []int    // per shard: its event count, then its cursor into order
	order []int    // event positions grouped by shard, request order within one
}

var batchScratchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// SubmitBatch implements BatchSink: one request's events applied with
// each shard lock taken once. Every event is validated before any is
// stored, so an invalid event rejects the batch whole and leaves the
// store untouched; the only other error is ErrStoreFull, which leaves
// out exactly the first-seen events of the full shards. The events of
// one shard — and so of one impression, and of one idempotency key — are
// applied in request order under that shard's lock with the first-seen
// and duplicate observers fired per event, exactly as a Submit of each
// in turn would; only the interleaving across shards differs, which no
// observer can see (they are keyed by impression).
func (s *Store) SubmitBatch(events []Event) error {
	for i := range events {
		if err := events[i].Validate(); err != nil {
			return err
		}
	}
	sc := batchScratchPool.Get().(*batchScratch)
	defer batchScratchPool.Put(sc)
	sc.shard = sc.shard[:0]
	sc.next = append(sc.next[:0], make([]int, len(s.shards))...)
	for i := range events {
		k := s.shardIndex(events[i].ImpressionID)
		sc.shard = append(sc.shard, k)
		sc.next[k]++
	}
	begin := 0
	for k, n := range sc.next {
		sc.next[k] = begin
		begin += n
	}
	sc.order = append(sc.order[:0], make([]int, len(events))...)
	for i, k := range sc.shard {
		sc.order[sc.next[k]] = i
		sc.next[k]++
	}
	// Each cursor has run to the end of its shard's span, which is where
	// the next shard's begins.
	from := 0
	var first error
	for k, to := range sc.next {
		if from < to {
			if err := s.applyShard(&s.shards[k], events, sc.order[from:to]); err != nil && first == nil {
				first = err
			}
		}
		from = to
	}
	return first
}

// applyShard applies the events at the given positions under one hold of
// the shard's lock. A full shard (ErrStoreFull) refuses its first-seen
// events and goes on absorbing its duplicates; the first refusal is
// returned.
func (s *Store) applyShard(sh *storeShard, events []Event, at []int) error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	var first error
	for _, i := range at {
		if err := s.applyLocked(sh, events[i]); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// ArenaBytes returns the memory reserved for stored events: the summed
// capacity of every shard's record chunks.
func (s *Store) ArenaBytes() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		n += sh.arena.bytes
		sh.mu.RUnlock()
	}
	return n
}

// Len returns the number of distinct stored events.
func (s *Store) Len() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		n += sh.arena.records
		sh.mu.RUnlock()
	}
	return n
}

// Events returns all stored events sorted by (campaign, impression,
// source, type, seq) for deterministic inspection. It decodes every
// record, so it costs a pass over the whole store; the result is a copy
// and safe to retain. Each event is what the binary codec keeps of the
// first submission under its key: every field but Deadline, with At as
// the same instant in UTC. The merge takes shard locks one at a time, so
// the result is a consistent snapshot only of each shard, not of the
// whole store — fine for an append-only event set.
func (s *Store) Events() []Event {
	out := make([]Event, 0, s.Len())
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		out = sh.arena.events(out, &sh.names)
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.CampaignID != b.CampaignID {
			return a.CampaignID < b.CampaignID
		}
		if a.ImpressionID != b.ImpressionID {
			return a.ImpressionID < b.ImpressionID
		}
		if a.Source != b.Source {
			return a.Source < b.Source
		}
		if a.Type != b.Type {
			return a.Type < b.Type
		}
		return a.Seq < b.Seq
	})
	return out
}
