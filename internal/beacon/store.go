package beacon

import (
	"errors"
	"sort"
	"strings"
	"sync"
	"time"

	"qtag/internal/imptable"
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
// records and impression table, so concurrent Submits on different
// impressions never contend on a shared mutex. Read paths (Len, Events,
// ArenaBytes) merge across shards under per-shard RLocks.
//
// imps holds one record per impression (internal/imptable): its seen set
// decides whether an event is first-seen or a duplicate, in one probe,
// and its anchor is the handle of the impression's newest anchor in the
// arena, which a later event follows on. The fold an attached aggregator
// installs keeps its own state in the same record, under the same lock.
// A record the aggregator's TTL sweep or cap closes stays as a closed
// record — anchor and seen set — which sameImpression tells from the
// others of its hash chain. Neither the arena nor the records hold a
// pointer, so what the store keeps per event is invisible to the garbage
// collector.
type storeShard struct {
	mu    sync.RWMutex
	arena arena
	names names
	imps  *imptable.Table
}

// sameImpression reports whether the anchor at h is of the impression
// with this key (Event.AppendImpressionKey).
func (sh *storeShard) sameImpression(h uint32, key []byte) bool {
	s := aliasString(sh.arena.event(h))
	hd, ok := readAnchor(s)
	if !ok {
		return false
	}
	imp, off, ok := strField(s, hd.body)
	if !ok {
		return false
	}
	camp, _, ok := sh.names.field(s, off)
	var kb [96]byte
	return ok && string(Event{CampaignID: camp, ImpressionID: imp}.AppendImpressionKey(kb[:0])) == string(key)
}

// Kind files a valid event's type in an impression's seen set.
func (t EventType) Kind() imptable.Kind {
	switch t {
	case EventLoaded:
		return imptable.Loaded
	case EventInView:
		return imptable.InView
	case EventOutOfView:
		return imptable.OutOfView
	}
	return imptable.Served
}

// A Fold is the first-seen observer that keeps its state in the store's
// impression records (see AttachFold): t is the event's shard's table,
// a what it did with the event, now the arrival clock's reading for it.
type Fold func(t *imptable.Table, a imptable.Admission, e Event, now time.Time)

// Store is an idempotent, thread-safe, in-memory event store, sharded by
// impression-ID hash so the ingest path scales with cores. It is the
// reference implementation of the DSP's "distributed monitoring
// infrastructure" (§5) collapsed to a single process; the HTTP Server
// exposes it over the wire. It keeps events and counts nothing: the
// observers it feeds (internal/aggregate) do the counting.
type Store struct {
	shards []storeShard
	mask   uint32 // len(shards)-1; shard count is a power of two

	// fold and now are what AttachFold installed, or nil.
	fold Fold
	now  func() time.Time
	// observers are invoked, in registration order, for every first-seen
	// event while the event's shard lock is held, after fold — duplicates
	// never reach them. See AddObserver.
	observers []func(Event)
	// dupObservers are invoked, in registration order, for every
	// duplicate submission (same idempotency key as a stored event),
	// under the same shard lock. First-seen events never reach them; the
	// two hook sets partition every valid submission. See AddDupObserver.
	dupObservers []func(Event)
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
	s := &Store{shards: make([]storeShard, size), mask: uint32(size - 1)}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.names.ids = make(map[string]uint32)
		sh.imps = imptable.NewClosing(sh.sameImpression)
	}
	return s
}

// Shards returns the store's shard count (always a power of two).
func (s *Store) Shards() int { return len(s.shards) }

// AttachFold installs fold as the store's first observer: it runs on
// every first-seen event, under the event's shard lock, with the record
// the store found the event new in — the one impression record that
// both decides dedup and holds the fold's state — and the reading of now
// the record was touched with. It may close records of the table it is
// handed (imptable.Table.EvictOldest); Impressions reaches the rest. Like
// AddObserver, call it before the store ingests; a store takes one.
func (s *Store) AttachFold(now func() time.Time, fold Fold) {
	if s.fold != nil {
		panic("beacon: a store takes one fold")
	}
	s.fold, s.now = fold, now
}

// Impressions calls f with each shard's impression table under the
// shard's lock, one at a time: how an attached fold's owner sweeps them.
// f must not call back into the store.
func (s *Store) Impressions(f func(t *imptable.Table)) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		f(sh.imps)
		sh.mu.Unlock()
	}
}

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
// caller holds, and fires the fold and the first-seen observers or the
// duplicate observers. One probe of the shard's impression table decides
// which. Nothing it keeps aliases e's strings: the record is a copy, and
// an interned string is cloned when — and only when — the shard first
// sees it. A full shard may still have interned a refused event's
// strings; they are unreachable from any record.
func (s *Store) applyLocked(sh *storeShard, e Event) error {
	var kb [96]byte // the table copies the key when it opens the impression
	key := e.AppendImpressionKey(kb[:0])
	p, seen := sh.imps.Find(key, e.Type.Kind(), string(e.Source), e.Seq)
	if seen {
		for _, fn := range s.dupObservers {
			fn(e)
		}
		return nil
	}
	anchor := sh.imps.Anchor(&p)
	ids := sh.names.intern(&e)
	at, anchored, err := sh.arena.append(anchor, &e, &ids)
	if err != nil {
		return err
	}
	if anchored {
		anchor = at
	}
	var now time.Time
	var nowNs int64 // a bare store's records are never swept: its clock stands
	if s.now != nil {
		now = s.now()
		nowNs = now.UnixNano()
	}
	a := sh.imps.Admit(&p, key, nowNs, anchor)
	if s.fold != nil {
		s.fold(sh.imps, a, e, now)
	}
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
