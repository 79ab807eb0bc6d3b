package beacon

import (
	"cmp"
	"slices"
	"sync"
	"time"

	"qtag/internal/imptable"
)

// storeShard is one independently locked partition of the store: its
// impression table and how many first-seen events it has applied, so
// concurrent Submits on different impressions never contend on a shared
// mutex. Len merges the counters under per-shard RLocks.
//
// imps holds one record per impression (internal/imptable): its seen set
// decides whether an event is first-seen or a duplicate, in one probe.
// The fold an attached aggregator installs keeps its own state in the
// same record, under the same lock. A record the aggregator's TTL sweep
// or cap closes stays as a closed record — key and seen set — so that
// dedup stays exact across close and reopen. The store keeps no event:
// the WAL is the archive (DESIGN.md §9, §10), and nothing the table
// holds per impression is a pointer the garbage collector scans.
type storeShard struct {
	mu     sync.RWMutex
	imps   *imptable.Table
	events int // first-seen events applied
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
// exposes it over the wire. It decides which events are first-seen and
// counts nothing else: the observers it feeds (internal/aggregate) do
// the counting, and a Recorder keeps the events for whoever reads them
// back.
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
		s.shards[i].imps = imptable.NewClosing()
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

// Submit validates and applies the event. Duplicate submissions (same
// idempotency key) are silently absorbed: at-least-once delivery from
// tags never reaches the observers twice. Submit implements Sink.
func (s *Store) Submit(e Event) error {
	if err := e.Validate(); err != nil {
		return err
	}
	sh := &s.shards[s.shardIndex(e.ImpressionID)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	s.applyLocked(sh, e)
	return nil
}

// applyLocked applies one validated event in its shard, whose lock the
// caller holds, and fires the fold and the first-seen observers or the
// duplicate observers. One probe of the shard's impression table decides
// which. Nothing it keeps aliases e's strings: the table copies the key
// when it opens the impression.
func (s *Store) applyLocked(sh *storeShard, e Event) {
	var kb [96]byte
	key := e.AppendImpressionKey(kb[:0])
	p, seen := sh.imps.Find(key, e.Type.Kind(), string(e.Source), e.Seq)
	if seen {
		for _, fn := range s.dupObservers {
			fn(e)
		}
		return
	}
	var now time.Time
	var nowNs int64 // a bare store's records are never swept: its clock stands
	if s.now != nil {
		now = s.now()
		nowNs = now.UnixNano()
	}
	a := sh.imps.Admit(&p, key, nowNs)
	sh.events++
	if s.fold != nil {
		s.fold(sh.imps, a, e, now)
	}
	for _, fn := range s.observers {
		fn(e)
	}
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
// applied, so an invalid event — the only error — rejects the batch
// whole and leaves the store untouched. The events of one shard — and so of one impression, and of one idempotency key — are
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
	for k, to := range sc.next {
		if from < to {
			s.applyShard(&s.shards[k], events, sc.order[from:to])
		}
		from = to
	}
	return nil
}

// applyShard applies the events at the given positions under one hold of
// the shard's lock.
func (s *Store) applyShard(sh *storeShard, events []Event, at []int) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for _, i := range at {
		s.applyLocked(sh, events[i])
	}
}

// Len returns the number of distinct events applied.
func (s *Store) Len() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		n += sh.events
		sh.mu.RUnlock()
	}
	return n
}

// Recorder keeps a copy of every first-seen event of the store it is
// attached to (Record): the stream the store's observers see, for a
// reader that wants the events back — a library user, a test, a
// snapshot. It keeps each event as its binary codec encoding, back to
// back in one buffer, so a recorded event costs its encoded size and no
// pointer (TestMemoryBudgets); Events decodes them. A decoded
// copy is what the codec keeps of the event: every field but Deadline,
// with At as the same instant in UTC. The store itself keeps no event.
type Recorder struct {
	mu  sync.Mutex
	buf []byte
	n   int // events in buf
}

// Record attaches a Recorder to s as a first-seen observer. Like
// AddObserver, call it before s ingests.
func Record(s *Store) *Recorder {
	r := &Recorder{}
	s.AddObserver(r.add)
	return r
}

func (r *Recorder) add(e Event) {
	r.mu.Lock()
	r.buf = AppendBinaryEvent(r.buf, e)
	r.n++
	r.mu.Unlock()
}

// Events returns the recorded events sorted by (campaign, impression,
// source, type, seq) for deterministic inspection. The result is safe to
// retain: its strings are views of recorded bytes, which are never
// rewritten.
func (r *Recorder) Events() []Event {
	rec, keys := r.sorted()
	out := make([]Event, len(keys))
	for i, k := range keys {
		out[i] = rec.at(k.off)
	}
	return out
}

// recording is a view of a Recorder's bytes. Appends only write past
// its end, so the view stays valid while the Recorder records on.
type recording string

// at decodes the event encoded at off.
func (rec recording) at(off int) Event {
	e, _, err := decodeEventStr(string(rec), off)
	if err != nil {
		panic("beacon: a recorded event does not decode: " + err.Error())
	}
	return e
}

// recKey is what orders a recorded event, and where its encoding starts:
// a third of an Event's size, so sorting a recording holds no decoded copy
// of it.
type recKey struct {
	campaign, impression string
	source               Source
	typ                  EventType
	seq                  int
	off                  int
}

// sorted returns a view of the recording and its events' keys in Events'
// order.
func (r *Recorder) sorted() (recording, []recKey) {
	r.mu.Lock()
	rec, n := recording(aliasString(r.buf)), r.n
	r.mu.Unlock()
	keys := make([]recKey, 0, n)
	for off := 0; off < len(rec); {
		e, next, err := decodeEventStr(string(rec), off)
		if err != nil {
			panic("beacon: a recorded event does not decode: " + err.Error())
		}
		keys = append(keys, recKey{e.CampaignID, e.ImpressionID, e.Source, e.Type, e.Seq, off})
		off = next
	}
	slices.SortFunc(keys, func(a, b recKey) int {
		if c := cmp.Compare(a.campaign, b.campaign); c != 0 {
			return c
		}
		if c := cmp.Compare(a.impression, b.impression); c != 0 {
			return c
		}
		if c := cmp.Compare(a.source, b.source); c != 0 {
			return c
		}
		if c := cmp.Compare(a.typ, b.typ); c != 0 {
			return c
		}
		return cmp.Compare(a.seq, b.seq)
	})
	return rec, keys
}
