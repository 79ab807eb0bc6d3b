package imptable

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"
)

// TestRecordsHoldNoPointer: what the table keeps per open or closed
// impression is memory the garbage collector never scans — no pointer,
// string, slice, map, interface, channel or func anywhere in it, which
// also rules out time.Time (it carries a *Location) — and a record is 96
// bytes, a closed one 48.
func TestRecordsHoldNoPointer(t *testing.T) {
	var flat func(path string, typ reflect.Type)
	flat = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Bool, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		case reflect.Array:
			flat(path+"[]", typ.Elem())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				flat(path+"."+typ.Field(i).Name, typ.Field(i).Type)
			}
		default:
			t.Errorf("%s is a %s", path, typ)
		}
	}
	flat("Entry", reflect.TypeOf(Entry{}))
	flat("closedRec", reflect.TypeOf(closedRec{}))
	flat("keyBlock", reflect.TypeOf(keyBlock{}))
	if got := unsafe.Sizeof(Entry{}); got != 96 {
		t.Errorf("Entry is %d bytes, want 96", got)
	}
	if got := unsafe.Sizeof(closedRec{}); got != 48 {
		t.Errorf("closedRec is %d bytes, want 48", got)
	}
	if got := unsafe.Sizeof(keyBlock{}); got != 64 {
		t.Errorf("keyBlock is %d bytes, want 64", got)
	}
}

// modelEntry is what the reference keeps about one open impression.
type modelEntry struct {
	touched int64
	opened  int // sequence number of the last Open: the recency order
	served  bool
	format  string
	sources []string
}

// model is the table's reference: a map[string] and nothing clever.
type model struct {
	open map[string]*modelEntry
	seq  int
}

func (m *model) oldest() string {
	var key string
	var old *modelEntry
	for k, e := range m.open {
		if old == nil || e.opened < old.opened {
			key, old = k, e
		}
	}
	return key
}

// check walks every structure of t and compares it with m.
func (m *model) check(t *testing.T, tab *Table, step int) {
	t.Helper()
	if tab.Len() != len(m.open) {
		t.Fatalf("step %d: Len = %d, the model holds %d", step, tab.Len(), len(m.open))
	}
	// The recency list holds every live record once, coldest first.
	seen, prev, last := 0, none, int64(-1<<63)
	for at := tab.oldest; at != none; at = tab.recs.at(at).newer {
		e := tab.recs.at(at)
		if e.older != prev || e.touched < last {
			t.Fatalf("step %d: recency list broken at record %d (older %d, want %d; touched %d after %d)", step, at, e.older, prev, e.touched, last)
		}
		prev, last = at, e.touched
		seen++
	}
	if seen != len(m.open) || tab.newest != prev {
		t.Fatalf("step %d: recency list holds %d records ending at %d, want %d ending at %d", step, seen, prev, len(m.open), tab.newest)
	}
	// So do the collision chains, each under its own hash.
	chained := 0
	for h, head := range tab.index {
		for at := head; at != none; at = tab.recs.at(at).next {
			if tab.recs.at(at).hash != h {
				t.Fatalf("step %d: record %d with hash %#x is chained under %#x", step, at, tab.recs.at(at).hash, h)
			}
			chained++
		}
	}
	free := 0
	for at := tab.freeRec; at != none; at = tab.recs.at(at).next {
		free++
	}
	if chained != len(m.open) || chained+free != int(tab.recs.used) {
		t.Fatalf("step %d: %d chained + %d free records of %d handed out, model holds %d", step, chained, free, tab.recs.used, len(m.open))
	}
	if len(tab.over) > len(m.open) {
		t.Fatalf("step %d: %d overflows for %d open impressions: eviction leaks them", step, len(tab.over), len(m.open))
	}
}

// payload compares what e holds with what the model says it should.
func (me *modelEntry) payload(t *testing.T, tab *Table, e *Entry, step int, key string) {
	t.Helper()
	if e.Served != me.served || tab.Format(e) != me.format || tab.Sources(e) != len(me.sources) {
		t.Fatalf("step %d: %q holds served %v format %q %d sources, want %v %q %d", step, key, e.Served, tab.Format(e), tab.Sources(e), me.served, me.format, len(me.sources))
	}
	for i, want := range me.sources {
		if name, flags := tab.SourceAt(e, i); name != want || *flags != uint8(len(want)) {
			t.Fatalf("step %d: %q source %d = %q flags %d, want %q flags %d", step, key, i, name, *flags, want, len(want))
		}
	}
}

func runModel(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	tab, m := New(), &model{open: map[string]*modelEntry{}}
	keys := make([]string, 400)
	for i := range keys {
		keys[i] = fmt.Sprintf("\x07camp-%02dimp-%d", i%17, i)
		if i%5 == 0 { // beyond InlineKey, up to three key blocks
			keys[i] += strings.Repeat("-long", 4+i%30)
		}
	}
	sources := []string{"qtag", "commercial", "verifier-a", "verifier-b"}
	now := int64(1_600_000_000_000_000_000)
	var last *Entry
	for step := 0; step < 6000; step++ {
		now += int64(rng.Intn(3)) * int64(time.Second) // may stand still, never runs backwards
		switch op := rng.Intn(10); {
		case op < 7: // open, re-open or touch
			key := keys[rng.Intn(len(keys))]
			e, created := tab.Open([]byte(key), now)
			me := m.open[key]
			if created != (me == nil) {
				t.Fatalf("step %d: Open(%q) created = %v, model has it: %v", step, key, created, me != nil)
			}
			if created {
				me = &modelEntry{}
				m.open[key] = me
			}
			me.payload(t, tab, e, step, key)
			m.seq++
			me.touched, me.opened = now, m.seq
			if rng.Intn(2) == 0 {
				e.Served, me.served = true, true
			}
			if rng.Intn(3) == 0 {
				me.format = []string{"", "display", "video"}[rng.Intn(3)]
				tab.SetFormat(e, me.format)
			}
			if rng.Intn(2) == 0 {
				name := sources[rng.Intn(len(sources))]
				at := -1
				for i, have := range me.sources {
					if have == name {
						at = i
					}
				}
				i, flags, fresh := tab.Source(e, name)
				if fresh != (at < 0) || !fresh && i != at || fresh && i != len(me.sources) {
					t.Fatalf("step %d: Source(%q, %q) = position %d fresh %v, model has it at %d of %d", step, key, name, i, fresh, at, len(me.sources))
				}
				if fresh {
					me.sources = append(me.sources, name)
				}
				*flags = uint8(len(name))
			}
			last = e
		case op < 8: // the cap: the coldest goes, never the one just opened
			if last == nil {
				continue
			}
			// last is the most recently opened, so it is the oldest only alone.
			key, want := m.oldest(), len(m.open) > 1
			if got := tab.EvictOldest(last); got != want {
				t.Fatalf("step %d: EvictOldest = %v with %d open", step, got, len(m.open))
			}
			if want {
				delete(m.open, key)
			}
		case op < 9: // the TTL sweep
			ttl := time.Duration(20+rng.Intn(200)) * time.Second
			want := 0
			for k, me := range m.open {
				if now-me.touched >= int64(ttl) {
					delete(m.open, k)
					want++
				}
			}
			if got := tab.Sweep(now, ttl); got != want {
				t.Fatalf("step %d: Sweep dropped %d, the model %d", step, got, want)
			}
			last = nil
		default:
			m.check(t, tab, step)
		}
	}
	m.check(t, tab, -1)
	for key, me := range m.open {
		e, created := tab.Open([]byte(key), now)
		if created {
			t.Fatalf("%q is open in the model and was not in the table", key)
		}
		me.payload(t, tab, e, -1, key)
	}
	if tab.Len() != len(m.open) {
		t.Fatalf("Len = %d after re-opening the model's %d", tab.Len(), len(m.open))
	}
}

// TestTableMatchesAMap drives random open / touch / pressure-evict /
// sweep / re-open sequences against a map[string] reference: once with
// the real hash, once with every key forced into one of four chains, so
// that chain walks, unlinking from the middle of a chain and slot reuse
// carry the whole run.
func TestTableMatchesAMap(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		runModel(t, seed)
	}
	defer ForceCollisions(4)()
	for seed := int64(1); seed <= 5; seed++ {
		runModel(t, seed)
	}
	if tab := New(); tab.mask != 3 {
		t.Fatalf("ForceCollisions(4) left mask %#x", tab.mask)
	}
}

// TestChurnReusesSlots: turnover at a constant open count takes no slab
// chunk after the first pass and, over ten more table's-worths of it, no
// heap — evicted records, key blocks and overflows are reused, not
// abandoned.
func TestChurnReusesSlots(t *testing.T) {
	const open = 5000
	tab := New()
	var key []byte
	next := 0
	admit := func() {
		key = fmt.Appendf(key[:0], "\x08camp-%03dimpression-%d", next%200, next)
		if next%4 == 0 {
			key = append(key, strings.Repeat("x", 30+next%90)...)
		}
		e, created := tab.Open(key, int64(next))
		if !created {
			panic("key reused")
		}
		if next%50 == 0 {
			tab.Source(e, "a")
			tab.Source(e, "b")
			tab.Source(e, "c") // an overflow
		}
		if tab.Len() > open && !tab.EvictOldest(e) {
			panic("nothing to evict")
		}
		next++
	}
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	for next < 2*open {
		admit()
	}
	recs, blocks := len(tab.recs.chunks), len(tab.blocks.chunks)
	// The index map settles a little later than the slabs: churn leaves it
	// tombstones, and it grows once to make room for them.
	for next < 6*open {
		admit()
	}
	before := heap()
	for next < 16*open {
		admit()
	}
	after := heap()
	if len(tab.recs.chunks) != recs || len(tab.blocks.chunks) != blocks {
		t.Fatalf("slab grew under churn: %d → %d record chunks, %d → %d key-block chunks", recs, len(tab.recs.chunks), blocks, len(tab.blocks.chunks))
	}
	if grew := int64(after) - int64(before); grew > 32<<10 {
		t.Fatalf("HeapAlloc grew %d bytes over ten turnovers at %d open", grew, open)
	}
	if tab.Len() != open || len(tab.over) > open/50+1 {
		t.Fatalf("Len = %d, %d overflows, want %d and at most %d", tab.Len(), len(tab.over), open, open/50+1)
	}
	runtime.KeepAlive(tab)
}

// TestWhatDoesNotFitSpills: the name tables are small on purpose; past
// them, and past two solutions, the entry's overflow takes over and
// nothing is lost or confused.
func TestWhatDoesNotFitSpills(t *testing.T) {
	tab := New()
	// 400 solutions on 200 impressions: the 255th distinct name on has no
	// id and is kept by the entry itself.
	for i := 0; i < 400; i++ {
		e, _ := tab.Open([]byte{byte(i / 2)}, 0)
		name := fmt.Sprintf("solution-%d", i)
		pos, flags, fresh := tab.Source(e, name)
		if !fresh || pos != i%2 {
			t.Fatalf("solution %d: position %d fresh %v", i, pos, fresh)
		}
		*flags = uint8(i)
	}
	for i := 0; i < 400; i++ {
		e, created := tab.Open([]byte{byte(i / 2)}, 0)
		if name, flags := tab.SourceAt(e, i%2); created || name != fmt.Sprintf("solution-%d", i) || *flags != uint8(i) {
			t.Fatalf("solution %d reads back as %q flags %d (created %v)", i, name, *flags, created)
		}
		if pos, _, fresh := tab.Source(e, fmt.Sprintf("solution-%d", i)); fresh || pos != i%2 {
			t.Fatalf("solution %d found again at %d fresh %v", i, pos, fresh)
		}
	}
	if len(tab.sources.list) != 254 {
		t.Fatalf("%d names interned, want the table's 254", len(tab.sources.list))
	}
	// A third and a fourth solution keep their positions after the first two.
	e, _ := tab.Open([]byte{0}, 0)
	for _, c := range []struct {
		name  string
		pos   int
		fresh bool
	}{{"solution-0", 0, false}, {"solution-1", 1, false}, {"third", 2, true}, {"fourth", 3, true}, {"third", 2, false}} {
		if pos, _, fresh := tab.Source(e, c.name); pos != c.pos || fresh != c.fresh {
			t.Fatalf("%q at position %d fresh %v, want %d %v", c.name, pos, fresh, c.pos, c.fresh)
		}
	}
	if tab.Sources(e) != 4 {
		t.Fatalf("Sources = %d, want 4", tab.Sources(e))
	}

	// 70 000 formats: the 65 535th distinct one on is kept by the entry.
	for i := 0; i < 70_000; i++ {
		e, _ := tab.Open(fmt.Appendf(nil, "f%d", i), 0)
		tab.SetFormat(e, fmt.Sprintf("format-%d", i))
	}
	for _, i := range []int{0, 65_533, 65_534, 69_999} {
		e, _ := tab.Open(fmt.Appendf(nil, "f%d", i), 0)
		if got := tab.Format(e); got != fmt.Sprintf("format-%d", i) {
			t.Fatalf("format %d reads back as %q", i, got)
		}
	}
	e, _ = tab.Open([]byte("f69999"), 0)
	tab.SetFormat(e, "format-0") // back to one the table knows
	if tab.Format(e) != "format-0" || e.format == formatSpilled {
		t.Fatalf("format = %q (id %d) after moving to an interned one", tab.Format(e), e.format)
	}
}
