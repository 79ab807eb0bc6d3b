package keydir

import (
	"math/rand/v2"
	"slices"
	"strconv"
	"sync/atomic"
	"testing"
)

type rec struct {
	id   string
	gone atomic.Bool
}

func newDir() *Dir[rec] {
	d := new(Dir[rec])
	d.Init(func(r *rec) string { return r.id }, func(r *rec) bool { return r.gone.Load() })
	return d
}

// TestOrderMergesPendingInKeyOrder: after any run of adds, departures
// and walks, Order returns exactly the live records in key order, the
// same record twice never.
func TestOrderMergesPendingInKeyOrder(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewPCG(seed, 2))
		d := newDir()
		live := map[string]*rec{}
		for step := 0; step < 3000; step++ {
			id := "k" + strconv.Itoa(rng.IntN(200))
			switch op := rng.IntN(10); {
			case op < 5 && live[id] == nil:
				live[id] = &rec{id: id}
				d.Add(live[id])
			case op < 8 && live[id] != nil:
				live[id].gone.Store(true)
				delete(live, id)
			case op == 9:
				var want []string
				for id := range live {
					want = append(want, id)
				}
				slices.Sort(want)
				var got []string
				for _, r := range d.Order() {
					got = append(got, r.id)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("seed %d, step %d: Order = %v, want %v", seed, step, got, want)
				}
			}
		}
	}
}

// TestPendingBoundedWithoutWalks: records that come and go with no walk
// to merge them leave the pending list before it grows, so churn does
// not grow it past twice what is live.
func TestPendingBoundedWithoutWalks(t *testing.T) {
	d := newDir()
	var prev *rec
	for i := 0; i < 100_000; i++ {
		r := &rec{id: strconv.Itoa(i)}
		d.Add(r)
		if prev != nil {
			prev.gone.Store(true)
		}
		prev = r
	}
	if n := cap(d.pending); n > 4 {
		t.Fatalf("pending list grew to %d slots for one live record", n)
	}
	if got := d.Order(); len(got) != 1 || got[0] != prev {
		t.Fatalf("Order = %d records, want the one live", len(got))
	}
}
