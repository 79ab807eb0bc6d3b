package keydir

import (
	"math/rand/v2"
	"slices"
	"strconv"
	"testing"
)

type rec struct{ id string }

// TestOrderMergesPendingInKeyOrder: after any run of adds and walks,
// Order returns exactly the records added, in key order, the same record
// twice never.
func TestOrderMergesPendingInKeyOrder(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewPCG(seed, 2))
		d := new(Dir[rec])
		d.Init(func(r *rec) string { return r.id })
		added := map[string]bool{}
		for step := 0; step < 3000; step++ {
			id := "k" + strconv.Itoa(rng.IntN(400))
			switch op := rng.IntN(10); {
			case op < 8 && !added[id]:
				added[id] = true
				d.Add(&rec{id: id})
			case op == 9:
				var want []string
				for id := range added {
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
