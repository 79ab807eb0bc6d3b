package pairing

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// refPending is the matcher as it was before stamps went inline: one
// slice of time.Time stamps, every span a time.Time.Sub. Pending plus
// Overflow must answer every offer exactly as it does.
type refPending struct{ stamps []stamp }

func (p *refPending) offer(src, seq int, at time.Time, out bool) (dwell time.Duration, paired, orphan bool) {
	for i, s := range p.stamps {
		if s.seq != seq || s.src != src {
			continue
		}
		if s.out == out {
			return 0, false, false
		}
		p.stamps = append(p.stamps[:i], p.stamps[i+1:]...)
		if out {
			return dwellOf(s.at, at), true, false
		}
		return dwellOf(at, s.at), true, false
	}
	p.stamps = append(p.stamps, stamp{at: at, seq: seq, src: src, out: out})
	return 0, false, out
}

// both is a Pending with its Overflow made on demand, the way
// imptable.Table drives the pair.
type both struct {
	p      Pending
	more   *Overflow
	spills int
}

func (b *both) offer(src, seq int, at time.Time, out bool) (dwell time.Duration, paired, orphan bool) {
	var spill bool
	if out {
		dwell, paired, orphan, spill = b.p.OutOfView(b.more, src, seq, at)
	} else {
		dwell, paired, spill = b.p.InView(b.more, src, seq, at)
	}
	if !spill {
		return dwell, paired, orphan
	}
	if b.more != nil {
		panic("spill reported with an Overflow in hand")
	}
	b.more, b.spills = &Overflow{}, b.spills+1
	if out {
		dwell, paired, orphan, spill = b.p.OutOfView(b.more, src, seq, at)
	} else {
		dwell, paired, spill = b.p.InView(b.more, src, seq, at)
	}
	if spill {
		panic("spill reported twice")
	}
	return dwell, paired, orphan
}

// instants mixes ordinary event times with ones an int64 of nanoseconds
// cannot hold and pairs whose span saturates time.Duration.
var instants = []time.Time{
	time.Unix(1546300800, 0).UTC(),
	time.Unix(1546300800, 999_999_999).UTC(),
	time.Unix(1546300803, 250).UTC(),
	time.Unix(-1, 5).UTC(),
	time.Unix(0, 0).UTC(),
	time.Date(1700, 1, 1, 0, 0, 0, 0, time.UTC), // in int64 range; 1700→2250 saturates
	time.Date(2250, 6, 1, 0, 0, 0, 1, time.UTC),
	time.Date(1, 1, 1, 0, 0, 0, 0, time.UTC), // out of int64 range
	time.Date(9999, 12, 31, 23, 59, 59, 999_999_999, time.UTC),
	time.Unix(maxNanoSec, 999_999_999).UTC(),
	time.Unix(maxNanoSec+1, 0).UTC(),
	time.Unix(-maxNanoSec, 0).UTC(),
	time.Unix(-maxNanoSec-1, 0).UTC(),
}

func TestPendingMatchesTheSliceMatcher(t *testing.T) {
	seqs := []int{0, 1, 2, -1, math.MaxInt16, math.MinInt16, math.MaxInt16 + 1, math.MinInt16 - 1, math.MaxInt32 + 7}
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var ref refPending
		var got both
		// Narrow runs stay inline; wide ones force every kind of spill.
		nsrc, nseq, ntime := 1+rng.Intn(4), 1+rng.Intn(len(seqs)), 1+rng.Intn(len(instants))
		if seed%3 == 0 {
			nsrc, nseq, ntime = 2, 1, 3
		}
		for step := 0; step < 120; step++ {
			src, seq, at, out := rng.Intn(nsrc), seqs[rng.Intn(nseq)], instants[rng.Intn(ntime)], rng.Intn(2) == 0
			wd, wp, wo := ref.offer(src, seq, at, out)
			gd, gp, gorphan := got.offer(src, seq, at, out)
			if wd != gd || wp != gp || wo != gorphan {
				t.Fatalf("seed %d step %d: offer(src %d, seq %d, %v, out %v) = (%v, %v, %v), the slice matcher says (%v, %v, %v)",
					seed, step, src, seq, at, out, gd, gp, gorphan, wd, wp, wo)
			}
		}
		if seed%3 == 0 && got.spills != 0 {
			t.Fatalf("seed %d: two solutions with one open cycle each spilled", seed)
		}
	}
}

// A span that overflows time.Duration saturates exactly as time.Time.Sub
// does, whether the waiting stamp is inline or not, and a negative one
// clamps to zero.
func TestDwellSaturates(t *testing.T) {
	early, late := time.Date(1700, 1, 1, 0, 0, 0, 0, time.UTC), time.Date(2250, 6, 1, 0, 0, 0, 1, time.UTC)
	if late.Sub(early) != math.MaxInt64 {
		t.Fatal("fixture: the span does not saturate")
	}
	for _, more := range []*Overflow{nil, {}} {
		var p Pending
		if _, paired, spill := p.InView(more, 0, 0, early); paired || spill {
			t.Fatalf("in-view did not wait inline (paired %v, spill %v)", paired, spill)
		}
		if d, paired, _, _ := p.OutOfView(more, 0, 0, late); !paired || d != math.MaxInt64 {
			t.Fatalf("dwell = %v paired %v, want the saturated span", d, paired)
		}
		p.OutOfView(more, 1, 3, early)
		if d, paired, _ := p.InView(more, 1, 3, late); !paired || d != 0 {
			t.Fatalf("out-of-view before in-view by 550 years: dwell = %v paired %v, want 0", d, paired)
		}
		if p.bits != 0 {
			t.Fatalf("stamps left waiting: %+v", p)
		}
	}
}
