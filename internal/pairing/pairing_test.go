package pairing

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// refPending is the matcher as it was before stamps went inline: one
// slice of time.Time stamps, every span a time.Time.Sub. Pending plus
// Overflow must answer every offer exactly as it does. A gap's seq is 0;
// its span is signed, a cycle's clamps to zero and says it did.
type refPending struct{ stamps []stamp }

func (p *refPending) offer(src, seq int, at time.Time, out, gap bool) (span time.Duration, paired, reversed, orphan bool) {
	for i, s := range p.stamps {
		if s.seq != seq || s.src != src || (s.kind&bitGap != 0) != gap {
			continue
		}
		if (s.kind&bitOut != 0) == out {
			return 0, false, false, false
		}
		p.stamps = append(p.stamps[:i], p.stamps[i+1:]...)
		first, second := s.at, at
		if !out {
			first, second = at, s.at
		}
		if gap {
			return second.Sub(first), true, false, false
		}
		span, reversed = dwellOf(first, second)
		return span, true, reversed, false
	}
	kind := uint8(0)
	if out {
		kind |= bitOut
	}
	if gap {
		kind |= bitGap
	}
	p.stamps = append(p.stamps, stamp{at: at, seq: seq, src: src, kind: kind})
	return 0, false, false, out && !gap
}

// both is a Pending with its Overflow made on demand, the way
// imptable.Table drives the pair.
type both struct {
	p      Pending
	more   *Overflow
	spills int
}

func (b *both) offer(src, seq int, at time.Time, out, gap bool) (span time.Duration, paired, reversed, orphan bool) {
	call := func() (spill bool) {
		switch {
		case gap:
			span, paired, spill = b.p.Gap(b.more, src, at, out)
		case out:
			span, paired, reversed, orphan, spill = b.p.OutOfView(b.more, src, seq, at)
		default:
			span, paired, reversed, spill = b.p.InView(b.more, src, seq, at)
		}
		return spill
	}
	if !call() {
		return span, paired, reversed, orphan
	}
	if b.more != nil {
		panic("spill reported with an Overflow in hand")
	}
	b.more, b.spills = &Overflow{}, b.spills+1
	if call() {
		panic("spill reported twice")
	}
	return span, paired, reversed, orphan
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
		// Every other seed mixes in gaps; seed%6 == 0 then has each of two
		// solutions waiting on one pair at a time, which fits inline.
		gaps := seed%2 == 0
		for step := 0; step < 120; step++ {
			src, seq, at, out := rng.Intn(nsrc), seqs[rng.Intn(nseq)], instants[rng.Intn(ntime)], rng.Intn(2) == 0
			gap := gaps && rng.Intn(2) == 0
			if gap {
				seq = 0
			}
			wd, wp, wr, wo := ref.offer(src, seq, at, out, gap)
			gd, gp, gr, gorphan := got.offer(src, seq, at, out, gap)
			if wd != gd || wp != gp || wr != gr || wo != gorphan {
				t.Fatalf("seed %d step %d: offer(src %d, seq %d, %v, out %v, gap %v) = (%v, %v, %v, %v), the slice matcher says (%v, %v, %v, %v)",
					seed, step, src, seq, at, out, gap, gd, gp, gr, gorphan, wd, wp, wr, wo)
			}
		}
		if seed%3 == 0 && !gaps && got.spills != 0 {
			t.Fatalf("seed %d: two solutions with one open cycle each spilled", seed)
		}
	}
}

// A span that overflows time.Duration saturates exactly as time.Time.Sub
// does, whether the waiting stamp is inline or not; a negative dwell
// clamps to zero and is reported reversed, a negative gap is kept.
func TestDwellSaturates(t *testing.T) {
	early, late := time.Date(1700, 1, 1, 0, 0, 0, 0, time.UTC), time.Date(2250, 6, 1, 0, 0, 0, 1, time.UTC)
	if late.Sub(early) != math.MaxInt64 {
		t.Fatal("fixture: the span does not saturate")
	}
	for _, more := range []*Overflow{nil, {}} {
		var p Pending
		if _, paired, _, spill := p.InView(more, 0, 0, early); paired || spill {
			t.Fatalf("in-view did not wait inline (paired %v, spill %v)", paired, spill)
		}
		if d, paired, reversed, _, _ := p.OutOfView(more, 0, 0, late); !paired || reversed || d != math.MaxInt64 {
			t.Fatalf("dwell = %v paired %v reversed %v, want the saturated span", d, paired, reversed)
		}
		p.OutOfView(more, 1, 3, early)
		if d, paired, reversed, _ := p.InView(more, 1, 3, late); !paired || !reversed || d != 0 {
			t.Fatalf("out-of-view before in-view by 550 years: dwell = %v paired %v reversed %v, want 0, reversed", d, paired, reversed)
		}
		p.Gap(more, 0, late, false)
		if g, paired, _ := p.Gap(more, 0, early, true); !paired || g != math.MinInt64 {
			t.Fatalf("in-view before loaded by 550 years: gap = %v paired %v, want the saturated negative span", g, paired)
		}
		if p.bits != 0 {
			t.Fatalf("stamps left waiting: %+v", p)
		}
	}
}
