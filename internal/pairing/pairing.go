// Package pairing matches the beacons of one impression in pairs — a dwell
// cycle's in-view and out-of-view, a gap's loaded and seq-0 in-view.
// internal/imptable keeps one Pending per open impression on behalf of
// internal/aggregate and internal/detect; what each does with a
// completed pair is its own business.
//
// A cycle is (solution, seq), a gap is (solution). Whichever beacon of a
// pair arrives first waits as a stamp; the other completes the pair and
// removes the stamp, so the two orders give the same span. The first
// stamp of a kind wins: a second beacon of the same kind for a pair that
// is still waiting changes nothing — the store never delivers one, since
// it would be a duplicate key.
//
// Event time is wall time: a stamp keeps the instant of its beacon's At
// and drops a monotonic reading, as the wire codec does.
package pairing

import (
	"math"
	"time"
)

// inline is how many stamps a Pending holds itself.
const inline = 2

// Pending holds an impression's waiting stamps without a pointer, so it
// can live in memory the garbage collector never scans: two stamps — an
// honest impression has one waiting pair per solution (its loaded, then
// its open cycle), and one or two solutions — each an event time in Unix
// nanoseconds, a 16-bit seq and four bits of bits: 1<<i says stamp i
// waits, 4<<i that it is the later beacon of its pair (an out-of-view,
// or the in-view of a gap), 16<<i which of the impression's first two
// solutions sent it, 64<<i that its pair is a gap rather than a cycle. A
// stamp that does not fit (a third waiting pair, a third solution, a seq
// or an instant out of range) waits in an Overflow instead; a pair's
// stamp is in one of the two, never both. The zero value is ready to
// use; it is not safe for concurrent use.
type Pending struct {
	at   [inline]int64
	seq  [inline]int16
	bits uint8
}

const (
	bitWaits = 1
	bitOut   = 1 << inline
	bitSrc   = 1 << (2 * inline)
	bitGap   = 1 << (3 * inline)
)

// maxNanoSec bounds the Unix seconds whose nanosecond count fits an
// int64 whatever the fraction.
const maxNanoSec = math.MaxInt64/int64(time.Second) - 1

// fitsNanos reports whether at is an instant UnixNano can express.
func fitsNanos(at time.Time) bool {
	sec := at.Unix()
	return -maxNanoSec <= sec && sec <= maxNanoSec
}

// stamp is one beacon waiting in an Overflow.
type stamp struct {
	at   time.Time
	seq  int
	src  int
	kind uint8 // as offer's
}

// Overflow holds the stamps a Pending has no room for: a slice scanned
// linearly and released when its last stamp pairs. The zero value is
// ready to use.
type Overflow struct{ stamps []stamp }

// outcome is what offering a beacon to its cycle did.
type outcome uint8

const (
	waits   outcome = iota // the beacon now waits for its partner
	matched                // the partner was waiting and has been removed
	stale                  // a beacon of this kind already waits; nothing changed
	full                   // it has to wait, does not fit inline, and more is nil
)

// offer presents a beacon of pair (src, seq) of kind: bitGap set for a
// gap's, clear for a cycle's; bitOut set for the later beacon of the
// pair. The pair's stamp, if any, is looked for in p and then in more,
// which may be nil; a matched partner's event time is returned.
func (p *Pending) offer(more *Overflow, src, seq int, at time.Time, kind uint8) (time.Time, outcome) {
	small := src < inline && int(int16(seq)) == seq // the pair's identity fits an inline stamp
	if small {
		for i := 0; i < inline; i++ {
			b := p.bits >> i
			if b&bitWaits == 0 || p.seq[i] != int16(seq) || (b&bitSrc != 0) != (src == 1) || b&bitGap != kind&bitGap {
				continue
			}
			if b&bitOut == kind&bitOut {
				return time.Time{}, stale
			}
			p.bits &^= (bitWaits | bitOut | bitSrc | bitGap) << i
			return time.Unix(0, p.at[i]), matched
		}
	}
	if more != nil {
		for i := range more.stamps {
			s := more.stamps[i]
			if s.seq != seq || s.src != src || s.kind&bitGap != kind&bitGap {
				continue
			}
			if s.kind == kind {
				return time.Time{}, stale
			}
			last := len(more.stamps) - 1
			more.stamps[i] = more.stamps[last]
			more.stamps = more.stamps[:last]
			if last == 0 {
				more.stamps = nil
			}
			return s.at, matched
		}
	}
	if small && fitsNanos(at) {
		for i := 0; i < inline; i++ {
			if p.bits>>i&bitWaits != 0 {
				continue
			}
			p.at[i], p.seq[i] = at.UnixNano(), int16(seq)
			p.bits |= (bitWaits | kind | uint8(src)*bitSrc) << i
			return time.Time{}, waits
		}
	}
	if more == nil {
		return time.Time{}, full
	}
	more.stamps = append(more.stamps, stamp{at: at.Round(0), seq: seq, src: src, kind: kind})
	return time.Time{}, waits
}

// InView offers the in-view beacon of cycle (src, seq). If the cycle's
// out-of-view was waiting, the cycle completes: paired is true and dwell
// is its length; reversed is true when the out-of-view is the earlier of
// the two, and dwell is then 0. Otherwise the in-view waits, unless one
// already does. spill is true when it has to wait somewhere and cannot:
// it does not fit p and more is nil. Nothing has changed then; call
// again with an Overflow.
func (p *Pending) InView(more *Overflow, src, seq int, at time.Time) (dwell time.Duration, paired, reversed, spill bool) {
	partner, o := p.offer(more, src, seq, at, 0)
	if o == matched {
		dwell, reversed = dwellOf(at, partner)
		return dwell, true, reversed, false
	}
	return 0, false, false, o == full
}

// OutOfView offers the out-of-view beacon of cycle (src, seq). If the
// cycle's in-view was waiting, the cycle completes: paired, dwell and
// reversed are as for InView. Otherwise the out-of-view waits; orphan is
// true when it is the first to do so. spill is as for InView.
func (p *Pending) OutOfView(more *Overflow, src, seq int, at time.Time) (dwell time.Duration, paired, reversed, orphan, spill bool) {
	partner, o := p.offer(more, src, seq, at, bitOut)
	if o == matched {
		dwell, reversed = dwellOf(partner, at)
		return dwell, true, reversed, false, false
	}
	return 0, false, false, o == waits, o == full
}

// Gap offers solution src's loaded beacon (inView false) or its seq-0
// in-view (inView true). If the other was waiting, paired is true and gap
// is the in-view's event time less the loaded's, negative when the
// in-view is the earlier. Otherwise the beacon waits, as for InView.
func (p *Pending) Gap(more *Overflow, src int, at time.Time, inView bool) (gap time.Duration, paired, spill bool) {
	kind := uint8(bitGap)
	if inView {
		kind |= bitOut
	}
	partner, o := p.offer(more, src, 0, at, kind)
	if o != matched {
		return 0, false, o == full
	}
	if !inView {
		at, partner = partner, at
	}
	return at.Sub(partner), true, false
}

// dwellOf is the length of one in-view→out-of-view cycle; a negative
// span (client clock skew) clamps to zero, reversed, so dwell sums stay
// sane. An inline stamp's instant is rebuilt as a time.Time first, so the
// span is time.Time.Sub's to the bit, saturation included.
func dwellOf(in, out time.Time) (dwell time.Duration, reversed bool) {
	d := out.Sub(in)
	if d < 0 {
		return 0, true
	}
	return d, false
}
