// Package pairing matches the in-view and out-of-view beacons of one
// impression into dwell cycles. internal/imptable keeps one Pending per
// open impression on behalf of internal/aggregate and internal/detect;
// what each does with a completed cycle is its own business.
//
// A cycle is (solution, seq). Whichever of its two beacons arrives first
// waits as a stamp; the other completes the cycle and removes the stamp,
// so the two orders give the same dwell. The first stamp of a kind wins:
// a second in-view or out-of-view of a cycle that is still waiting for
// its partner changes nothing — the store never delivers one, since it
// would be a duplicate key.
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
// honest impression has one open cycle per solution, and one or two
// solutions — each an event time in Unix nanoseconds, a 16-bit seq and
// three bits of bits: 1<<i says stamp i waits, 4<<i that it is an
// out-of-view, 16<<i which of the impression's first two solutions sent
// it. A stamp that does not fit (a third open cycle, a third solution, a
// seq or an instant out of range) waits in an Overflow instead; a cycle's
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
	at  time.Time
	seq int
	src int
	out bool // an out-of-view waiting for its in-view
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

// offer presents the in-view (out false) or out-of-view (out true) of
// cycle (src, seq). The cycle's stamp, if any, is looked for in p and
// then in more, which may be nil; a matched partner's event time is
// returned.
func (p *Pending) offer(more *Overflow, src, seq int, at time.Time, out bool) (time.Time, outcome) {
	small := src < inline && int(int16(seq)) == seq // the cycle's identity fits an inline stamp
	if small {
		for i := 0; i < inline; i++ {
			b := p.bits >> i
			if b&bitWaits == 0 || p.seq[i] != int16(seq) || (b&bitSrc != 0) != (src == 1) {
				continue
			}
			if (b&bitOut != 0) == out {
				return time.Time{}, stale
			}
			p.bits &^= (bitWaits | bitOut | bitSrc) << i
			return time.Unix(0, p.at[i]), matched
		}
	}
	if more != nil {
		for i := range more.stamps {
			s := more.stamps[i]
			if s.seq != seq || s.src != src {
				continue
			}
			if s.out == out {
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
			b := uint8(bitWaits)
			if out {
				b |= bitOut
			}
			p.bits |= (b | uint8(src)*bitSrc) << i
			return time.Time{}, waits
		}
	}
	if more == nil {
		return time.Time{}, full
	}
	more.stamps = append(more.stamps, stamp{at: at.Round(0), seq: seq, src: src, out: out})
	return time.Time{}, waits
}

// InView offers the in-view beacon of cycle (src, seq). If the cycle's
// out-of-view was waiting, the cycle completes: paired is true and dwell
// is its length. Otherwise the in-view waits, unless one already does.
// spill is true when it has to wait somewhere and cannot: it does not fit
// p and more is nil. Nothing has changed then; call again with an
// Overflow.
func (p *Pending) InView(more *Overflow, src, seq int, at time.Time) (dwell time.Duration, paired, spill bool) {
	partner, o := p.offer(more, src, seq, at, false)
	if o == matched {
		return dwellOf(at, partner), true, false
	}
	return 0, false, o == full
}

// OutOfView offers the out-of-view beacon of cycle (src, seq). If the
// cycle's in-view was waiting, the cycle completes: paired is true and
// dwell is its length. Otherwise the out-of-view waits; orphan is true
// when it is the first to do so. spill is as for InView.
func (p *Pending) OutOfView(more *Overflow, src, seq int, at time.Time) (dwell time.Duration, paired, orphan, spill bool) {
	partner, o := p.offer(more, src, seq, at, true)
	if o == matched {
		return dwellOf(partner, at), true, false, false
	}
	return 0, false, o == waits, o == full
}

// dwellOf is the length of one in-view→out-of-view cycle; a negative
// span (client clock skew) clamps to zero so dwell sums stay sane. An
// inline stamp's instant is rebuilt as a time.Time first, so the span is
// time.Time.Sub's to the bit, saturation included.
func dwellOf(in, out time.Time) time.Duration {
	d := out.Sub(in)
	if d < 0 {
		return 0
	}
	return d
}
