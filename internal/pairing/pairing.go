// Package pairing matches the in-view and out-of-view beacons of one
// impression into dwell cycles. internal/aggregate and internal/detect
// both keep one Pending per open impression; what each does with a
// completed cycle is its own business.
//
// A cycle is (solution, seq). Whichever of its two beacons arrives first
// waits as a stamp; the other completes the cycle and removes the stamp,
// so the two orders give the same dwell. The first stamp of a kind wins:
// a second in-view or out-of-view of a cycle that is still waiting for
// its partner changes nothing — the store never delivers one, since it
// would be a duplicate key.
package pairing

import "time"

// stamp is one beacon waiting for its partner.
type stamp struct {
	at  time.Time
	seq int
	src int32 // the solution, as the caller numbers them within the impression
	out bool  // an out-of-view waiting for its in-view
}

// Pending holds an impression's waiting stamps: a slice scanned
// linearly, because an honest impression has one or two open cycles, and
// released when the last stamp pairs. The zero value is ready to use; it
// is not safe for concurrent use.
type Pending struct{ stamps []stamp }

// find returns the index of the waiting stamp of cycle (src, seq), or -1.
func (p *Pending) find(src, seq int) int {
	for i := range p.stamps {
		if s := &p.stamps[i]; s.seq == seq && s.src == int32(src) {
			return i
		}
	}
	return -1
}

// take removes and returns the stamp at i.
func (p *Pending) take(i int) stamp {
	s := p.stamps[i]
	last := len(p.stamps) - 1
	p.stamps[i] = p.stamps[last]
	p.stamps = p.stamps[:last]
	if last == 0 {
		p.stamps = nil
	}
	return s
}

// InView offers the in-view beacon of cycle (src, seq). If the cycle's
// out-of-view was waiting, the cycle completes: paired is true and dwell
// is its length. Otherwise the in-view waits, unless one already does.
func (p *Pending) InView(src, seq int, at time.Time) (dwell time.Duration, paired bool) {
	i := p.find(src, seq)
	if i < 0 {
		p.stamps = append(p.stamps, stamp{at: at, seq: seq, src: int32(src)})
		return 0, false
	}
	if !p.stamps[i].out {
		return 0, false
	}
	return dwellOf(at, p.take(i).at), true
}

// OutOfView offers the out-of-view beacon of cycle (src, seq). If the
// cycle's in-view was waiting, the cycle completes: paired is true and
// dwell is its length. Otherwise the out-of-view waits; orphan is true
// when it is the first to do so.
func (p *Pending) OutOfView(src, seq int, at time.Time) (dwell time.Duration, paired, orphan bool) {
	i := p.find(src, seq)
	if i < 0 {
		p.stamps = append(p.stamps, stamp{at: at, seq: seq, src: int32(src), out: true})
		return 0, false, true
	}
	if p.stamps[i].out {
		return 0, false, false
	}
	return dwellOf(p.take(i).at, at), true, false
}

// dwellOf is the length of one in-view→out-of-view cycle; a negative
// span (client clock skew) clamps to zero so dwell sums stay sane.
func dwellOf(in, out time.Time) time.Duration {
	d := out.Sub(in)
	if d < 0 {
		return 0
	}
	return d
}
