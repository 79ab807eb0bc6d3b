package jsonenc

import "sync/atomic"

// renders numbers every render in the process from 1, so that no span is
// ever taken for one another Render wrote over the same records.
var renders atomic.Uint64

// Render is a double-buffered body: the one a render is writing and the
// one the render before it on the same Render wrote, each under its
// render's number. An encoder copies a record's JSON from the previous
// body instead of encoding it again when the record's Span says that
// render wrote it and nothing has written the record since. One render
// at a time uses a Render.
type Render struct {
	n, prevN   uint64
	body, prev []byte
	// mark and prevMark are where each body's one section of records
	// gathered aside, and appended after their spans are known, starts.
	mark, prevMark int
}

// Start begins the next render: the last body becomes the previous one,
// and the one before it, emptied, is returned for this render to write.
func (r *Render) Start() []byte {
	r.body, r.prev = r.prev[:0], r.body
	r.n, r.prevN = renders.Add(1), r.n
	r.mark, r.prevMark = 0, r.mark
	return r.body
}

// Finish records body as what the render wrote, and returns it.
func (r *Render) Finish(body []byte) []byte { r.body = body; return body }

// Cap returns the capacity of both bodies.
func (r *Render) Cap() int { return cap(r.body) + cap(r.prev) }

// Mark records where the body's marked section starts: spans of records
// gathered aside count from it, not from the body's start.
func (r *Render) Mark(at int) { r.mark = at }

// PrevMarked returns [lo, hi) of the previous body's marked section.
func (r *Render) PrevMarked(lo, hi int) []byte { return r.prev[r.prevMark+lo : r.prevMark+hi] }

// Span is where one record's JSON — an encoder's unit of reuse, such as
// a campaign's rows — sits in the body of the render that last wrote it.
// Every write to the record must call Dirty under the lock the encoder
// reads it under: a missed mark serves stale bytes.
type Span struct {
	n      uint64 // the render that wrote [lo, hi); 0: none
	lo, hi int
	dirty  bool
}

// Dirty marks the record written since its span was.
func (s *Span) Dirty() { s.dirty = true }

// Copy appends the record's JSON from r's previous body to dst and
// reports true if that render wrote the span and the record is clean;
// otherwise it returns dst as it is, and the caller encodes the record.
func (s *Span) Copy(dst []byte, r *Render) ([]byte, bool) {
	if s.dirty || s.n == 0 || s.n != r.prevN {
		return dst, false
	}
	return append(dst, r.prev[s.lo:s.hi]...), true
}

// Wrote records that render r put the record at [lo, hi) of its body,
// clean.
func (s *Span) Wrote(r *Render, lo, hi int) { *s = Span{n: r.n, lo: lo, hi: hi} }
