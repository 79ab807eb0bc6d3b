// Package keydir keeps records in key order for a reader that walks
// them far more often than writers add them: GET /report's campaign
// directory and rollup windows in internal/aggregate. A new record
// goes on a pending list; the next walk sorts only that list and merges
// it in, so a poll of a state with no new campaigns sorts nothing.
package keydir

import (
	"slices"
	"strings"
	"sync"
)

// Dir is a directory of *T in key order. Add is safe for concurrent
// use, beside a walk too; Order is the walker's and must not overlap
// itself. Call Init before either.
type Dir[T any] struct {
	key func(*T) string

	mu      sync.Mutex // guards pending
	pending []*T
	next    []*T // the pending list's other buffer; the walker's
	order   []*T // the walker's
}

// Init readies d: key is a record's key, immutable once the record is
// added. A record never leaves the directory.
func (d *Dir[T]) Init(key func(*T) string) { d.key = key }

// Add puts a new record on the pending list.
func (d *Dir[T]) Add(r *T) {
	d.mu.Lock()
	d.pending = append(d.pending, r)
	d.mu.Unlock()
}

// Order sorts the pending records and merges them in, in place from the
// back, and returns the directory in key order, good until the next
// Order.
func (d *Dir[T]) Order() []*T {
	d.mu.Lock()
	add := d.pending
	d.pending = d.next[:0]
	d.mu.Unlock()
	slices.SortFunc(add, func(a, b *T) int { return strings.Compare(d.key(a), d.key(b)) })
	i, j := len(d.order)-1, len(add)-1
	d.order = slices.Grow(d.order, len(add))[:len(d.order)+len(add)]
	for k := len(d.order) - 1; j >= 0; k-- {
		if i >= 0 && d.key(d.order[i]) > d.key(add[j]) {
			d.order[k], i = d.order[i], i-1
		} else {
			d.order[k], j = add[j], j-1
		}
	}
	d.next = add[:0]
	clear(add) // the buffer pins no record
	return d.order
}

// Keys returns Order's keys.
func (d *Dir[T]) Keys() []string {
	var out []string
	for _, r := range d.Order() {
		out = append(out, d.key(r))
	}
	return out
}
