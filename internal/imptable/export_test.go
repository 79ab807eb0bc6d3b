package imptable

// What the table's tests drive it with: an impression opened by its key,
// and a solution by its name, without a seen set.

// Open returns the entry of the impression with this key, opened or
// touched as of now; created is true for a new one.
func (t *Table) Open(key []byte, now int64) (e *Entry, created bool) {
	h := t.hash(key)
	at, head := t.lookup(key, h)
	return t.open(h, at, head, key, now)
}

// Source returns the position and progress flags of solution name on e,
// adding it if it has none; fresh is true for its first beacon since the
// impression opened.
func (t *Table) Source(e *Entry, name string) (i int, flags *uint8, fresh bool) {
	return t.source(e, name, t.position(&e.seen, t.more(e), name))
}
