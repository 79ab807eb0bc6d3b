package beacon

// What the external tests (package beacon_test) need of the store's
// insides.

// NewCollidingStore returns a store whose impression tables hash every
// key to one value (see collidingStore).
func NewCollidingStore(shards int) *Store { return collidingStore(shards) }

// Anchors returns how many of the store's records are anchors rather
// than follow-ons.
func (s *Store) Anchors() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		copies := make([]string, len(sh.arena.chunks))
		for j, c := range sh.arena.chunks {
			copies[j] = string(c)
			for off := 0; off < len(c); {
				if c[off] != followOnTag {
					n++
				}
				_, next, err := decodeRecord(copies, copies[j], off, &sh.names)
				if err != nil {
					panic(err)
				}
				off = next
			}
		}
		sh.mu.RUnlock()
	}
	return n
}

// ScribbleReleasedBodies makes s overwrite each request body as it gives
// the body's buffer back to the pool.
func (s *Server) ScribbleReleasedBodies() { s.scribble.Store(true) }

// KeepReleasedBodies makes s never give a request body back to the pool,
// so that nothing can rewrite it.
func (s *Server) KeepReleasedBodies() { s.keepBodies.Store(true) }

// DecodesJSONItself reports whether the JSON decoder takes body itself,
// declining none of it to encoding/json.
func DecodesJSONItself(body []byte) bool {
	_, ok := appendJSONEvents(nil, string(body))
	return ok
}
