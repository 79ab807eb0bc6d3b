package beacon

// What the external tests (package beacon_test) need of the store's
// insides.

// NewCollidingStore returns a store whose index hash is constant (see
// collidingStore).
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
				if c[off+arenaLinkBytes] != followOnTag {
					n++
				}
				_, next, err := decodeRecord(copies, copies[j], off+arenaLinkBytes, &sh.names)
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
