package beacon

// What the external tests (package beacon_test) need of the store's
// insides.

// NewCollidingStore returns a store whose impression tables hash every
// key to one value (see collidingStore).
func NewCollidingStore(shards int) *Store { return collidingStore(shards) }

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
