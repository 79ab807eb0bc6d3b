package beacon_test

import (
	"os"
	"testing"

	"qtag/internal/imptable"
)

// TestMain runs the package's tests as they are, or — under `make
// collide` — with every open-impression key forced into one of four hash
// chains, so that exact key comparison carries the whole suite.
func TestMain(m *testing.M) {
	if os.Getenv("QTAG_FORCE_COLLISIONS") != "" {
		imptable.ForceCollisions(4)
	}
	os.Exit(m.Run())
}
