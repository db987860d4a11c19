package txstats_test

import (
	"testing"

	"tlstm/internal/txstats"
	"tlstm/internal/txstats/statstest"
)

// TestCountersFoldsAreComplete sets every counter to a distinct nonzero
// value: Add must double each one and Minus must zero each one, so a
// counter added to the struct but not to a fold fails here.
func TestCountersFoldsAreComplete(t *testing.T) {
	var c txstats.Counters
	statstest.Fill(&c)
	orig := c
	c.Add(orig)
	statstest.Expect(t, &c, &orig, func(v uint64) uint64 { return 2 * v })
	d := orig.Minus(orig)
	statstest.Expect(t, &d, &orig, func(uint64) uint64 { return 0 })
}
