package core

import (
	"testing"

	"tlstm/internal/txstats/statstest"
)

// TestStatsMinusIsComplete sets every exported counter to a distinct
// nonzero value and checks that minus zeroes every one: Sync merges
// exactly this difference, so a counter left out of it would never
// reach the runtime aggregate.
func TestStatsMinusIsComplete(t *testing.T) {
	var s Stats
	statstest.Fill(&s)
	d := s.minus(s)
	statstest.Expect(t, &d, &s, func(uint64) uint64 { return 0 })
}
