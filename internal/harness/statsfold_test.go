package harness

import (
	"testing"

	"tlstm/internal/core"
	"tlstm/internal/stm"
	"tlstm/internal/tl2"
	"tlstm/internal/txstats/statstest"
	"tlstm/internal/wtstm"
)

// TestStatsAddIsComplete sets every exported counter of each runtime's
// Stats — its own fields and the embedded txstats.Counters — to a
// distinct nonzero value and checks that Add doubles every one, so a
// counter left out of a fold fails here.
func TestStatsAddIsComplete(t *testing.T) {
	double := func(v uint64) uint64 { return 2 * v }
	t.Run("stm", func(t *testing.T) {
		var s stm.Stats
		statstest.Fill(&s)
		o := s
		s.Add(o)
		statstest.Expect(t, &s, &o, double)
	})
	t.Run("tl2", func(t *testing.T) {
		var s tl2.Stats
		statstest.Fill(&s)
		o := s
		s.Add(o)
		statstest.Expect(t, &s, &o, double)
	})
	t.Run("wtstm", func(t *testing.T) {
		var s wtstm.Stats
		statstest.Fill(&s)
		o := s
		s.Add(o)
		statstest.Expect(t, &s, &o, double)
	})
	t.Run("core", func(t *testing.T) {
		var s core.Stats
		statstest.Fill(&s)
		o := s
		s.Add(o)
		statstest.Expect(t, &s, &o, double)
	})
}
