package txdriver_test

import (
	"strconv"
	"testing"

	"tlstm/internal/clock"
	"tlstm/internal/cm"
	"tlstm/internal/mode"
	"tlstm/internal/stm"
	"tlstm/internal/tl2"
	"tlstm/internal/tm"
	"tlstm/internal/txdriver"
	"tlstm/internal/txstats"
	"tlstm/internal/txtrace"
	"tlstm/internal/wtstm"
)

// flatRuntime is what the table test sees of one flat runtime: its
// self-description and a runner.
type flatRuntime interface {
	ClockName() string
	CMName() string
	MVDepth() int
	Shards() int
	PlacementName() string
}

// runFn runs n read-write transactions incrementing a, then one
// declared read-only transaction reading it, all on one thread, and
// returns that thread's counters.
type runFn func(a tm.Addr, n int) txstats.Counters

const testLockBits = 14

var flatRuntimes = []struct {
	ns        string // trace namespace
	defaultCM string
	build     func(opts ...txdriver.Option) (flatRuntime, tm.Addr, runFn)
}{
	{"stm", "greedy", func(opts ...txdriver.Option) (flatRuntime, tm.Addr, runFn) {
		rt := stm.New(append([]txdriver.Option{stm.WithLockTableBits(testLockBits)}, opts...)...)
		return rt, rt.Direct().Alloc(1), func(a tm.Addr, n int) txstats.Counters {
			w := rt.NewWorker()
			for i := 0; i < n; i++ {
				w.Atomic(func(tx *stm.Tx) { tx.Store(a, tx.Load(a)+1) })
			}
			w.AtomicRO(func(tx *stm.Tx) { tx.Load(a) })
			return w.Stats().Counters
		}
	}},
	{"tl2", "suicide", func(opts ...txdriver.Option) (flatRuntime, tm.Addr, runFn) {
		rt := tl2.New(testLockBits, opts...)
		return rt, rt.Direct().Alloc(1), func(a tm.Addr, n int) txstats.Counters {
			var st tl2.Stats
			for i := 0; i < n; i++ {
				rt.Atomic(&st, func(tx *tl2.Tx) { tx.Store(a, tx.Load(a)+1) })
			}
			rt.AtomicRO(&st, func(tx *tl2.Tx) { tx.Load(a) })
			return st.Counters
		}
	}},
	{"wtstm", "suicide", func(opts ...txdriver.Option) (flatRuntime, tm.Addr, runFn) {
		rt := wtstm.New(testLockBits, opts...)
		return rt, rt.Direct().Alloc(1), func(a tm.Addr, n int) txstats.Counters {
			var st wtstm.Stats
			for i := 0; i < n; i++ {
				rt.Atomic(&st, func(tx *wtstm.Tx) { tx.Store(a, tx.Load(a)+1) })
			}
			rt.AtomicRO(&st, func(tx *wtstm.Tx) { tx.Load(a) })
			return st.Counters
		}
	}},
}

// TestFlatRuntimesHonourSharedOptions checks, for each flat runtime,
// that every shared option takes effect and that without options the
// runtime keeps its defaults — including its own contention manager.
func TestFlatRuntimesHonourSharedOptions(t *testing.T) {
	for _, fr := range flatRuntimes {
		t.Run(fr.ns+"/defaults", func(t *testing.T) {
			rt, a, run := fr.build()
			c := run(a, 4)
			if got := rt.ClockName(); got != "gv4" {
				t.Errorf("ClockName = %q, want gv4", got)
			}
			if got := rt.CMName(); got != fr.defaultCM {
				t.Errorf("CMName = %q, want %q", got, fr.defaultCM)
			}
			if rt.MVDepth() != 0 || c.MVReads != 0 {
				t.Errorf("MVDepth = %d, mvReads = %d, want 0/0", rt.MVDepth(), c.MVReads)
			}
			if rt.Shards() != 1 || rt.PlacementName() != "static" {
				t.Errorf("Shards/PlacementName = %d/%q, want 1/static", rt.Shards(), rt.PlacementName())
			}
			if c.ModeFallbacks != 0 {
				t.Errorf("ModeFallbacks = %d with the ladder disarmed", c.ModeFallbacks)
			}
		})
		t.Run(fr.ns+"/options", func(t *testing.T) {
			rec := txtrace.NewRecorder(64)
			// Window 1 with a negative ratio forces a fallback at every
			// full window: an armed ladder must report fallbacks.
			forced := mode.Config{Policy: mode.Adaptive, FallbackRatio: -1, Window: 1}
			rt, a, run := fr.build(
				txdriver.WithClock(clock.New(clock.KindDeferred)),
				txdriver.WithCM(cm.New(cm.KindKarma)),
				txdriver.WithMultiVersion(3),
				txdriver.WithTrace(rec),
				txdriver.WithShards(4),
				txdriver.WithAffinity(true),
				txdriver.WithMode(forced))
			c := run(a, 4)
			if got := rt.ClockName(); got != "deferred" {
				t.Errorf("ClockName = %q, want deferred", got)
			}
			if got := rt.CMName(); got != "karma" {
				t.Errorf("CMName = %q, want karma", got)
			}
			if rt.MVDepth() != 3 || c.MVReads == 0 {
				t.Errorf("MVDepth = %d, mvReads = %d, want 3 and a multi-version read", rt.MVDepth(), c.MVReads)
			}
			if rt.Shards() != 4 || rt.PlacementName() != "affinity" {
				t.Errorf("Shards/PlacementName = %d/%q, want 4/affinity", rt.Shards(), rt.PlacementName())
			}
			if c.ModeFallbacks == 0 {
				t.Errorf("ModeFallbacks = 0: the mode ladder is not armed")
			}
			if len(rec.Rings()) == 0 || rec.Events() == 0 {
				t.Errorf("recorder has %d rings, %d events: tracing is not armed", len(rec.Rings()), rec.Events())
			}
			meta := rec.Meta()
			for suffix, want := range map[string]string{
				txtrace.MetaLockBits:  strconv.Itoa(testLockBits),
				txtrace.MetaClock:     "deferred",
				txtrace.MetaExclusive: "false",
				txtrace.MetaMVDepth:   "3",
			} {
				key := fr.ns + "." + suffix
				if got, ok := meta[key]; !ok || got != want {
					t.Errorf("trace metadata %s = %q (present %v), want %q", key, got, ok, want)
				}
			}
		})
	}
}

// TestFixedGeometryRejectsTableOptions checks that TL2 and wtstm refuse
// SwissTM's lock-table options instead of ignoring them.
func TestFixedGeometryRejectsTableOptions(t *testing.T) {
	for _, o := range []txdriver.Option{stm.WithLockTableBits(10), stm.WithPaddedLockTable(true)} {
		for _, fr := range flatRuntimes[1:] {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s accepted a SwissTM lock-table option", fr.ns)
					}
				}()
				fr.build(o)
			}()
		}
	}
}
