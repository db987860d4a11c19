package stm_test

import (
	"testing"

	"tlstm/internal/stm"
	"tlstm/internal/tm"
	"tlstm/internal/txdriver"
)

// mvSetup allocates n words initialized to init under a multi-version
// runtime of depth k.
func mvSetup(k, n int, init uint64) (*stm.Runtime, tm.Addr) {
	rt := stm.New(txdriver.WithMultiVersion(k))
	d := rt.Direct()
	base := d.Alloc(n)
	for i := 0; i < n; i++ {
		d.Store(base+tm.Addr(i), init)
	}
	return rt, base
}

// TestAtomicROMVSingleWriterMultiReaderSoak is the acceptance soak,
// driven from one goroutine so the assertions are deterministic: a
// writer commits a transfer, then every reader scans the array as a
// declared read-only transaction. On the multi-version path each scan
// must commit unconditionally — zero aborts, zero fallback misses, zero
// snapshot extensions, and nothing logged for validation. (The
// concurrent version of this scenario runs in the race/stress smokes,
// where fallbacks are legitimate under preemption.)
func TestAtomicROMVSingleWriterMultiReaderSoak(t *testing.T) {
	const words, init, iters = 8, 100, 500
	rt, base := mvSetup(2, words, init)
	writer := rt.NewWorker()
	readers := []*stm.Worker{rt.NewWorker(), rt.NewWorker(), rt.NewWorker()}

	scan := func(tx *stm.Tx) {
		var sum uint64
		for i := 0; i < words; i++ {
			sum += tx.Load(base + tm.Addr(i))
		}
		if sum != words*init {
			t.Errorf("scan saw total %d, want %d", sum, words*init)
		}
	}
	for i := 0; i < iters; i++ {
		src, dst := tm.Addr(i%words), tm.Addr((i+1)%words)
		writer.Atomic(func(tx *stm.Tx) {
			tx.Store(base+src, tx.Load(base+src)-1)
			tx.Store(base+dst, tx.Load(base+dst)+1)
		})
		for _, r := range readers {
			r.AtomicRO(scan)
		}
	}
	for i, r := range readers {
		st := r.Stats()
		if st.Commits != iters {
			t.Errorf("reader %d: commits = %d, want %d", i, st.Commits, iters)
		}
		if st.Aborts != 0 || st.MVMisses != 0 || st.SnapshotExtensions != 0 {
			t.Errorf("reader %d left the wait-free path: aborts=%d misses=%d ext=%d",
				i, st.Aborts, st.MVMisses, st.SnapshotExtensions)
		}
		if want := uint64(iters * words); st.MVReads != want {
			t.Errorf("reader %d: MVReads = %d, want %d", i, st.MVReads, want)
		}
		if st.ReadSetSizes.Max() != 0 || st.WriteSetSizes.Max() != 0 {
			t.Errorf("reader %d logged entries on the mv path: rset[%s] wset[%s]",
				i, st.ReadSetSizes, st.WriteSetSizes)
		}
	}
}

// TestAtomicROMVServesDisplacedVersion parks a reader across a
// conflicting commit: the writer overwrites a word after the reader's
// snapshot, and the reader's later load of that word must be served
// from the version ring — the displaced value, not the too-new one —
// without extension or abort.
func TestAtomicROMVServesDisplacedVersion(t *testing.T) {
	rt, base := mvSetup(2, 2, 0)
	d := rt.Direct()
	d.Store(base, 10)
	d.Store(base+1, 20)
	reader, writer := rt.NewWorker(), rt.NewWorker()

	attempts := 0
	reader.AtomicRO(func(tx *stm.Tx) {
		attempts++
		a := tx.Load(base)
		if attempts == 1 {
			writer.Atomic(func(wtx *stm.Tx) { wtx.Store(base+1, 99) })
		}
		b := tx.Load(base + 1)
		if a != 10 || b != 20 {
			t.Errorf("frozen snapshot broken: read (%d, %d), want (10, 20)", a, b)
		}
	})
	if attempts != 1 {
		t.Fatalf("reader ran %d attempts, want 1 (wait-free commit)", attempts)
	}
	st := reader.Stats()
	if st.MVReads != 2 || st.MVMisses != 0 || st.Aborts != 0 {
		t.Fatalf("stats = mvRead=%d mvMiss=%d aborts=%d, want 2/0/0",
			st.MVReads, st.MVMisses, st.Aborts)
	}
}

// TestAtomicROMVRingWraparoundFallsBack is the directed overrun
// regression: a reader parked across a full ring wraparound of K+2
// commits to one word must fall back to the validated path — never
// return a torn or too-new value — and then commit consistently.
func TestAtomicROMVRingWraparoundFallsBack(t *testing.T) {
	const k, total = 2, 1000
	rt, base := mvSetup(k, 2, 0)
	d := rt.Direct()
	d.Store(base, total) // invariant: base + base+1 == total
	reader, writer := rt.NewWorker(), rt.NewWorker()

	attempts := 0
	reader.AtomicRO(func(tx *stm.Tx) {
		attempts++
		a := tx.Load(base)
		if attempts == 1 {
			// K+2 transfers: every version of base+1 that covered the
			// reader's snapshot is evicted from the depth-K ring.
			for i := 0; i < k+2; i++ {
				writer.Atomic(func(wtx *stm.Tx) {
					wtx.Store(base, wtx.Load(base)-1)
					wtx.Store(base+1, wtx.Load(base+1)+1)
				})
			}
		}
		b := tx.Load(base + 1)
		if a+b != total {
			t.Errorf("inconsistent read after wraparound: %d + %d != %d", a, b, total)
		}
	})
	if attempts != 2 {
		t.Fatalf("reader ran %d attempts, want 2 (fallback re-run)", attempts)
	}
	st := reader.Stats()
	if st.MVMisses != 1 || st.Aborts != 1 {
		t.Fatalf("fallback not recorded: mvMiss=%d aborts=%d, want 1/1", st.MVMisses, st.Aborts)
	}
	if st.MVReads != 1 {
		t.Fatalf("MVReads = %d, want 1 (only the pre-overrun load)", st.MVReads)
	}
	if got := d.Load(base) + d.Load(base+1); got != total {
		t.Fatalf("total = %d, want %d", got, total)
	}
}

// TestAtomicROMVStoreFallsBackToValidated: declaring wrongly costs
// performance, never correctness — a store inside a declared read-only
// transaction restarts it in validated read-write mode.
func TestAtomicROMVStoreFallsBackToValidated(t *testing.T) {
	rt, base := mvSetup(2, 1, 5)
	w := rt.NewWorker()
	attempts := 0
	w.AtomicRO(func(tx *stm.Tx) {
		attempts++
		tx.Store(base, tx.Load(base)+1)
	})
	if attempts != 2 {
		t.Fatalf("mis-declared writer ran %d attempts, want 2", attempts)
	}
	if got := rt.LoadWordRaw(base); got != 6 {
		t.Fatalf("store lost: word = %d, want 6", got)
	}
	if st := w.Stats(); st.Commits != 1 {
		t.Fatalf("commits = %d, want 1", st.Commits)
	}
}

// TestAtomicRODisabledMVBehavesValidated: without WithMultiVersion the
// declared read-only entry point is just the validated path.
func TestAtomicRODisabledMVBehavesValidated(t *testing.T) {
	rt := stm.New()
	if rt.MVDepth() != 0 {
		t.Fatalf("MVDepth = %d, want 0", rt.MVDepth())
	}
	d := rt.Direct()
	a := d.Alloc(1)
	d.Store(a, 7)
	w := rt.NewWorker()
	var got uint64
	w.AtomicRO(func(tx *stm.Tx) { got = tx.Load(a) })
	if got != 7 {
		t.Fatalf("read %d, want 7", got)
	}
	if st := w.Stats(); st.MVReads != 0 || st.MVMisses != 0 {
		t.Fatalf("mv counters moved without multi-versioning: %d/%d", st.MVReads, st.MVMisses)
	}
}
