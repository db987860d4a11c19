package wtstm

import (
	"testing"

	"tlstm/internal/txdriver"
)

// TestAtomicROMVServesDisplacedVersion: WTSTM writes through in place,
// so a parked reader can never get the old value from memory — it MUST
// come from the version ring (published from the undo log at commit).
func TestAtomicROMVServesDisplacedVersion(t *testing.T) {
	rt := New(16, txdriver.WithMultiVersion(2))
	d := rt.Direct()
	base := d.Alloc(2)
	d.Store(base, 10)
	d.Store(base+1, 20)

	var st Stats
	attempts := 0
	rt.AtomicRO(&st, func(tx *Tx) {
		attempts++
		a := tx.Load(base)
		if attempts == 1 {
			rt.Atomic(nil, func(wtx *Tx) { wtx.Store(base+1, 99) })
		}
		b := tx.Load(base + 1)
		if a != 10 || b != 20 {
			t.Errorf("frozen snapshot broken: read (%d, %d), want (10, 20)", a, b)
		}
	})
	if attempts != 1 || st.Aborts != 0 || st.MVMisses != 0 || st.MVReads != 2 {
		t.Fatalf("attempts=%d aborts=%d mvMiss=%d mvRead=%d, want 1/0/0/2",
			attempts, st.Aborts, st.MVMisses, st.MVReads)
	}
}

// TestAtomicROMVRingWraparoundFallsBack: overrun by K+2 in-place
// commits, the reader must fall back to the validated path — never a
// torn or too-new value.
func TestAtomicROMVRingWraparoundFallsBack(t *testing.T) {
	const k, total = 2, 1000
	rt := New(16, txdriver.WithMultiVersion(k))
	d := rt.Direct()
	base := d.Alloc(2)
	d.Store(base, total) // invariant: base + base+1 == total

	var st Stats
	attempts := 0
	rt.AtomicRO(&st, func(tx *Tx) {
		attempts++
		a := tx.Load(base)
		if attempts == 1 {
			for i := 0; i < k+2; i++ {
				rt.Atomic(nil, func(wtx *Tx) {
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
	if attempts != 2 || st.MVMisses != 1 || st.Aborts != 1 {
		t.Fatalf("attempts=%d mvMiss=%d aborts=%d, want 2/1/1", attempts, st.MVMisses, st.Aborts)
	}
	if got := d.Load(base) + d.Load(base+1); got != total {
		t.Fatalf("total = %d, want %d", got, total)
	}
}
