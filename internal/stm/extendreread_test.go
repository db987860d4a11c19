package stm

import (
	"testing"

	"tlstm/internal/clock"
)

// hookClock is a GV4 clock whose next Observe first runs a one-shot
// hook: Observe runs inside snapshot extension, after the read that
// triggered it and before the read log is revalidated.
type hookClock struct {
	clock.Source
	hook func()
}

func (c *hookClock) Observe(v uint64, p *clock.Probe) uint64 {
	if h := c.hook; h != nil {
		c.hook = nil
		h()
	}
	return c.Source.Observe(v, p)
}

// TestExtensionRereadsTheTriggeringWord pins the read-after-extension
// rule: a load whose version runs past valid-ts extends, and a writer
// that commits {X, Y} between that load and the extension's clock
// sample is covered by the extended snapshot. Keeping the value read
// before the extension let the attempt pair old X with new Y — a zombie
// that commit validation would kill, but that opacity forbids from ever
// running.
func TestExtensionRereadsTheTriggeringWord(t *testing.T) {
	clk := &hookClock{Source: clock.New(clock.KindGV4)}
	rt := New(WithClock(clk))
	base := rt.Direct().Alloc(2)
	x, y := base, base+1

	attempts := 0
	torn := false
	rt.Atomic(nil, func(tx *Tx) {
		attempts++
		if attempts == 1 {
			// X moves past the victim's snapshot, so its load extends;
			// inside the extension a second writer moves X and Y together.
			rt.Atomic(nil, func(w *Tx) { w.Store(x, 1) })
			clk.hook = func() {
				rt.Atomic(nil, func(w *Tx) { w.Store(x, 2); w.Store(y, 2) })
			}
		}
		// (1, 0) and (2, 2) are committed states; (1, 2) is not.
		if tx.Load(x) == 1 && tx.Load(y) == 2 {
			torn = true
		}
	})

	if clk.hook != nil {
		t.Fatalf("the victim never extended: the interleaving was not forced")
	}
	if torn {
		t.Fatalf("attempt observed X and Y from different commits")
	}
}
