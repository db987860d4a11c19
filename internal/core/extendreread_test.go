package core

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

// TestExtensionRereadsTheTriggeringWord is the TLSTM twin of the stm
// regression with the same name: a task whose load runs past valid-ts
// extends, and a writer that commits {X, Y} between that load and the
// extension's clock sample is covered by the extended snapshot, so the
// value read before the extension must not be kept.
func TestExtensionRereadsTheTriggeringWord(t *testing.T) {
	clk := &hookClock{Source: clock.New(clock.KindGV4)}
	rt := New(Config{SpecDepth: 1, LockTableBits: 12, Clock: clk})
	defer rt.Close()
	base := rt.Direct().Alloc(2)
	x, y := base, base+1
	writer := rt.NewThread()
	store := func(vx, vy uint64) {
		if err := writer.Atomic(func(tk *Task) {
			tk.Store(x, vx)
			if vy != 0 {
				tk.Store(y, vy)
			}
		}); err != nil {
			t.Error(err)
		}
	}

	thr := rt.NewThread()
	attempts := 0
	torn := false
	if err := thr.Atomic(func(tk *Task) {
		attempts++
		if attempts == 1 {
			store(1, 0)
			clk.hook = func() { store(2, 2) }
		}
		// (1, 0) and (2, 2) are committed states; (1, 2) is not.
		if tk.Load(x) == 1 && tk.Load(y) == 2 {
			torn = true
		}
	}); err != nil {
		t.Fatal(err)
	}

	if clk.hook != nil {
		t.Fatalf("the task never extended: the interleaving was not forced")
	}
	if torn {
		t.Fatalf("task observed X and Y from different commits")
	}
}
