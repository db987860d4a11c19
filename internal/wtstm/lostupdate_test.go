package wtstm

import (
	"testing"

	"tlstm/internal/clock"
	"tlstm/internal/txdriver"
)

// hookClock is a GV4 clock whose next Observe first runs a one-shot
// hook. Observe is called from inside snapshot extension, after the
// read that triggered it and before the read log is revalidated, so the
// hook lands a foreign commit exactly in that window.
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

// TestExtensionRereadsTheTriggeringWord pins the lost update the
// full-size clock sweep hit about once in five runs. The interleaving:
//
//  1. the victim begins at rv = R;
//  2. writer A commits X at R+1, so the victim's load of X sees a
//     version past rv and extends;
//  3. inside the extension, between the victim's read of X and the
//     extension's clock sample, writer B commits X at R+2;
//  4. the extension (whose read log does not yet hold X) succeeds at
//     rv = R+2, and the victim kept the value it read at R+1;
//  5. the victim stores X: the lock's version R+2 is within rv, so it
//     acquires it without extending again;
//  6. at commit wv = R+3 = rv+1, so validation is skipped, and even when
//     run it exempted X because the victim holds X's lock.
//
// The victim then published A's value + 1 over B's increment. The fix
// re-reads the word after every successful extension (and commit
// validation exempts a held lock only when the version it displaced is
// the version that was read).
func TestExtensionRereadsTheTriggeringWord(t *testing.T) {
	clk := &hookClock{Source: clock.New(clock.KindGV4)}
	rt := New(14, txdriver.WithClock(clk))
	x := rt.Direct().Alloc(1)
	inc := func(tx *Tx) { tx.Store(x, tx.Load(x)+1) }

	attempts := 0
	rt.Atomic(nil, func(tx *Tx) {
		attempts++
		if attempts == 1 {
			rt.Atomic(nil, inc)                       // writer A, after the victim's begin
			clk.hook = func() { rt.Atomic(nil, inc) } // writer B
		}
		inc(tx)
	})

	if clk.hook != nil {
		t.Fatalf("the victim never extended: the interleaving was not forced")
	}
	if got := rt.Direct().Load(x); got != 3 {
		t.Fatalf("X = %d after three increments, want 3 (lost update)", got)
	}
}
