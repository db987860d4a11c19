package stm

import (
	"testing"

	"tlstm/internal/mode"
)

// TestNilStatsRunsUnderTheLadder checks that Atomic(nil, fn) runs under
// a thread context like any other call: with the serial policy the body
// must execute holding the runtime gate.
func TestNilStatsRunsUnderTheLadder(t *testing.T) {
	rt := New(WithMode(mode.Config{Policy: mode.Serial}))
	for i := 0; i < 3; i++ {
		inSerial := false
		rt.Atomic(nil, func(tx *Tx) { inSerial = tx.d.InSerial() })
		if !inSerial {
			t.Fatalf("call %d: nil-Stats body ran outside the serialized gate", i)
		}
	}
}
