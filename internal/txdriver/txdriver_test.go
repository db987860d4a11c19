package txdriver

import (
	"testing"

	"tlstm/internal/cm"
	"tlstm/internal/mode"
	"tlstm/internal/txstats"
)

func newDesc(mc mode.Config) (*Driver, *Desc) {
	b := new(Base)
	b.Init("test", Configure(cm.KindSuicide, []Option{WithMode(mc)}), 4, 1)
	x := new(Desc)
	x.Init(b, "test")
	return &b.Drv, x
}

// TestCommittedFoldsTheTransaction drives one transaction through an
// aborted and a committed attempt and checks the fold.
func TestCommittedFoldsTheTransaction(t *testing.T) {
	_, x := newDesc(mode.Config{})
	var thr Thread
	var c txstats.Counters
	x.Begin(&thr, &c)
	x.Next()
	x.Aborted()
	x.Next()
	x.Extends, x.MVReads = 3, 4
	x.Conflict(0)
	x.Committed(5, 6)

	if c.Work != 2*StartCost {
		t.Errorf("Work = %d, want %d (two attempts)", c.Work, 2*StartCost)
	}
	if c.SnapshotExtensions != 3 || c.MVReads != 4 {
		t.Errorf("extensions/mvReads = %d/%d, want 3/4", c.SnapshotExtensions, c.MVReads)
	}
	if c.RestartLatency.Total() != 1 || c.CommitLatency.Total() != 1 {
		t.Errorf("restart/commit latency samples = %d/%d, want 1/1",
			c.RestartLatency.Total(), c.CommitLatency.Total())
	}
	if c.Attempts.Quantile(1) != 3 { // bucket holding 2 attempts
		t.Errorf("attempts = %v, want one transaction of 2 attempts", c.Attempts)
	}
	if c.ReadSetSizes.Total() != 1 || c.WriteSetSizes.Total() != 1 {
		t.Errorf("set-size samples = %d/%d, want 1/1", c.ReadSetSizes.Total(), c.WriteSetSizes.Total())
	}
	if c.ConflictSketch.Total() != 1 || c.CrossShardConflicts != 0 {
		t.Errorf("sketch/cross-shard = %d/%d, want 1/0 (shard 0 is home)",
			c.ConflictSketch.Total(), c.CrossShardConflicts)
	}
}

// TestEscalationHoldsTheGateUntilCommit checks that an exhausted attempt
// budget moves the transaction under the gate mid-flight and that
// commit releases it.
func TestEscalationHoldsTheGateUntilCommit(t *testing.T) {
	d, x := newDesc(mode.Config{Policy: mode.Adaptive, FallbackAttempts: 2})
	var thr Thread
	var c txstats.Counters
	x.Begin(&thr, &c)
	for i := 0; i < 2; i++ {
		x.Next()
		x.Aborted()
	}
	if !x.InSerial() || !d.gate.Pending() {
		t.Fatalf("after the attempt budget: InSerial=%v pending=%v, want both", x.InSerial(), d.gate.Pending())
	}
	if c.ModeFallbacks != 1 {
		t.Fatalf("ModeFallbacks = %d, want 1", c.ModeFallbacks)
	}
	x.Next()
	x.Committed(0, 0)
	if x.InSerial() || d.gate.Pending() {
		t.Fatalf("after commit: InSerial=%v pending=%v, want neither", x.InSerial(), d.gate.Pending())
	}
}

// TestSerialPolicyEntersTheGateAtBegin checks the always-serialized rung.
func TestSerialPolicyEntersTheGateAtBegin(t *testing.T) {
	_, x := newDesc(mode.Config{Policy: mode.Serial})
	var thr Thread
	var c txstats.Counters
	x.Begin(&thr, &c)
	if !x.InSerial() {
		t.Fatalf("serial policy: transaction began outside the gate")
	}
	x.Next()
	x.Committed(0, 0)
	if x.InSerial() {
		t.Fatalf("commit did not leave the gate")
	}
}

// TestRetryParksUntilNotified checks Subscribe/Settle: a valid read set
// parks before the next attempt and a notify with an intersecting
// fingerprint wakes it; a stale one does not park.
func TestRetryParksUntilNotified(t *testing.T) {
	d, x := newDesc(mode.Config{})
	var thr Thread
	var c txstats.Counters
	x.Begin(&thr, &c)
	x.Next()
	if x.Subscribe(0) {
		t.Fatalf("an empty read set subscribed")
	}
	fp := mode.FPAdd(0, 42)
	if !x.Subscribe(fp) {
		t.Fatalf("a non-empty read set did not subscribe")
	}
	x.Settle(true)
	x.Aborted()
	go d.Hub.Notify(fp)
	x.Next() // parks until the notify
	if c.RetryWakes != 1 {
		t.Fatalf("RetryWakes = %d, want 1", c.RetryWakes)
	}
	x.Subscribe(fp)
	x.Settle(false)
	x.Aborted()
	x.Next() // stale: no park
	x.Committed(0, 0)
	if c.RetryWakes != 1 || d.Hub.Active() {
		t.Fatalf("stale Retry: RetryWakes = %d, hub active = %v; want 1, false", c.RetryWakes, d.Hub.Active())
	}
}
