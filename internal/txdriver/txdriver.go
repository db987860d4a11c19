// Package txdriver is the shell and the transaction driver of the
// three flat runtimes — SwissTM (internal/stm), TL2 (internal/tl2) and
// the write-through STM (internal/wtstm). It declares once what the
// three share outside their protocols:
//
//   - the options (Option, Config: clock, contention manager,
//     multi-versioning, tracing, shards, affinity, mode ladder) — a new
//     flat-runtime option is declared here, and each runtime supplies
//     only its default contention manager;
//   - the Base every Runtime embeds by value: word store, allocator,
//     clock, multi-version store, recorder, Driver, the self-description
//     accessors and the pool of Stats contexts Atomic(nil, fn) borrows;
//   - the Stats thread context of the runtimes without thread
//     descriptors (TL2, wtstm).
//
// Around one attempt, it owns:
//
//   - the per-thread context (Thread): the execution-mode controller,
//     the placement identity and home shard, the remap window;
//   - the per-transaction bookkeeping embedded in every descriptor
//     (Desc): attempt and abort counts, allocations and deferred frees,
//     the contention-management identity, the clock probe, the conflict
//     sketch and the tracer;
//   - the retry-loop decisions: serialized-gate entry and mid-transaction
//     escalation, the gate-yield backoff, Retry parking, contention
//     backoff, ladder outcome, and the commit-time fold into
//     txstats.Counters followed by the placement remap step.
//
// A runtime keeps its own protocol: the begin-attempt reset, the
// attempt itself (body, commit and rollback unwind) and its Load/Store
// paths. Its retry loop is the same five lines everywhere:
//
//	tx.d.Begin(thr, counters)
//	for {
//		tx.begin(tx.d.Next())
//		if tx.attempt(fn) {
//			break
//		}
//		tx.d.Aborted()
//	}
//	tx.d.Committed(reads, writes)
//
// The driver runs once per transaction and once per attempt, never per
// access, and the body fn never crosses into it (a closure stored or
// passed through an interface would escape and allocate per call).
// TLSTM (internal/core) keeps its own task pipeline and shares only
// txstats.Counters and the sched.Remapper step.
package txdriver

import (
	"runtime"
	"sync/atomic"
	"time"

	"tlstm/internal/clock"
	"tlstm/internal/cm"
	"tlstm/internal/locktable"
	"tlstm/internal/mem"
	"tlstm/internal/mode"
	"tlstm/internal/sched"
	"tlstm/internal/tm"
	"tlstm/internal/txstats"
	"tlstm/internal/txtrace"
)

// Work-unit model constants shared by the flat runtimes (the
// virtual-time model: README, "Reproducing the paper's figures").
const (
	// YieldQuantum is the forced-interleaving grain: a transaction
	// yields the processor every YieldQuantum work units, so concurrent
	// transactions overlap even on one CPU. Waiting on another
	// transaction's lock is charged one quantum per spin round.
	YieldQuantum = 64
	// StartCost models transaction setup (descriptor and log reset,
	// timestamp read); TLSTM charges the same constant per task.
	StartCost = 24
	// ValidationStride discounts validation: one work unit per this
	// many read-log entries checked.
	ValidationStride = 8
)

// Driver is one runtime instance's shared driver state: the commit
// clock (for trace stamps), the contention manager, the mode ladder's
// gate and Retry hub, and the thread placement. Base.Init configures it.
type Driver struct {
	clk       clock.Source
	cm        cm.Policy
	mode      mode.Config
	gate      mode.Gate
	placement sched.Placement
	threadIDs atomic.Int32

	// Hub parks Retry waiters; committers ring it with their write-set
	// fingerprint when Hub.Active reports a waiter.
	Hub *mode.WaitHub
}

// Thread is one logical thread's driver context: a stm.Worker, or the
// caller-owned Stats shard of TL2 and wtstm (which have no thread
// descriptor of their own). It is bound to a placement identity and
// given a mode controller on first use, and is touched only by the
// goroutine that owns it.
type Thread struct {
	bound bool
	id    int
	home  int32
	remap sched.Remapper
	ctl   mode.Controller
}

// Bind gives t its placement identity and mode controller if it has
// none yet. Begin binds lazily; a runtime that wants identities in
// creation order binds eagerly.
func (d *Driver) Bind(t *Thread) {
	if t.bound {
		return
	}
	t.bound = true
	t.id = int(d.threadIDs.Add(1) - 1)
	t.home = int32(d.placement.Home(t.id))
	t.ctl = mode.NewController(d.mode)
}

// Desc is the driver's half of a transaction descriptor, embedded (as a
// named field) in each runtime's Tx. The exported fields are the ones
// the runtime's own paths update; the driver folds them at commit.
type Desc struct {
	d   *Driver
	thr *Thread
	c   *txstats.Counters

	// al is the runtime's allocator; allocs are the current attempt's
	// allocations (freed if it aborts) and frees its frees (deferred to
	// commit).
	al     *mem.Allocator
	allocs []tm.Addr
	frees  []tm.Addr

	// Tr is the descriptor's flight recorder (txtrace.Nop by default);
	// Traced caches Tr.Enabled() so the disabled hot path costs one
	// predicted branch instead of an interface call per operation.
	Tr     txtrace.Tracer
	Traced bool

	// Work is the transaction's work units (all attempts); Aborts its
	// aborted attempts; Extends, MVReads and MVMisses its snapshot
	// extensions and multi-version path outcomes.
	Work     uint64
	Aborts   uint64
	Extends  uint64
	MVReads  uint64
	MVMisses uint64

	// GreedTS is the priority slot contention-management policies
	// publish into; ClkProbe accumulates clock CAS retries (and pins the
	// descriptor to a shard under the sharded strategy).
	GreedTS  atomic.Uint64
	ClkProbe clock.Probe

	// cmSelf/cmProbe are the contention-management identity and
	// counters.
	cmSelf  cm.Self
	cmProbe cm.Probe

	// inSerial marks a transaction holding the serialized gate: it is
	// exempt from the gate-yield break in conflict wait loops. serial is
	// the rung this transaction runs on (it keeps the rung across a
	// Retry park, which releases the gate); gateYield asks for
	// one SpinInit backoff after an abort taken to let a gate entrant
	// pass; retryAborts counts Retry unwinds, excluded from the ladder's
	// escalation signals; start is the current attempt's start time.
	inSerial    bool
	serial      bool
	gateYield   bool
	retryAborts uint64
	start       time.Time

	// waiter/parkPending/parkFP are the Retry cond-var state: Retry
	// subscribes the read-set fingerprint and settles parkPending; Next
	// parks before the following attempt.
	waiter      mode.Waiter
	parkPending bool
	parkFP      uint64

	// home is the thread's home shard for this transaction;
	// sketch/crossShard attribute its aborts and CM defeats to shards.
	home       int32
	sketch     txstats.Sketch
	crossShard uint64
}

// Init wires x to its runtime's shell: the driver, the allocator and,
// with a recorder armed, a new event ring labeled label (whose prefix
// up to the first '-' is the runtime's trace namespace). Call it once,
// when the descriptor is created; a Desc must not be copied afterwards.
func (x *Desc) Init(b *Base, label string) {
	x.d = &b.Drv
	x.al = b.Al
	x.Tr = txtrace.Nop
	if b.Trace != nil {
		x.Tr = b.Trace.NewRing(label)
	}
	x.Traced = x.Tr.Enabled()
	x.cmSelf.Timestamp = &x.GreedTS
	x.cmSelf.Probe = &x.cmProbe
}

// Begin starts one transaction of thread thr (binding it if needed)
// whose statistics fold into c. A serialized transaction takes the
// runtime gate before its first attempt — announcing itself so
// speculative wait loops yield — and runs the runtime's unchanged
// protocol under it: opacity by construction, serialization only
// against other fallback entrants.
func (x *Desc) Begin(thr *Thread, c *txstats.Counters) {
	x.d.Bind(thr)
	x.thr, x.c = thr, c
	x.home = thr.home
	x.Work, x.Aborts, x.retryAborts = 0, 0, 0
	x.Extends, x.MVReads, x.MVMisses = 0, 0, 0
	x.gateYield = false
	x.GreedTS.Store(0)
	x.cmSelf.Defeats = 0
	x.sketch = txstats.Sketch{}
	x.crossShard = 0
	if x.Traced {
		x.Tr.Record(txtrace.KindTxBegin, x.d.clk.Now(), 0, 0)
	}
	x.serial = thr.ctl.Serial()
	if x.serial {
		x.enterGate()
	}
}

// Next readies the next attempt — parking first if the previous one
// unwound in Retry — charges StartCost and returns the attempt's read
// stamp, a fresh clock sample.
func (x *Desc) Next() uint64 {
	if x.parkPending {
		x.park()
	}
	x.start = time.Now()
	x.Work += StartCost
	x.allocs, x.frees = x.allocs[:0], x.frees[:0]
	rv := x.d.clk.Now()
	if x.Traced {
		x.Tr.Record(txtrace.KindAttemptStart, rv, x.Aborts+1, 0)
	}
	return rv
}

// Aborted accounts one rolled-back attempt and decides what precedes
// the next: nothing after a Retry unwind (it parks in Next), gate entry
// once the attempt budget is exhausted, otherwise the gate-yield and
// contention backoffs.
func (x *Desc) Aborted() {
	x.c.RestartLatency.Observe(int(time.Since(x.start)))
	x.Aborts++
	if x.parkPending {
		x.retryAborts++
		return
	}
	if !x.serial && x.thr.ctl.Escalate(int(x.Aborts-x.retryAborts)) {
		// Attempt budget exhausted mid-transaction (TK_NUM_TRIES): move
		// this transaction under the gate and retry there.
		x.serial = true
		x.c.ModeFallbacks++
		if x.Traced {
			x.Tr.Record(txtrace.KindModeShift, x.d.clk.Now(),
				uint64(mode.StateSerial), uint32(mode.StateSpec))
		}
		x.enterGate()
		return
	}
	if x.gateYield {
		// We aborted to let a gate entrant pass: back off SpinInit
		// yields so the serialized cohort gets cycles first.
		x.gateYield = false
		for i := 0; i < x.d.mode.SpinInit; i++ {
			runtime.Gosched()
		}
	}
	// Back off per policy so the conflict window is not re-entered
	// immediately (and, on one CPU, so the lock owner we lost to gets
	// scheduled before we re-acquire).
	x.cmSelf.Aborts = x.Aborts
	for i, n := 0, cm.AbortBackoff(x.d.cm, &x.cmSelf); i < n; i++ {
		runtime.Gosched()
	}
}

// Committed closes a committed transaction: it leaves the gate, feeds
// the ladder, folds the transaction into the thread's counters (reads
// and writes are its final read- and write-set sizes) and runs the
// placement remap step.
func (x *Desc) Committed(reads, writes int) {
	if x.serial {
		x.exitGate()
	}
	d, thr, c := x.d, x.thr, x.c
	if fell, rec := thr.ctl.OnOutcome(x.Aborts-x.retryAborts, x.cmSelf.Defeats > 0); fell || rec {
		if fell {
			c.ModeFallbacks++
		} else {
			c.ModeRecoveries++
		}
		if x.Traced {
			x.Tr.Record(txtrace.KindModeShift, d.clk.Now(),
				uint64(thr.ctl.State()), uint32(1-thr.ctl.State()))
		}
	}
	cm.Committed(d.cm, &x.cmSelf)
	cmSelf, cmOwner, spins := x.cmProbe.TakeCounts()
	c.Work += x.Work
	c.SnapshotExtensions += x.Extends
	c.ClockCASRetries += x.ClkProbe.TakeRetries()
	c.CMAbortsSelf += cmSelf
	c.CMAbortsOwner += cmOwner
	c.BackoffSpins += spins
	c.MVReads += x.MVReads
	c.MVMisses += x.MVMisses
	c.ReadSetSizes.Observe(reads)
	c.WriteSetSizes.Observe(writes)
	c.CommitLatency.Observe(int(time.Since(x.start)))
	c.Attempts.Observe(int(x.Aborts) + 1)
	c.ConflictSketch.Merge(x.sketch)
	c.CrossShardConflicts += x.crossShard
	thr.remap.Observe(x.sketch)
	if thr.remap.Step(d.placement, thr.id) {
		old := thr.home
		thr.home = int32(d.placement.Home(thr.id))
		c.Remaps++
		if x.Traced {
			x.Tr.Record(txtrace.KindRemap, d.clk.Now(), uint64(thr.home), uint32(old))
		}
	}
	x.thr, x.c = nil, nil
}

// enterGate moves the transaction under the serialized rung: the gate
// raises pending before the lock is contended, so speculative wait
// loops start yielding immediately.
func (x *Desc) enterGate() {
	x.inSerial = true
	x.d.gate.Enter()
}

func (x *Desc) exitGate() {
	x.d.gate.Exit()
	x.inSerial = false
}

// park blocks the transaction on its Retry doorbell until a conflicting
// commit rings it. A serialized transaction releases the gate across
// the park (its producer may need the serialized rung) and re-enters
// after.
func (x *Desc) park() {
	x.parkPending = false
	if x.Traced {
		x.Tr.Record(txtrace.KindRetryPark, x.d.clk.Now(), x.parkFP, 0)
	}
	if x.serial {
		x.exitGate()
	}
	x.waiter.Park()
	x.d.Hub.Unsubscribe(&x.waiter)
	if x.serial {
		x.enterGate()
	}
	x.c.RetryWakes++
	if x.Traced {
		x.Tr.Record(txtrace.KindRetryPark, x.d.clk.Now(), x.parkFP, 1)
	}
}

// Subscribe is the first half of Retry: it registers the attempt's
// read-set fingerprint with the hub and reports whether it did (an
// empty read set never parks). The runtime then re-validates its read
// log and calls Settle — a commit that published before the
// subscription fails that validation, one that publishes after it
// finds the waiter registered and rings its doorbell.
func (x *Desc) Subscribe(fp mode.Fingerprint) bool {
	if fp == 0 {
		return false
	}
	x.d.Hub.Subscribe(&x.waiter, fp)
	x.parkFP = uint64(fp)
	return true
}

// Settle is the second half of Retry: a still-valid read set parks
// before the next attempt; a stale one unsubscribes and re-runs at
// once.
func (x *Desc) Settle(valid bool) {
	if valid {
		x.parkPending = true
	} else {
		x.d.Hub.Unsubscribe(&x.waiter)
	}
}

// InSerial reports whether the transaction holds the serialized gate.
func (x *Desc) InSerial() bool { return x.inSerial }

// Tick charges units of work and enforces the interleaving grain.
func (x *Desc) Tick(units uint64) {
	x.Work += units
	if x.Work%YieldQuantum < units {
		runtime.Gosched()
	}
}

// Resolve asks the contention manager about a conflict at address a
// (owner nil for anonymous versioned locks), after waited rounds on it,
// with writes locked or buffered so far; stamp is the trace clock.
func (x *Desc) Resolve(pt cm.Point, a tm.Addr, owner *locktable.OwnerRef, writes, waited int, stamp uint64) cm.Decision {
	x.cmSelf.Point = pt
	x.cmSelf.Writes = writes
	x.cmSelf.Waited = waited
	dec := cm.Resolve(x.d.cm, &x.cmSelf, owner)
	if x.Traced {
		x.Tr.Record(txtrace.KindCMDecision, stamp, uint64(a),
			txtrace.CMAux(int(dec), int(pt)))
	}
	return dec
}

// Conflict attributes one abort to lock-table shard (a cold path: it
// runs only when an attempt dies).
func (x *Desc) Conflict(shard int) {
	x.sketch.Observe(shard)
	if int32(shard) != x.home {
		x.crossShard++
	}
}

// Defeat records a conflict lost at shard: the ladder's defeat signal
// plus shard attribution. The caller aborts.
func (x *Desc) Defeat(shard int) {
	x.cmSelf.Defeats++
	x.Conflict(shard)
}

// YieldToGate reports whether a speculative transaction riding out a
// conflict at shard must abort instead, because a serialized entrant
// holds or awaits the gate (riding on could deadlock against it: the
// owner may itself be parked behind the gate). On true the defeat is
// recorded, the next backoff includes SpinInit yields, and the caller
// aborts.
func (x *Desc) YieldToGate(shard int) bool {
	if x.inSerial || !x.d.gate.Pending() {
		return false
	}
	x.Defeat(shard)
	x.gateYield = true
	return true
}
