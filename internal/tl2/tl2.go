// Package tl2 implements Transactional Locking II (Dice, Shalev, Shavit
// — DISC'06), the STM whose global-version-clock validation SwissTM
// builds on (the paper cites it as [15] for lazy counter-based
// validation). It serves as a second baseline: the SwissTM paper showed
// SwissTM outperforming TL2, and the ablation benchmark
// BenchmarkAblationBaselines checks that relationship holds here too.
//
// Differences from SwissTM (internal/stm), per the two papers:
//
//   - TL2 detects write/write conflicts lazily at commit time (write
//     locks are only taken while committing), where SwissTM acquires
//     write locks eagerly at encounter time;
//   - TL2 aborts immediately on reading a location newer than the
//     transaction's read version (no timestamp extension), where
//     SwissTM revalidates and extends its snapshot;
//   - conflict resolution defaults to pure self-abort with backoff
//     (the cm.Suicide policy); txdriver.WithCM swaps in any other
//     contention-management strategy — TL2's locks are anonymous
//     version words, so policies resolve against a nil owner and can
//     shape only the requester's waiting, aborting and backoff.
//
// The engine substrate (version clock, read log, write set, held-lock
// bookkeeping) comes from internal/clock and internal/txlog; descriptors
// are pooled per runtime, so steady-state transactions allocate nothing.
package tl2

import (
	"runtime"
	"sync"
	"unsafe"

	"tlstm/internal/cm"
	"tlstm/internal/locktable"
	// Imported for the compiler: it inlines mem.Store's LoadWord and
	// StoreWord (reached through txdriver.Base) only into importers.
	_ "tlstm/internal/mem"
	"tlstm/internal/mode"
	"tlstm/internal/tm"
	"tlstm/internal/txdriver"
	"tlstm/internal/txlog"
	"tlstm/internal/txtrace"
)

// Runtime is one TL2 instance: the flat-runtime shell and an array of
// versioned write-locks.
type Runtime struct {
	txdriver.Base

	locks locktable.Versions // versioned write-locks (version or Locked)

	txPool sync.Pool // *Tx descriptors, reused across Atomic calls
}

// New creates a TL2 runtime with 2^bits versioned locks (bits <= 0
// means 20). The options are the shared flat-runtime set
// (internal/txdriver); the default contention manager is cm.Suicide.
func New(bits int, opts ...txdriver.Option) *Runtime {
	if bits <= 0 {
		bits = 20
	}
	c := txdriver.Configure(cm.KindSuicide, opts)
	c.FixedGeometry("tl2")
	rt := &Runtime{locks: locktable.NewVersions(bits, c.Shards)}
	rt.Init("tl2", c, bits, rt.locks.Shards())
	return rt
}

// Stats accumulates one logical thread's statistics across Atomic
// calls, and is the thread: TL2 has no thread descriptor (Tx descriptors
// are pooled per runtime), so the caller-owned Stats carries the
// driver's thread context. SnapshotExtensions is always 0 for TL2 (it
// aborts on a read past its read version instead of extending), and so
// are EntryReclaims and HorizonStalls (its write set buffers records in
// place; there are no lock-table entries to reclaim).
type Stats = txdriver.Stats

type rollbackSignal struct{}

// Tx is one TL2 transaction descriptor; it implements tm.Tx. It is
// pooled by the runtime and reused across Atomic calls: its read log,
// write set and held-lock scratch keep their backing storage.
type Tx struct {
	rt *Runtime
	rv uint64 // read version (clock sample at begin)

	// readLog records only lock words: TL2 validates every read
	// against the single read version rv, so per-entry versions would
	// be dead weight (txlog.LockLog vs VersionedReadLog).
	readLog  txlog.LockLog
	writeSet txlog.WriteSet
	held     txlog.LockSet // commit-time write locks

	// d is the driver's half of the descriptor: attempt and allocation
	// bookkeeping, contention-management identity, clock probe and
	// tracer.
	d txdriver.Desc

	// mvOn is true while a transaction declared read-only (AtomicRO)
	// runs the multi-version wait-free read path. A miss clears it for
	// the rest of the transaction and re-runs it validated — never an
	// error.
	mvOn bool
}

var _ tm.Tx = (*Tx)(nil)

// Atomic runs fn as one transaction, retrying until commit. st is the
// calling logical thread: its counters and its driver context (mode
// ladder, placement). A nil st borrows a pooled context whose counters
// are discarded.
func (rt *Runtime) Atomic(st *Stats, fn func(tx *Tx)) {
	rt.run(st, fn, false)
}

// AtomicRO runs fn as one transaction declared read-only. With
// multi-versioning enabled (txdriver.WithMultiVersion), the
// transaction reads the newest version with timestamp <= its
// snapshot, logs nothing, skips validation, and commits
// unconditionally; a reader overrun by more than K writers — or an
// undeclared store — silently re-runs the transaction on the
// validated path.
func (rt *Runtime) AtomicRO(st *Stats, fn func(tx *Tx)) {
	rt.run(st, fn, true)
}

func (rt *Runtime) run(st *Stats, fn func(tx *Tx), ro bool) {
	tx, _ := rt.txPool.Get().(*Tx)
	if tx == nil {
		tx = &Tx{rt: rt}
		tx.d.Init(&rt.Base, "tl2-tx")
	}
	st, borrowed := rt.Borrow(st)
	tx.mvOn = ro && rt.MV != nil
	tx.d.Begin(&st.Thread, &st.Counters)
	for {
		tx.begin(tx.d.Next())
		if tx.attempt(fn) {
			break
		}
		tx.d.Aborted()
	}
	tx.d.Committed(tx.readLog.Len(), tx.writeSet.Len())
	st.Commits++
	st.Aborts += tx.d.Aborts
	rt.txPool.Put(tx)
	rt.Return(st, borrowed)
}

// begin resets the descriptor for one attempt at read version rv.
func (tx *Tx) begin(rv uint64) {
	tx.rv = rv
	tx.readLog.Reset()
	tx.writeSet.Reset()
	tx.held.Reset()
}

func (tx *Tx) attempt(fn func(tx *Tx)) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, is := r.(rollbackSignal); !is {
				tx.d.UndoAllocs()
				panic(r)
			}
			ok = false
		}
	}()
	fn(tx)
	tx.commit()
	return true
}

// abort records the rollback's reason on the trace, undoes speculative
// allocation and unwinds to the retry loop.
func (tx *Tx) abort(reason uint32) {
	if tx.d.Traced {
		tx.d.Tr.Record(txtrace.KindAbort, tx.rv, 0, reason)
	}
	tx.d.UndoAllocs()
	panic(rollbackSignal{})
}

// Load implements tm.Tx: TL2's versioned read with pre/post lock checks.
func (tx *Tx) Load(a tm.Addr) uint64 {
	if tx.mvOn {
		return tx.loadMV(a)
	}
	tx.d.Tick(1)
	if v, buffered := tx.writeSet.Get(a); buffered {
		return v
	}
	l := tx.rt.locks.For(a)
	waited := 0
	for {
		v1 := l.Load()
		if v1 == locktable.Locked {
			// Locked by a committing transaction mid-publish: the
			// policy decides between riding the publish out and
			// aborting (the Suicide default waits — the hold is short
			// and the committer is past the point of being aborted).
			dec := tx.d.Resolve(cm.PointCommit, a, nil, tx.writeSet.Len(), waited, tx.rv)
			if dec == cm.AbortSelf {
				tx.d.Defeat(tx.rt.locks.ShardOf(l))
				tx.abort(txtrace.AbortCM)
			}
			if tx.d.YieldToGate(tx.rt.locks.ShardOf(l)) {
				// Riding this conflict out could starve a serialized
				// entrant; the driver charges SpinInit backoff first.
				tx.abort(txtrace.AbortCM)
			}
			waited++
			runtime.Gosched()
			continue
		}
		val := tx.rt.Mem.LoadWord(a)
		if l.Load() != v1 {
			continue
		}
		if v1 > tx.rv {
			// Newer than our read version: TL2 aborts (no extension).
			// Fold the stamp into the clock first so the retry's fresh
			// read version covers it (pre-publishing strategies never
			// advance on their own).
			tx.rt.Clock.Observe(v1, &tx.d.ClkProbe)
			tx.d.Conflict(tx.rt.locks.ShardOf(l))
			tx.abort(txtrace.AbortValidation)
		}
		tx.readLog.Append(l)
		if tx.d.Traced {
			tx.d.Tr.Record(txtrace.KindRead, v1, uint64(a), 0)
		}
		return val
	}
}

// loadMV is the wait-free read path of a declared read-only transaction
// under multi-versioning: serve the newest version with timestamp <=
// the frozen read version — from memory when the current version
// qualifies, else from the version ring — logging nothing. Where
// baseline TL2 aborts on any read past rv, a declared reader only
// leaves this path (and re-runs validated) when the ring has been
// overrun by more than K commits.
func (tx *Tx) loadMV(a tm.Addr) uint64 {
	tx.d.Tick(1)
	l := tx.rt.locks.For(a)
	for {
		v1 := l.Load()
		if v1 != locktable.Locked && v1 <= tx.rv {
			val := tx.rt.Mem.LoadWord(a)
			if l.Load() == v1 {
				tx.d.MVReads++
				if tx.d.Traced {
					tx.d.Tr.Record(txtrace.KindRead, v1, uint64(a), 1)
				}
				return val
			}
			continue // torn read: version moved underneath us
		}
		if val, from, ok := tx.rt.MV.ReadAt(a, tx.rv); ok {
			tx.d.MVReads++
			if tx.d.Traced {
				// Clock carries the served version's birth stamp, not the
				// snapshot: the opacity checker needs the observed version.
				tx.d.Tr.Record(txtrace.KindRead, from, uint64(a), 1)
			}
			return val
		}
		if v1 == locktable.Locked {
			// A committer is publishing this lock; its displaced version
			// lands in the ring, so wait out the brief hold and retry.
			runtime.Gosched()
			continue
		}
		tx.d.MVMisses++
		tx.mvOn = false
		tx.abort(txtrace.AbortSpec)
	}
}

// Store implements tm.Tx: writes buffer in the write set until commit.
func (tx *Tx) Store(a tm.Addr, v uint64) {
	if tx.mvOn {
		// A store in a declared read-only transaction: the earlier
		// multi-version reads were unlogged at a frozen read version, so
		// re-run the attempt on the validated read-write path.
		tx.mvOn = false
		tx.abort(txtrace.AbortSpec)
	}
	tx.d.Tick(2)
	tx.writeSet.Put(a, v)
	if tx.d.Traced {
		tx.d.Tr.Record(txtrace.KindWrite, tx.rv, uint64(a), 0)
	}
}

// Retry is the transactional cond-var wait: abandon this attempt and
// block until a commit whose write set intersects this attempt's read
// set publishes, then re-run fn against a fresh snapshot. The waiter
// subscribes its read-set fingerprint first, then re-validates the
// read log — a commit that published before the subscription fails the
// validation (immediate re-run, no park); one that publishes after it
// finds the waiter registered and rings its doorbell. An empty or
// already-stale read set never parks.
func (tx *Tx) Retry() {
	if tx.mvOn {
		// Multi-version reads are unlogged: nothing to fingerprint.
		// Re-run on the validated path, where the next Retry can park.
		tx.mvOn = false
		tx.abort(txtrace.AbortRetry)
	}
	var fp mode.Fingerprint
	for _, l := range tx.readLog.Locks() {
		fp = mode.FPAdd(fp, uintptr(unsafe.Pointer(l)))
	}
	if tx.d.Subscribe(fp) {
		valid := true
		for _, l := range tx.readLog.Locks() {
			if v := l.Load(); v == locktable.Locked || v > tx.rv {
				valid = false
				break
			}
		}
		tx.d.Settle(valid)
	}
	tx.abort(txtrace.AbortRetry)
}

// Alloc implements tm.Tx: allocation is undone if the attempt aborts.
func (tx *Tx) Alloc(n int) tm.Addr { return tx.d.Alloc(n) }

// Free implements tm.Tx: the release is deferred to commit.
func (tx *Tx) Free(a tm.Addr) { tx.d.Free(a) }

// commit is TL2's commit: lock the write set (in address order, to
// avoid deadlock between committers), bump the clock, validate the read
// set, publish, release.
func (tx *Tx) commit() {
	if tx.writeSet.Len() == 0 {
		// Read-only: already validated against rv at every read.
		tx.d.ApplyFrees()
		if tx.d.Traced {
			tx.d.Tr.Record(txtrace.KindCommit, tx.rv, 0, 0)
		}
		return
	}

	for _, a := range tx.writeSet.SortedAddrs() {
		l := tx.rt.locks.For(a)
		if tx.held.Holds(l) {
			continue
		}
		waited := 0
		for {
			v := l.Load()
			if v == locktable.Locked {
				// A competing committer holds this lock. Address-order
				// acquisition rules out committer/committer deadlock,
				// so waiting is safe; whether to wait or abort is the
				// policy's call (the Suicide default spins a bounded
				// commit grace, like the old inlined loop).
				dec := tx.d.Resolve(cm.PointCommit, a, nil, tx.writeSet.Len(), waited, tx.rv)
				if dec == cm.AbortSelf {
					tx.held.Restore()
					tx.d.Defeat(tx.rt.locks.ShardOf(l))
					tx.abort(txtrace.AbortCM)
				}
				if tx.d.YieldToGate(tx.rt.locks.ShardOf(l)) {
					tx.held.Restore()
					tx.abort(txtrace.AbortCM)
				}
				waited++
				tx.d.Work += txdriver.YieldQuantum
				runtime.Gosched()
				continue
			}
			if v > tx.rv {
				tx.held.Restore()
				tx.rt.Clock.Observe(v, &tx.d.ClkProbe)
				tx.d.Conflict(tx.rt.locks.ShardOf(l))
				tx.abort(txtrace.AbortConflict)
			}
			if l.CompareAndSwap(v, locktable.Locked) {
				tx.held.Add(l, v)
				break
			}
		}
		tx.d.Work++
	}

	wv := tx.rt.Clock.Tick(&tx.d.ClkProbe)

	// Validate the read set unless nothing could have changed. The
	// wv == rv+1 shortcut is sound only when timestamps are exclusive:
	// a non-exclusive strategy (deferred, sharded) can hand the same wv
	// to a concurrent writer, so "the clock moved once" no longer means
	// "only we committed".
	if !tx.rt.Exclusive || wv != tx.rv+1 {
		for i, l := range tx.readLog.Locks() {
			if i%txdriver.ValidationStride == 0 {
				tx.d.Work++
			}
			v := l.Load()
			if v == locktable.Locked {
				if !tx.held.Holds(l) {
					if tx.d.Traced {
						tx.d.Tr.Record(txtrace.KindValidate, wv, uint64(tx.readLog.Len()), 0)
					}
					tx.held.Restore()
					tx.d.Conflict(tx.rt.locks.ShardOf(l))
					tx.abort(txtrace.AbortValidation)
				}
				continue
			}
			if v > tx.rv {
				if tx.d.Traced {
					tx.d.Tr.Record(txtrace.KindValidate, wv, uint64(tx.readLog.Len()), 0)
				}
				tx.held.Restore()
				tx.rt.Clock.Observe(v, &tx.d.ClkProbe)
				tx.d.Conflict(tx.rt.locks.ShardOf(l))
				tx.abort(txtrace.AbortValidation)
			}
		}
		if tx.d.Traced {
			tx.d.Tr.Record(txtrace.KindValidate, wv, uint64(tx.readLog.Len()), 1)
		}
	}

	// Feed the multi-version store while memory still holds the values
	// this commit is about to overwrite: each written word's old value
	// was the committed value over [displaced lock version, wv).
	if mv := tx.rt.MV; mv != nil {
		tx.writeSet.Range(func(a tm.Addr, _ uint64) {
			pre, _ := tx.held.Displaced(tx.rt.locks.For(a))
			mv.Publish(a, tx.rt.Mem.LoadWord(a), pre, wv)
		})
	}

	tx.writeSet.Range(func(a tm.Addr, v uint64) {
		tx.rt.Mem.StoreWord(a, v)
		if tx.d.Traced {
			tx.d.Tr.Record(txtrace.KindCommitWord, wv, uint64(a), 0)
		}
		tx.d.Work++
	})
	tx.held.Publish(wv)
	// Ring Retry waiters whose read fingerprints intersect this write
	// set; the no-waiter fast path is one atomic load.
	if hub := tx.rt.Drv.Hub; hub.Active() {
		var fp mode.Fingerprint
		tx.writeSet.Range(func(a tm.Addr, _ uint64) {
			fp = mode.FPAdd(fp, uintptr(unsafe.Pointer(tx.rt.locks.For(a))))
		})
		hub.Notify(fp)
	}
	tx.d.ApplyFrees()
	if tx.d.Traced {
		tx.d.Tr.Record(txtrace.KindCommit, wv, uint64(tx.writeSet.Len()), 0)
	}
}
