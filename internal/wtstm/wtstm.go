// Package wtstm is a write-through (in-place) software transactional
// memory in the style of TinySTM's write-through design (Felber,
// Fetzer, Riegel — PPoPP'08, the paper's reference [16]).
//
// The TLSTM paper's concluding remarks single this design out as future
// work: "The location redo-logs have also showed to add substantial
// overhead. Hence, different approaches for handling speculative writes
// (e.g. in-place writes [4]) should be studied." This package provides
// that alternative for the study bench (BenchmarkAblationWriteHandling):
//
//   - writes eagerly lock the location's versioned lock, save the old
//     value in an undo log, and update memory *in place*;
//   - reads of a locked location abort (the in-place value is
//     uncommitted); unlocked reads validate against the transaction's
//     read version with timestamp extension, like SwissTM;
//   - commit bumps the global clock and publishes by just releasing
//     locks with the new version — no copy-back pass;
//   - abort restores the undo log in reverse order and releases locks.
//
// The trade-off measured by the ablation: cheap commits and no
// redo-chain traversal on read-own-write, against wasted in-place
// writes on abort and reader-hostile eager locking.
//
// The engine substrate (version clock, read log, undo log, held-lock
// bookkeeping) comes from internal/clock and internal/txlog;
// descriptors are pooled per runtime, so steady-state transactions
// allocate nothing.
package wtstm

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

// Runtime is one write-through STM instance: the flat-runtime shell
// and an array of versioned locks.
type Runtime struct {
	txdriver.Base

	locks locktable.Versions // versioned locks (version or Locked)

	txPool sync.Pool // *Tx descriptors, reused across Atomic calls
}

// New creates a runtime with 2^bits versioned locks (bits <= 0 means
// 20). The options are the shared flat-runtime set (internal/txdriver);
// the default contention manager is cm.Suicide — one grace yield, then
// self-abort.
func New(bits int, opts ...txdriver.Option) *Runtime {
	if bits <= 0 {
		bits = 20
	}
	c := txdriver.Configure(cm.KindSuicide, opts)
	c.FixedGeometry("wtstm")
	rt := &Runtime{locks: locktable.NewVersions(bits, c.Shards)}
	rt.Init("wtstm", c, bits, rt.locks.Shards())
	return rt
}

// Stats accumulates one logical thread's statistics across Atomic
// calls, and is the thread: this runtime has no thread descriptor (Tx
// descriptors are pooled per runtime), so the caller-owned Stats
// carries the driver's thread context. EntryReclaims and HorizonStalls
// are always 0 here: the write-through STM updates memory in place
// under versioned locks and keeps an undo log of plain records, so no
// lock-table entries exist to reclaim.
type Stats = txdriver.Stats

type rollbackSignal struct{}

// Tx is one write-through transaction descriptor; it implements tm.Tx.
// It is pooled by the runtime and reused across Atomic calls: its read
// log, undo log and held-lock scratch keep their backing storage.
type Tx struct {
	rt *Runtime
	rv uint64

	readLog txlog.VersionedReadLog
	undo    txlog.UndoLog
	held    txlog.LockSet

	// d is the driver's half of the descriptor: attempt and allocation
	// bookkeeping, contention-management identity, clock probe and
	// tracer.
	d txdriver.Desc

	// mvOn is true while a transaction declared read-only (AtomicRO)
	// runs the multi-version wait-free read path. A miss clears it for
	// the rest of the transaction and re-runs it validated — never an
	// error.
	mvOn bool

	// mvSeen dedupes undo records per address during the commit-time
	// version publish (the undo log holds one record per Store, and only
	// the first per address carries the original committed value).
	mvSeen map[tm.Addr]struct{}

	// lastWrites snapshots held.Len() at commit, before Publish empties
	// the set, for the write-set-size histogram.
	lastWrites int
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
		tx.d.Init(&rt.Base, "wtstm-tx")
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
	tx.d.Committed(tx.readLog.Len(), tx.lastWrites)
	st.Commits++
	st.Aborts += tx.d.Aborts
	rt.txPool.Put(tx)
	rt.Return(st, borrowed)
}

// begin resets the descriptor for one attempt at read version rv.
func (tx *Tx) begin(rv uint64) {
	tx.rv = rv
	tx.readLog.Reset()
	tx.undo.Reset()
	tx.held.Reset()
	tx.lastWrites = 0
}

func (tx *Tx) attempt(fn func(tx *Tx)) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, is := r.(rollbackSignal); !is {
				tx.undoAndRelease()
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

// abort records the abort reason on the flight recorder (every
// rollback site routes through here so traces carry the cause alongside
// the count), restores in-place writes, undoes speculative allocation
// and unwinds to the retry loop.
func (tx *Tx) abort(reason uint32) {
	if tx.d.Traced {
		tx.d.Tr.Record(txtrace.KindAbort, tx.rv, 0, reason)
	}
	tx.undoAndRelease()
	tx.d.UndoAllocs()
	panic(rollbackSignal{})
}

// undoAndRelease rolls the undo log back in reverse order, then
// releases every held lock at its pre-lock version.
func (tx *Tx) undoAndRelease() {
	recs := tx.undo.Recs()
	for i := len(recs) - 1; i >= 0; i-- {
		tx.rt.Mem.StoreWord(recs[i].Addr, recs[i].Old)
		tx.d.Work++
	}
	tx.undo.Reset()
	tx.held.Restore()
}

// Load implements tm.Tx.
func (tx *Tx) Load(a tm.Addr) uint64 {
	if tx.mvOn {
		return tx.loadMV(a)
	}
	tx.d.Tick(1)
	l := tx.rt.locks.For(a)
	if tx.held.Holds(l) {
		// We hold the lock: memory already has our in-place value.
		return tx.rt.Mem.LoadWord(a)
	}
	waited := 0
	for {
		v1 := l.Load()
		if v1 == locktable.Locked {
			// Uncommitted in-place data from another transaction: a
			// write-through design cannot read around it. The policy
			// decides between waiting the owner out and aborting (the
			// Suicide default gives one grace yield, then dies — the
			// owner holds the lock for its whole lifetime).
			dec := tx.d.Resolve(cm.PointEncounter, a, nil, tx.held.Len(), waited, tx.rv)
			if dec == cm.AbortSelf {
				tx.d.Defeat(tx.rt.locks.ShardOf(l))
				tx.abort(txtrace.AbortCM)
			}
			if tx.d.YieldToGate(tx.rt.locks.ShardOf(l)) {
				tx.abort(txtrace.AbortCM)
			}
			waited++
			tx.d.Work += txdriver.YieldQuantum
			runtime.Gosched()
			continue
		}
		val := tx.rt.Mem.LoadWord(a)
		if l.Load() != v1 {
			continue
		}
		if v1 > tx.rv {
			if !tx.extendTo(v1) {
				tx.d.Conflict(tx.rt.locks.ShardOf(l))
				tx.abort(txtrace.AbortExtend)
			}
			// Re-read even though the extension covered v1: val was
			// sampled before the extension's clock sample, and a commit
			// landing between the two can overwrite this word with a stamp
			// the new rv covers. The extension did not revalidate this word
			// (it is not in the log yet), so keeping val would log a
			// version the snapshot has already moved past.
			continue
		}
		tx.readLog.Append(l, v1)
		if tx.d.Traced {
			tx.d.Tr.Record(txtrace.KindRead, v1, uint64(a), 0)
		}
		return val
	}
}

// loadMV is the wait-free read path of a declared read-only transaction
// under multi-versioning: serve the newest version with timestamp <=
// the frozen read version — from memory when the current version
// qualifies, else from the version ring — logging nothing and never
// consulting the contention manager. For this write-through runtime the
// ring is what lets a reader pass a word another transaction holds
// eagerly locked for its whole lifetime: memory holds uncommitted
// in-place data, but the last committed versions are retained. A miss
// (ring overrun, or a locked word whose committed value predates the
// ring) re-runs the whole transaction validated — the owner can hold
// the lock arbitrarily long, so waiting here is not an option.
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
		tx.d.MVMisses++
		tx.mvOn = false
		tx.abort(txtrace.AbortSpec)
	}
}

// extendTo revalidates the read log and advances rv after asking the
// clock to cover the witnessed stamp (pre-publishing strategies only
// advance on Observe; without it the stamp that sent us here would
// stay forever ahead of rv and the read would livelock).
func (tx *Tx) extendTo(witness uint64) bool {
	ts := tx.rt.Clock.Observe(witness, &tx.d.ClkProbe)
	for i, re := range tx.readLog.Entries() {
		if i%txdriver.ValidationStride == 0 {
			tx.d.Work++
		}
		if tx.readValid(re) {
			continue
		}
		if tx.d.Traced {
			tx.d.Tr.Record(txtrace.KindExtend, ts, witness, 0)
		}
		return false
	}
	if ts > tx.rv {
		tx.d.Extends++
		if tx.d.Traced {
			tx.d.Tr.Record(txtrace.KindExtend, ts, witness, 1)
		}
	}
	tx.rv = ts
	return true
}

// readValid reports whether a logged read still holds: its lock shows
// the version read, or this transaction holds the lock and the version
// its acquisition displaced is the version read. Holding the lock alone
// proves nothing — a foreign commit may have moved the version between
// the read and the acquisition.
func (tx *Tx) readValid(re txlog.VersionedRead) bool {
	if re.Lock.Load() == re.Version {
		return true
	}
	pre, held := tx.held.Displaced(re.Lock)
	return held && pre == re.Version
}

// Store implements tm.Tx: eager lock, undo log, in-place update.
func (tx *Tx) Store(a tm.Addr, v uint64) {
	if tx.mvOn {
		// A store in a declared read-only transaction: the earlier
		// multi-version reads were unlogged at a frozen read version, so
		// re-run the attempt on the validated read-write path.
		tx.mvOn = false
		tx.abort(txtrace.AbortSpec)
	}
	tx.d.Tick(2)
	l := tx.rt.locks.For(a)
	if !tx.held.Holds(l) {
		waited := 0
		for {
			cur := l.Load()
			if cur == locktable.Locked {
				// Writer/writer conflict against an anonymous eager
				// lock: the policy decides (Suicide: one grace yield,
				// then self-abort and retry).
				dec := tx.d.Resolve(cm.PointEncounter, a, nil, tx.held.Len(), waited, tx.rv)
				if dec == cm.AbortSelf {
					tx.d.Defeat(tx.rt.locks.ShardOf(l))
					tx.abort(txtrace.AbortCM)
				}
				if tx.d.YieldToGate(tx.rt.locks.ShardOf(l)) {
					tx.abort(txtrace.AbortCM)
				}
				waited++
				tx.d.Work += txdriver.YieldQuantum
				runtime.Gosched()
				continue
			}
			if cur > tx.rv && !tx.extendTo(cur) {
				tx.d.Conflict(tx.rt.locks.ShardOf(l))
				tx.abort(txtrace.AbortExtend)
			}
			if cur > tx.rv {
				continue
			}
			if l.CompareAndSwap(cur, locktable.Locked) {
				tx.held.Add(l, cur)
				break
			}
		}
	}
	tx.undo.Append(a, tx.rt.Mem.LoadWord(a))
	tx.rt.Mem.StoreWord(a, v)
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
	for _, re := range tx.readLog.Entries() {
		fp = mode.FPAdd(fp, uintptr(unsafe.Pointer(re.Lock)))
	}
	if tx.d.Subscribe(fp) {
		valid := true
		for _, re := range tx.readLog.Entries() {
			if !tx.readValid(re) {
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

// commit validates reads, then publishes by releasing locks at the new
// version — the in-place values are already in memory (no copy-back).
func (tx *Tx) commit() {
	if tx.held.Len() == 0 {
		tx.d.ApplyFrees()
		if tx.d.Traced {
			tx.d.Tr.Record(txtrace.KindCommit, tx.rv, 0, 0)
		}
		return
	}
	wv := tx.rt.Clock.Tick(&tx.d.ClkProbe)
	// The wv == rv+1 validation skip, with rv possibly advanced by
	// extendTo. Every logged read is consistent at rv: a read is logged
	// only at a version <= rv observed after rv was sampled (Load
	// re-reads after each extension), and each extension revalidates
	// the whole log after its clock sample. A committer that changes a
	// logged word locks it before ticking, so one that ticked at or
	// below rv was seen (locked or published) by that read or
	// extension. wv == rv+1 on an exclusive clock means nobody else
	// ticked since rv was sampled, so every later committer serializes
	// after this one. Non-exclusive clocks hand out shared stamps and
	// always validate.
	if !tx.rt.Exclusive || wv != tx.rv+1 {
		for i, re := range tx.readLog.Entries() {
			if i%txdriver.ValidationStride == 0 {
				tx.d.Work++
			}
			if !tx.readValid(re) {
				if tx.d.Traced {
					tx.d.Tr.Record(txtrace.KindValidate, wv, uint64(tx.readLog.Len()), 0)
				}
				tx.d.Conflict(tx.rt.locks.ShardOf(re.Lock))
				tx.abort(txtrace.AbortValidation)
			}
		}
		if tx.d.Traced {
			tx.d.Tr.Record(txtrace.KindValidate, wv, uint64(tx.readLog.Len()), 1)
		}
	}
	tx.d.Work += uint64(tx.held.Len())
	// Feed the multi-version store before the undo log is dropped:
	// memory already holds this transaction's in-place values, so the
	// displaced committed value of each written word lives in its first
	// undo record, valid over [displaced lock version, wv).
	if mv := tx.rt.MV; mv != nil {
		tx.publishVersions(wv)
	}
	if tx.d.Traced {
		// Written-word identities for the opacity checker, taken from the
		// undo log before it is dropped. Per-address repeats (a word this
		// transaction overwrote more than once) are fine: the checker
		// dedups (slot, stamp) pairs within one attempt.
		for _, rec := range tx.undo.Recs() {
			tx.d.Tr.Record(txtrace.KindCommitWord, wv, uint64(rec.Addr), 0)
		}
	}
	// The write set's lock identities live in the undo log, which is
	// dropped before Publish: fingerprint Retry waiters now, ring them
	// after the locks are released at wv (so a woken waiter's
	// validation sees the published versions). The no-waiter fast path
	// is one atomic load; bloom repeats per address are idempotent.
	var notifyFP mode.Fingerprint
	if hub := tx.rt.Drv.Hub; hub.Active() {
		for _, rec := range tx.undo.Recs() {
			notifyFP = mode.FPAdd(notifyFP, uintptr(unsafe.Pointer(tx.rt.locks.For(rec.Addr))))
		}
	}
	tx.lastWrites = tx.held.Len()
	tx.undo.Reset()
	tx.held.Publish(wv)
	if notifyFP != 0 {
		tx.rt.Drv.Hub.Notify(notifyFP)
	}
	tx.d.ApplyFrees()
	if tx.d.Traced {
		tx.d.Tr.Record(txtrace.KindCommit, wv, uint64(tx.lastWrites), 0)
	}
}

// publishVersions walks the undo log in append order, keeping the first
// record per address (the original committed value — later records for
// the same address saved this transaction's own in-place writes).
func (tx *Tx) publishVersions(wv uint64) {
	if tx.mvSeen == nil {
		tx.mvSeen = make(map[tm.Addr]struct{}, 16)
	}
	for _, rec := range tx.undo.Recs() {
		if _, dup := tx.mvSeen[rec.Addr]; dup {
			continue
		}
		tx.mvSeen[rec.Addr] = struct{}{}
		pre, _ := tx.held.Displaced(tx.rt.locks.For(rec.Addr))
		tx.rt.MV.Publish(rec.Addr, rec.Old, pre, wv)
	}
	clear(tx.mvSeen)
}
