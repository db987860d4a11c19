// Package stm is a from-scratch Go implementation of SwissTM
// (Dragojević, Guerraoui, Kapałka — PLDI'09), the baseline software
// transactional memory that TLSTM extends (paper §3.1).
//
// Algorithm summary, as described in the paper:
//
//   - a global commit counter (commit-ts) acts as a wall clock,
//     incremented by every non-read-only transaction at commit;
//   - every word maps to an (r-lock, w-lock) pair in a global lock
//     table; writers eagerly acquire the w-lock (pessimistic write/write
//     detection) and buffer writes in a redo log;
//   - reads are optimistic and validated lazily: each transaction keeps
//     a valid-ts timestamp up to which all its reads are known
//     consistent, extending it (by revalidating the read log) whenever
//     it observes a newer version;
//   - at commit, writers lock the r-locks of written locations, take a
//     new commit timestamp, validate the read log once more, publish the
//     buffered values, and release both locks;
//   - write/write conflicts go through a two-phase greedy contention
//     manager.
//
// The transaction-engine bookkeeping (read/write logs, commit scratch,
// the commit clock, stats sharding) lives in the shared infrastructure
// packages internal/txlog, internal/clock and internal/txstats; this
// package contributes only the SwissTM protocol itself. Hot paths are
// allocation-free at steady state: a Worker owns a pooled transaction
// descriptor whose logs, scratch buffers and write-lock entries are
// reused across transactions.
package stm

import (
	"runtime"
	"sync"
	"sync/atomic"
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
	"tlstm/internal/txstats"
	"tlstm/internal/txtrace"
)

// DefaultLockTableBits is the lock-table size (2^bits pairs) used when
// WithLockTableBits is not given; the other runtimes' constructors and
// the harness use it as the common geometry.
const DefaultLockTableBits = 20

// WithLockTableBits sets the lock table to 2^bits pairs (0 keeps
// DefaultLockTableBits).
func WithLockTableBits(bits int) txdriver.Option {
	return func(c *txdriver.Config) { c.LockTableBits = bits }
}

// WithPaddedLockTable strides lock pairs to one per cache line
// (locktable.Config.Padded): 4x the table memory for zero false
// sharing between adjacent pairs.
func WithPaddedLockTable(on bool) txdriver.Option {
	return func(c *txdriver.Config) { c.PaddedLockTable = on }
}

// Runtime is one SwissTM instance: the flat-runtime shell (word store,
// allocator, global commit clock, contention manager) and a lock table.
// Independent Runtimes are fully isolated from each other.
type Runtime struct {
	txdriver.Base

	locks *locktable.Table

	// stats aggregates the shards merged by Worker.Close (SNIPPETS-style
	// per-thread stats: workers accumulate unshared, merge at exit).
	stats txstats.Aggregate[Stats, *Stats]

	// workerPool backs the descriptor-per-call compatibility entry point
	// (*Runtime).Atomic with reusable Workers.
	workerPool sync.Pool
}

// New creates a SwissTM runtime. The options are the shared
// flat-runtime set (internal/txdriver) plus WithLockTableBits and
// WithPaddedLockTable; the default contention manager is SwissTM's
// two-phase greedy.
func New(opts ...txdriver.Option) *Runtime {
	c := txdriver.Configure(cm.KindGreedy, opts)
	if c.LockTableBits == 0 {
		c.LockTableBits = DefaultLockTableBits
	}
	rt := &Runtime{locks: locktable.New(locktable.Config{
		Bits:   c.LockTableBits,
		Shards: c.Shards,
		Padded: c.PaddedLockTable,
	})}
	rt.Init("stm", c, c.LockTableBits, rt.locks.Shards())
	return rt
}

// CommitTS exposes the current global commit timestamp (for tests).
func (rt *Runtime) CommitTS() uint64 { return rt.Clock.Now() }

// LoadWordRaw reads a word non-transactionally (setup/verification only).
func (rt *Runtime) LoadWordRaw(a tm.Addr) uint64 { return rt.Mem.LoadWord(a) }

// Stats accumulates per-worker execution statistics across Atomic
// calls. The baseline recycles write-lock entries unconditionally at
// attempt boundaries (validation here is version-based, not
// pointer-based, so no quiescence is needed): EntryReclaims counts the
// entries served from the pool, and HorizonStalls is always 0.
type Stats struct {
	Commits uint64
	Aborts  uint64
	txstats.Counters
}

// Add folds o into s.
func (s *Stats) Add(o Stats) {
	s.Commits += o.Commits
	s.Aborts += o.Aborts
	s.Counters.Add(o.Counters)
}

// Stats returns the runtime-global aggregate: the sum of every shard
// merged so far by Worker.Close.
func (rt *Runtime) Stats() Stats { return rt.stats.Snapshot() }

// rollbackSignal is the panic value used internally to unwind a
// transaction attempt back to the retry loop in Atomic. It never escapes
// the package: Atomic recovers it. (Panic/recover is the conventional
// mechanism for non-local abort in Go STMs; user code simply re-runs.)
type rollbackSignal struct{}

// Tx is one transaction descriptor. It implements tm.Tx. A Tx is only
// valid inside the function passed to Atomic and must not be retained
// or shared across goroutines.
//
// The descriptor is embedded in its Worker and reused across attempts
// and transactions: logs and scratch buffers keep their backing
// storage, retired write-lock entries are recycled through the write
// log's pool, and the owner header and abort/greedy slots are reset in
// place. A consequence of reuse is that a contention manager holding a
// stale entry pointer may signal our abort slot just after a new
// attempt begins; that costs one spurious (harmless) retry and is the
// price of an allocation-free hot path.
type Tx struct {
	rt      *Runtime
	validTS uint64

	// owner is the stable cross-thread header installed in this
	// descriptor's write-lock entries. Its pointer fields are wired to
	// the atomics below once, at Worker creation.
	owner   locktable.OwnerRef
	abortTx atomic.Bool

	readLog  txlog.ReadLog
	writeLog txlog.WriteLog
	scratch  txlog.CommitScratch

	// d is the driver's half of the descriptor: attempt and allocation
	// bookkeeping, contention-management identity (its priority slot is
	// the owner header's greedy CM slot, persisting across retries),
	// clock probe and tracer.
	d txdriver.Desc

	// mvOn is true while a transaction declared read-only (AtomicRO)
	// runs the multi-version wait-free read path. A miss clears it for
	// the rest of the transaction and re-runs it validated — never an
	// error.
	mvOn bool
}

// completedZero is a shared always-zero counter: the baseline has no
// task pipeline, so OwnerRef progress is constant.
var completedZero atomic.Int64

// Worker is one execution context — the software analogue of the
// per-thread transaction descriptor every serious TM implementation
// keeps. It owns a reusable Tx and an unshared statistics shard, so at
// steady state Atomic neither allocates nor touches shared stats state.
// A Worker must be used by one goroutine at a time.
type Worker struct {
	rt    *Runtime
	tx    Tx
	stats Stats // unshared shard; merged into rt.stats by Close

	// thr is the worker's driver context: its placement identity, home
	// shard and remap window, and its execution-mode controller
	// (single-owner; disarmed under mode.Speculative it costs two
	// branches per transaction).
	thr txdriver.Thread
}

// NewWorker creates a worker context for this runtime.
func (rt *Runtime) NewWorker() *Worker {
	w := &Worker{rt: rt}
	rt.Drv.Bind(&w.thr) // placement identities in creation order
	w.tx.rt = rt
	w.tx.owner = locktable.OwnerRef{
		ThreadID:      -1,
		CompletedTask: &completedZero,
		AbortInternal: &w.tx.abortTx, // no intra-thread signals in the baseline
	}
	// The baseline has no task pipeline and one transaction at a time
	// per descriptor, so the per-transaction slots are bound once.
	w.tx.owner.BindTx(0, &w.tx.abortTx, &w.tx.d.GreedTS)
	w.tx.d.Init(&rt.Base, "stm-worker")
	return w
}

// Atomic runs fn as one transaction, retrying on conflict until it
// commits, and accumulates commit/abort counts and work units into the
// worker's private stats shard. fn must be re-executable: it may run
// several times and must not perform external side effects.
func (w *Worker) Atomic(fn func(tx *Tx)) { w.atomic(&w.stats, fn, false) }

// AtomicRO runs fn as one transaction declared read-only. With
// multi-versioning enabled (txdriver.WithMultiVersion), the
// transaction reads the newest version with timestamp <= its
// snapshot, appends nothing to the read log, skips validation and
// extension entirely, and commits unconditionally; a reader overrun
// by more than K writers falls back to the validated path. If fn
// stores after all, the transaction silently restarts in validated
// read-write mode — declaring wrongly costs performance, never
// correctness.
func (w *Worker) AtomicRO(fn func(tx *Tx)) { w.atomic(&w.stats, fn, true) }

// Stats returns a snapshot of the worker's unshared shard.
func (w *Worker) Stats() Stats { return w.stats }

// Close merges the worker's shard into the runtime-global aggregate and
// zeroes the shard. The worker stays usable (Close acts as a flush).
func (w *Worker) Close() {
	w.rt.stats.Merge(w.stats)
	w.stats = Stats{}
}

// Atomic runs fn as one transaction, retrying on conflict until it
// commits. If st is non-nil, commit/abort counts and work units are
// accumulated into it (nil discards them). fn must be re-executable: it
// may run several times and must not perform external side effects.
//
// This entry point borrows a pooled Worker per call; code with a
// natural per-thread structure should create Workers directly.
func (rt *Runtime) Atomic(st *Stats, fn func(tx *Tx)) { rt.pooled(st, fn, false) }

// AtomicRO is Atomic with the transaction declared read-only (see
// Worker.AtomicRO).
func (rt *Runtime) AtomicRO(st *Stats, fn func(tx *Tx)) { rt.pooled(st, fn, true) }

func (rt *Runtime) pooled(st *Stats, fn func(tx *Tx), ro bool) {
	w, _ := rt.workerPool.Get().(*Worker)
	if w == nil {
		w = rt.NewWorker()
	}
	w.atomic(st, fn, ro)
	rt.workerPool.Put(w)
}

// atomic runs one transaction, declared read-only when ro, on the
// worker, folding its statistics into st — or, for nil, into the
// worker's own shard, which a pooled worker never reports.
func (w *Worker) atomic(st *Stats, fn func(tx *Tx), ro bool) {
	if st == nil {
		st = &w.stats
	}
	tx := &w.tx
	tx.mvOn = ro && tx.rt.MV != nil
	tx.d.Begin(&w.thr, &st.Counters)
	for {
		tx.beginAttempt(tx.d.Next())
		if tx.attempt(fn) {
			break
		}
		tx.d.Aborted()
	}
	reclaims, stalls := tx.writeLog.TakeReclaimCounts()
	st.EntryReclaims += reclaims
	st.HorizonStalls += stalls
	tx.d.Committed(tx.readLog.Len(), tx.writeLog.Len())
	st.Commits++
	st.Aborts += tx.d.Aborts
}

// beginAttempt resets the descriptor for one attempt at snapshot ts.
// Entries retired by the previous attempt (or previous transaction) are
// detached from the lock table by then, so they are recycled into the
// entry pool.
func (tx *Tx) beginAttempt(ts uint64) {
	tx.abortTx.Store(false)
	tx.validTS = ts
	tx.readLog.Reset()
	tx.writeLog.Recycle()
}

// attempt runs fn once and tries to commit; it reports success and
// converts rollbackSignal panics into a false return.
func (tx *Tx) attempt(fn func(tx *Tx)) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, is := r.(rollbackSignal); !is {
				// A genuine user panic: release our locks and undo
				// speculative allocation so the rest of the system stays
				// live, then propagate.
				tx.releaseWrites()
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

// abort records the rollback's reason on the trace, releases every
// lock, undoes speculative allocation and unwinds to the retry loop.
func (tx *Tx) abort(reason uint32) {
	if tx.d.Traced {
		tx.d.Tr.Record(txtrace.KindAbort, tx.validTS, 0, reason)
	}
	tx.releaseWrites()
	tx.d.UndoAllocs()
	panic(rollbackSignal{})
}

func (tx *Tx) releaseWrites() {
	for _, e := range tx.writeLog.Entries() {
		// The baseline never stacks entries: eager W/W locking admits
		// one writer per pair, so our entry is the head with no Prev.
		e.Pair.W.CompareAndSwap(e, nil)
	}
}

// checkSignals aborts the attempt if another transaction's contention
// manager asked us to.
func (tx *Tx) checkSignals() {
	if tx.abortTx.Load() {
		tx.abort(txtrace.AbortSignal)
	}
}

// Load implements tm.Tx (paper §3.1; TLSTM Alg. 1 line 16 is this path).
func (tx *Tx) Load(a tm.Addr) uint64 {
	if tx.mvOn {
		return tx.loadMV(a)
	}
	tx.d.Tick(1)
	p := tx.rt.locks.For(a)
	if e := p.W.Load(); e != nil && e.Owner == &tx.owner {
		if v, hit := e.Lookup(a); hit {
			return v
		}
		// Lock-pair collision: we own the pair but never wrote this
		// address; its committed value is still in memory.
	}
	return tx.loadCommitted(p, a)
}

func (tx *Tx) loadCommitted(p *locktable.Pair, a tm.Addr) uint64 {
	for {
		tx.checkSignals()
		v1 := p.R.Load()
		if v1 == locktable.Locked {
			// A committer is publishing this location; wait it out.
			runtime.Gosched()
			continue
		}
		val := tx.rt.Mem.LoadWord(a)
		if p.R.Load() != v1 {
			continue // torn read: version moved underneath us
		}
		if v1 > tx.validTS {
			if !tx.extendTo(v1) {
				tx.d.Conflict(tx.rt.locks.ShardOf(a))
				tx.abort(txtrace.AbortExtend)
			}
			// Re-read: val predates the extension's clock sample, and a
			// commit between the two can overwrite this word (not yet in
			// the log, so not revalidated) with a stamp the extended
			// snapshot covers.
			continue
		}
		tx.readLog.Append(p, v1, nil)
		if tx.d.Traced {
			tx.d.Tr.Record(txtrace.KindRead, v1, uint64(a), 0)
		}
		return val
	}
}

// loadMV is the wait-free read path of a declared read-only transaction
// under multi-versioning: serve the newest version with timestamp <=
// the frozen snapshot — from memory when the current version qualifies,
// else from the version ring — logging nothing and never validating. A
// ring overrun (more than K commits displaced the version the snapshot
// needs) re-runs the whole transaction on the validated path: the
// snapshot cannot be extended in place, because the reads taken so far
// were unlogged and could not be revalidated forward.
func (tx *Tx) loadMV(a tm.Addr) uint64 {
	tx.d.Tick(1)
	p := tx.rt.locks.For(a)
	for {
		v1 := p.R.Load()
		if v1 != locktable.Locked && v1 <= tx.validTS {
			val := tx.rt.Mem.LoadWord(a)
			if p.R.Load() == v1 {
				tx.d.MVReads++
				if tx.d.Traced {
					tx.d.Tr.Record(txtrace.KindRead, v1, uint64(a), 1)
				}
				return val
			}
			continue // torn read: version moved underneath us
		}
		if val, from, ok := tx.rt.MV.ReadAt(a, tx.validTS); ok {
			tx.d.MVReads++
			if tx.d.Traced {
				// Clock carries the served version's birth stamp, not the
				// snapshot: the opacity checker needs the observed version.
				tx.d.Tr.Record(txtrace.KindRead, from, uint64(a), 1)
			}
			return val
		}
		if v1 == locktable.Locked {
			// A committer is publishing this pair; its displaced version
			// lands in the ring, so wait out the brief lock and retry.
			runtime.Gosched()
			continue
		}
		tx.d.MVMisses++
		tx.mvOn = false
		tx.abort(txtrace.AbortSpec)
	}
}

// extend implements lazy snapshot extension: revalidate the read log at
// the current commit timestamp and advance valid-ts on success.
func (tx *Tx) extend() bool { return tx.extendTo(0) }

// extendTo is extend with a witnessed stamp: the clock is first asked
// to cover `witness` (pre-publishing strategies advance on Observe —
// without it a deferred or sharded clock would never catch up to the
// stamp that sent us here and the read would livelock).
func (tx *Tx) extendTo(witness uint64) bool {
	ts := tx.rt.Clock.Observe(witness, &tx.d.ClkProbe)
	for i, re := range tx.readLog.Entries() {
		if i%txdriver.ValidationStride == 0 {
			tx.d.Work++
		}
		cur := re.Pair.R.Load()
		if cur == re.Version {
			continue
		}
		// No exemption for pairs whose w-lock we hold: owning the
		// w-lock freezes the r-lock from acquisition onward, but the
		// version may have moved between our read and our acquisition
		// (another transaction committed the pair while it was free).
		// Skipping the check here let exactly that zombie extend its
		// snapshot past the conflicting commit and keep running on a
		// mixed read set until commit-time validation — the opacity
		// violation the trace checker flagged under high contention.
		if tx.d.Traced {
			tx.d.Tr.Record(txtrace.KindExtend, ts, witness, 0)
		}
		return false
	}
	if ts > tx.validTS {
		tx.d.Extends++
		if tx.d.Traced {
			tx.d.Tr.Record(txtrace.KindExtend, ts, witness, 1)
		}
	}
	tx.validTS = ts
	return true
}

// Store implements tm.Tx: eager w-lock acquisition with redo logging.
func (tx *Tx) Store(a tm.Addr, v uint64) {
	if tx.mvOn {
		// A store in a declared read-only transaction: the earlier
		// multi-version reads were unlogged at a frozen snapshot, so the
		// attempt cannot be upgraded in place — re-run it on the
		// validated read-write path.
		tx.mvOn = false
		tx.abort(txtrace.AbortSpec)
	}
	tx.d.Tick(2)
	p := tx.rt.locks.For(a)
	waited := 0
	for {
		tx.checkSignals()
		e := p.W.Load()
		if e != nil {
			if e.Owner == &tx.owner {
				e.Update(a, v)
				return
			}
			switch tx.d.Resolve(cm.PointEncounter, a, e.Owner, tx.writeLog.Len(), waited, tx.validTS) {
			case cm.AbortSelf:
				tx.d.Defeat(tx.rt.locks.ShardOf(a))
				tx.abort(txtrace.AbortCM)
			case cm.AbortOwner:
				e.Owner.AbortTx.Load().Store(true)
			}
			if tx.d.YieldToGate(tx.rt.locks.ShardOf(a)) {
				tx.abort(txtrace.AbortCM)
			}
			// AbortOwner and Wait both ride the conflict out for a
			// round; waiting costs real parallel time (the owner
			// progresses about one quantum per scheduler round).
			waited++
			tx.d.Work += txdriver.YieldQuantum
			runtime.Gosched()
			continue
		}
		ne := tx.writeLog.NewEntry(&tx.owner, 0, p, a, v)
		if p.W.CompareAndSwap(nil, ne) {
			tx.writeLog.Append(ne)
			break
		}
		tx.writeLog.Release(ne) // CAS lost; recycle the unused entry
	}
	if tx.d.Traced {
		tx.d.Tr.Record(txtrace.KindWrite, tx.validTS, uint64(a), 0)
	}
	// Mirror of TLSTM Alg. 2 line 52: if the location moved past our
	// snapshot, extend or die.
	if ver := p.R.Load(); ver != locktable.Locked && ver > tx.validTS && !tx.extendTo(ver) {
		tx.d.Conflict(tx.rt.locks.ShardOf(a))
		tx.abort(txtrace.AbortExtend)
	}
}

// Retry is the transactional cond-var wait (aahtm TM_COND_VARS): a
// transaction whose predicate over transactional reads is not yet
// satisfied calls Retry to abandon the attempt and block until a
// conflicting commit — one whose write set intersects this attempt's
// read set — publishes, then re-runs from the top. fn observes a new
// snapshot on each wake, so the predicate is simply re-evaluated.
//
// The lost-wakeup guard: the waiter subscribes its read-set
// fingerprint first, then re-validates the read log. A commit that
// published before the subscription is caught by the validation (no
// park); one that publishes after it finds the waiter registered and
// rings its doorbell. Retry never parks on an empty or already-stale
// read set — those cases restart immediately.
func (tx *Tx) Retry() {
	if tx.mvOn {
		// Multi-version reads are unlogged: there is nothing to
		// fingerprint or validate. Re-run on the validated path, where
		// the next Retry can park.
		tx.mvOn = false
		tx.abort(txtrace.AbortRetry)
	}
	var fp mode.Fingerprint
	for _, re := range tx.readLog.Entries() {
		fp = mode.FPAdd(fp, uintptr(unsafe.Pointer(re.Pair)))
	}
	if tx.d.Subscribe(fp) {
		valid := true
		for _, re := range tx.readLog.Entries() {
			if re.Pair.R.Load() != re.Version {
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

// commit validates and publishes the transaction (paper §3.1).
func (tx *Tx) commit() {
	if tx.writeLog.Len() == 0 {
		// Read-only transactions are consistent by construction at
		// valid-ts; nothing to publish.
		tx.d.ApplyFrees()
		if tx.d.Traced {
			tx.d.Tr.Record(txtrace.KindCommit, tx.validTS, 0, 0)
		}
		return
	}
	tx.checkSignals()

	// Phase 1: lock the r-locks of written pairs, remembering the
	// versions we displace so a failed validation can restore them.
	// Eager W/W locking guarantees one entry per pair, so every
	// LockPair is a fresh acquisition.
	tx.scratch.Reset()
	for _, e := range tx.writeLog.Entries() {
		tx.scratch.LockPair(e.Pair)
		tx.d.Work++
	}

	ts := tx.rt.Clock.Tick(&tx.d.ClkProbe)

	failed := tx.validateCommit()
	if tx.d.Traced {
		var aux uint32
		if failed == nil {
			aux = 1
		}
		tx.d.Tr.Record(txtrace.KindValidate, ts, uint64(tx.readLog.Len()), aux)
	}
	if failed != nil {
		tx.scratch.Restore()
		tx.d.Conflict(tx.rt.locks.ShardOfPair(failed))
		tx.abort(txtrace.AbortValidation)
	}

	// Feed the multi-version store while memory still holds the values
	// this commit is about to overwrite: each written word's old value
	// was the committed value over [displaced version, ts).
	if mv := tx.rt.MV; mv != nil {
		for _, e := range tx.writeLog.Entries() {
			pre, _ := tx.scratch.Saved(e.Pair)
			for _, w := range e.Words {
				mv.Publish(w.Addr, tx.rt.Mem.LoadWord(w.Addr), pre, ts)
			}
		}
	}

	// Phase 2: publish values, then release locks with the new version.
	for _, e := range tx.writeLog.Entries() {
		for _, w := range e.Words {
			tx.rt.Mem.StoreWord(w.Addr, w.Val)
			if tx.d.Traced {
				// Written-word identities, between Validate and Commit:
				// the opacity checker rebuilds per-slot version
				// histories from these.
				tx.d.Tr.Record(txtrace.KindCommitWord, ts, uint64(w.Addr), 0)
			}
			tx.d.Work++
		}
	}
	for _, e := range tx.writeLog.Entries() {
		e.Pair.R.Store(ts)
		e.Pair.W.CompareAndSwap(e, nil)
	}
	// Ring Retry waiters whose read fingerprints intersect this write
	// set. The fast path (no waiters) is one atomic load; the
	// fingerprint is only computed when someone is parked.
	if hub := tx.rt.Drv.Hub; hub.Active() {
		var fp mode.Fingerprint
		for _, e := range tx.writeLog.Entries() {
			fp = mode.FPAdd(fp, uintptr(unsafe.Pointer(e.Pair)))
		}
		hub.Notify(fp)
	}
	tx.d.ApplyFrees()
	if tx.d.Traced {
		tx.d.Tr.Record(txtrace.KindCommit, ts, uint64(tx.writeLog.Len()), 0)
	}
}

// validateCommit re-checks the read log; pairs this commit holds
// r-locked compare against the version they had when we locked them
// (the commit scratch remembers exactly that). It returns the first
// pair that fails validation (for shard attribution), or nil when the
// whole read set is still consistent.
func (tx *Tx) validateCommit() *locktable.Pair {
	for i, re := range tx.readLog.Entries() {
		if i%txdriver.ValidationStride == 0 {
			tx.d.Work++
		}
		cur := re.Pair.R.Load()
		if cur == re.Version {
			continue
		}
		if cur == locktable.Locked {
			if pre, ours := tx.scratch.Saved(re.Pair); ours && pre == re.Version {
				continue
			}
		}
		return re.Pair
	}
	return nil
}

var _ tm.Tx = (*Tx)(nil)
