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
	"strconv"
	"sync"
	"sync/atomic"
	"unsafe"

	"tlstm/internal/clock"
	"tlstm/internal/cm"
	"tlstm/internal/locktable"
	"tlstm/internal/mem"
	"tlstm/internal/mode"
	"tlstm/internal/tm"
	"tlstm/internal/txdriver"
	"tlstm/internal/txlog"
	"tlstm/internal/txstats"
	"tlstm/internal/txtrace"
)

// Option configures a Runtime.
type Option func(*config)

type config struct {
	lockTableBits int
	shards        int
	affinity      bool
	padded        bool
	clk           clock.Source
	pol           cm.Policy
	mvDepth       int
	trace         *txtrace.Recorder
	mode          mode.Config
}

// DefaultLockTableBits is the lock-table size (2^bits pairs) used when
// WithLockTableBits is not given; the other runtimes' constructors and
// the harness use it as the common geometry.
const DefaultLockTableBits = 20

// WithLockTableBits sets the lock table to 2^bits pairs.
func WithLockTableBits(bits int) Option {
	return func(c *config) { c.lockTableBits = bits }
}

// WithShards splits the lock table into n contiguous shards (a power of
// two; 0 and 1 both mean the flat table). Sharding only relabels pairs
// for conflict attribution and placement — address→pair resolution is
// identical at every shard count.
func WithShards(n int) Option {
	return func(c *config) { c.shards = n }
}

// WithAffinity replaces the static round-robin thread placement with
// the conflict-sketch affinity policy (sched.Affinity): workers are
// periodically rebound toward the shard their aborts concentrate in.
func WithAffinity(on bool) Option {
	return func(c *config) { c.affinity = on }
}

// WithPaddedLockTable strides lock pairs to one per cache line
// (locktable.Config.Padded): 4x the table memory for zero false
// sharing between adjacent pairs.
func WithPaddedLockTable(on bool) Option {
	return func(c *config) { c.padded = on }
}

// WithClock selects the commit-clock strategy (internal/clock). The
// default is the GV4 fetch-and-add clock.
func WithClock(src clock.Source) Option {
	return func(c *config) { c.clk = src }
}

// WithCM selects the contention-management policy (internal/cm). The
// default is SwissTM's two-phase greedy manager; nil keeps it.
func WithCM(pol cm.Policy) Option {
	return func(c *config) { c.pol = pol }
}

// WithMultiVersion retains the last k displaced committed versions per
// word (txlog.VersionedStore) and enables the wait-free read path for
// transactions run through AtomicRO. k <= 0 disables multi-versioning
// (the default).
func WithMultiVersion(k int) Option {
	return func(c *config) { c.mvDepth = k }
}

// WithTrace arms flight-recorder tracing: every Worker records its
// transactional events into its own txtrace ring registered with rec.
// nil (the default) keeps the no-op tracer and the zero-alloc hot path.
func WithTrace(rec *txtrace.Recorder) Option {
	return func(c *config) { c.trace = rec }
}

// WithMode configures the execution-mode ladder (internal/mode): each
// Worker owns a controller that, under mode.Adaptive, falls back from
// speculation to the runtime's serialized gate when the configured
// contention thresholds trip, and recovers when the storm passes. The
// default (mode.Speculative) disarms the ladder entirely.
func WithMode(cfg mode.Config) Option {
	return func(c *config) { c.mode = cfg }
}

// Runtime is one SwissTM instance: a word store, an allocator, a lock
// table, the global commit clock and a contention manager. Independent
// Runtimes are fully isolated from each other.
type Runtime struct {
	store *mem.Store
	alloc *mem.Allocator
	locks *locktable.Table

	clk clock.Source

	// mv, when non-nil, is the multi-version word store declared
	// read-only transactions read from without validating.
	mv *txlog.VersionedStore

	// trace, when non-nil, is the flight recorder Workers register
	// their event rings with (WithTrace).
	trace *txtrace.Recorder

	// drv is the shared retry-loop driver: contention manager, mode
	// ladder (serialized-fallback gate, Retry/Wait hub) and the
	// placement that maps workers to home lock-table shards.
	drv txdriver.Driver

	// stats aggregates the shards merged by Worker.Close (SNIPPETS-style
	// per-thread stats: workers accumulate unshared, merge at exit).
	stats txstats.Aggregate[Stats, *Stats]

	// workerPool backs the descriptor-per-call compatibility entry point
	// (*Runtime).Atomic with reusable Workers.
	workerPool sync.Pool
}

// New creates a SwissTM runtime.
func New(opts ...Option) *Runtime {
	c := config{lockTableBits: DefaultLockTableBits}
	for _, o := range opts {
		o(&c)
	}
	if c.clk == nil {
		c.clk = clock.New(clock.KindGV4)
	}
	if c.pol == nil {
		c.pol = cm.New(cm.KindGreedy)
	}
	st := mem.NewStore()
	rt := &Runtime{
		store: st,
		alloc: mem.NewAllocator(st),
		locks: locktable.New(locktable.Config{
			Bits:   c.lockTableBits,
			Shards: c.shards,
			Padded: c.padded,
		}),
		clk:   c.clk,
		trace: c.trace,
	}
	rt.drv.Init(c.clk, c.pol, c.mode, rt.locks.Shards(), c.affinity)
	if c.mvDepth > 0 {
		rt.mv = txlog.NewVersionedStore(c.mvDepth, txlog.DefaultVersionedStoreBits)
	}
	if rt.trace != nil {
		// The opacity checker recomputes lock-table slots and gates its
		// stamp-uniqueness checks on the clock strategy; the dump's
		// metadata section is where it learns both.
		rt.trace.SetMeta("stm.lockbits", strconv.Itoa(c.lockTableBits))
		rt.trace.SetMeta("stm.clock", rt.clk.Name())
		rt.trace.SetMeta("stm.exclusive", strconv.FormatBool(rt.clk.Exclusive()))
		rt.trace.SetMeta("stm.mvdepth", strconv.Itoa(c.mvDepth))
	}
	return rt
}

// Shards reports the lock table's shard count.
func (rt *Runtime) Shards() int { return rt.locks.Shards() }

// PlacementName reports the thread-placement policy in use.
func (rt *Runtime) PlacementName() string { return rt.drv.PlacementName() }

// MVDepth reports the retained version depth (0 when multi-versioning
// is off).
func (rt *Runtime) MVDepth() int {
	if rt.mv == nil {
		return 0
	}
	return rt.mv.K()
}

// CommitTS exposes the current global commit timestamp (for tests).
func (rt *Runtime) CommitTS() uint64 { return rt.clk.Now() }

// ClockName reports the commit-clock strategy this runtime uses.
func (rt *Runtime) ClockName() string { return rt.clk.Name() }

// CMName reports the contention-management policy this runtime uses.
func (rt *Runtime) CMName() string { return rt.drv.CM().Name() }

// Allocator exposes the runtime's allocator for non-transactional setup
// code (building initial data structures before threads start).
func (rt *Runtime) Allocator() *mem.Allocator { return rt.alloc }

// Direct returns a non-transactional tm.Tx for single-threaded setup,
// before any transaction runs.
func (rt *Runtime) Direct() mem.Direct {
	return mem.Direct{Mem: rt.store, Al: rt.alloc}
}

// StoreWordRaw writes a word non-transactionally. It must only be used
// during single-threaded setup, before transactions run.
func (rt *Runtime) StoreWordRaw(a tm.Addr, v uint64) { rt.store.StoreWord(a, v) }

// LoadWordRaw reads a word non-transactionally (setup/verification only).
func (rt *Runtime) LoadWordRaw(a tm.Addr) uint64 { return rt.store.LoadWord(a) }

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

	allocs []tm.Addr // fresh blocks to release on abort
	frees  []tm.Addr // deferred frees to apply on commit

	// d is the driver's half of the descriptor: attempt bookkeeping,
	// contention-management identity (its priority slot is the owner
	// header's greedy CM slot, persisting across retries), clock probe
	// and tracer.
	d txdriver.Desc

	// ro marks a transaction declared read-only (AtomicRO); mvOn is
	// true while the current transaction runs the multi-version
	// wait-free read path. A miss clears mvOn for the rest of the
	// transaction and re-runs it validated — never an error.
	ro   bool
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
	rt.drv.Bind(&w.thr) // placement identities in creation order
	w.tx.rt = rt
	w.tx.owner = locktable.OwnerRef{
		ThreadID:      -1,
		CompletedTask: &completedZero,
		AbortInternal: &w.tx.abortTx, // no intra-thread signals in the baseline
	}
	// The baseline has no task pipeline and one transaction at a time
	// per descriptor, so the per-transaction slots are bound once.
	w.tx.owner.BindTx(0, &w.tx.abortTx, &w.tx.d.GreedTS)
	tr := txtrace.Nop
	if rt.trace != nil {
		tr = rt.trace.NewRing("stm-worker")
	}
	w.tx.d.Init(&rt.drv, tr)
	return w
}

// Atomic runs fn as one transaction, retrying on conflict until it
// commits, and accumulates commit/abort counts and work units into the
// worker's private stats shard. fn must be re-executable: it may run
// several times and must not perform external side effects.
func (w *Worker) Atomic(fn func(tx *Tx)) {
	w.atomic(&w.stats, fn)
}

// AtomicRO runs fn as one transaction declared read-only. With
// multi-versioning enabled (WithMultiVersion), the transaction reads
// the newest version with timestamp <= its snapshot, appends nothing to
// the read log, skips validation and extension entirely, and commits
// unconditionally; a reader overrun by more than K writers falls back
// to the validated path. If fn stores after all, the transaction
// silently restarts in validated read-write mode — declaring wrongly
// costs performance, never correctness.
func (w *Worker) AtomicRO(fn func(tx *Tx)) {
	w.tx.ro = true
	w.atomic(&w.stats, fn)
	w.tx.ro = false
}

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
func (rt *Runtime) Atomic(st *Stats, fn func(tx *Tx)) {
	w, _ := rt.workerPool.Get().(*Worker)
	if w == nil {
		w = rt.NewWorker()
	}
	w.atomic(st, fn)
	rt.workerPool.Put(w)
}

// AtomicRO is Atomic with the transaction declared read-only (see
// Worker.AtomicRO).
func (rt *Runtime) AtomicRO(st *Stats, fn func(tx *Tx)) {
	w, _ := rt.workerPool.Get().(*Worker)
	if w == nil {
		w = rt.NewWorker()
	}
	w.tx.ro = true
	w.atomic(st, fn)
	w.tx.ro = false
	rt.workerPool.Put(w)
}

// atomic runs one transaction on the worker, folding its statistics
// into st — or, for nil, into the worker's own shard, which a pooled
// worker never reports.
func (w *Worker) atomic(st *Stats, fn func(tx *Tx)) {
	if st == nil {
		st = &w.stats
	}
	tx := &w.tx
	tx.mvOn = tx.ro && tx.rt.mv != nil
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
	tx.allocs = tx.allocs[:0]
	tx.frees = tx.frees[:0]
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
				for _, a := range tx.allocs {
					tx.rt.alloc.Free(a)
				}
				panic(r)
			}
			ok = false
		}
	}()
	fn(tx)
	tx.commit()
	return true
}

// rollback releases every lock and undoes speculative allocation, then
// unwinds to the retry loop.
func (tx *Tx) rollback() {
	tx.releaseWrites()
	for _, a := range tx.allocs {
		tx.rt.alloc.Free(a)
	}
	panic(rollbackSignal{})
}

// abort records the rollback's reason on the trace and unwinds.
func (tx *Tx) abort(reason uint32) {
	if tx.d.Traced {
		tx.d.Tr.Record(txtrace.KindAbort, tx.validTS, 0, reason)
	}
	tx.rollback()
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
		val := tx.rt.store.LoadWord(a)
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
			val := tx.rt.store.LoadWord(a)
			if p.R.Load() == v1 {
				tx.d.MVReads++
				if tx.d.Traced {
					tx.d.Tr.Record(txtrace.KindRead, v1, uint64(a), 1)
				}
				return val
			}
			continue // torn read: version moved underneath us
		}
		if val, from, ok := tx.rt.mv.ReadAt(a, tx.validTS); ok {
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
	ts := tx.rt.clk.Observe(witness, &tx.d.ClkProbe)
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
func (tx *Tx) Alloc(n int) tm.Addr {
	tx.d.Work++
	a := tx.rt.alloc.Alloc(n)
	tx.allocs = append(tx.allocs, a)
	return a
}

// Free implements tm.Tx: the release is deferred to commit.
func (tx *Tx) Free(a tm.Addr) {
	tx.frees = append(tx.frees, a)
}

// commit validates and publishes the transaction (paper §3.1).
func (tx *Tx) commit() {
	if tx.writeLog.Len() == 0 {
		// Read-only transactions are consistent by construction at
		// valid-ts; nothing to publish.
		tx.applyFrees()
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

	ts := tx.rt.clk.Tick(&tx.d.ClkProbe)

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
	if mv := tx.rt.mv; mv != nil {
		for _, e := range tx.writeLog.Entries() {
			pre, _ := tx.scratch.Saved(e.Pair)
			for _, w := range e.Words {
				mv.Publish(w.Addr, tx.rt.store.LoadWord(w.Addr), pre, ts)
			}
		}
	}

	// Phase 2: publish values, then release locks with the new version.
	for _, e := range tx.writeLog.Entries() {
		for _, w := range e.Words {
			tx.rt.store.StoreWord(w.Addr, w.Val)
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
	if hub := tx.rt.drv.Hub; hub.Active() {
		var fp mode.Fingerprint
		for _, e := range tx.writeLog.Entries() {
			fp = mode.FPAdd(fp, uintptr(unsafe.Pointer(e.Pair)))
		}
		hub.Notify(fp)
	}
	tx.applyFrees()
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

func (tx *Tx) applyFrees() {
	for _, a := range tx.frees {
		tx.rt.alloc.Free(a)
	}
}

var _ tm.Tx = (*Tx)(nil)
