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
//     (the cm.Suicide policy); WithCM swaps in any other
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

// Locked marks a versioned lock held by a committing transaction.
const locked = ^uint64(0)

// Option configures a Runtime.
type Option func(*Runtime)

// WithClock selects the commit-clock strategy (internal/clock); the
// default is the GV4 fetch-and-add clock. Non-exclusive strategies
// (deferred, sharded) disable TL2's "wv == rv+1 ⇒ skip validation"
// commit shortcut, which is only sound when timestamps are unique.
func WithClock(src clock.Source) Option {
	return func(rt *Runtime) { rt.clk = src }
}

// WithCM selects the contention-management policy (internal/cm); the
// default is cm.Suicide, the self-abort-with-grace behavior TL2 had
// hardwired before the policy layer existed. nil keeps the default.
func WithCM(pol cm.Policy) Option {
	return func(rt *Runtime) { rt.cmPol = pol }
}

// WithMultiVersion retains the last k displaced committed versions per
// word and enables the wait-free read path for transactions run through
// AtomicRO. k <= 0 disables multi-versioning (the default).
func WithMultiVersion(k int) Option {
	return func(rt *Runtime) {
		if k > 0 {
			rt.mv = txlog.NewVersionedStore(k, txlog.DefaultVersionedStoreBits)
		}
	}
}

// WithTrace arms flight-recorder tracing: every pooled descriptor
// records its transactional events into its own txtrace ring registered
// with rec. nil (the default) keeps the no-op tracer.
func WithTrace(rec *txtrace.Recorder) Option {
	return func(rt *Runtime) { rt.trace = rec }
}

// WithShards splits the versioned-lock array into n contiguous shards
// (a power of two; 0 and 1 both mean flat). Sharding only relabels
// locks for conflict attribution — address→lock resolution is
// identical at every shard count.
func WithShards(n int) Option {
	return func(rt *Runtime) { rt.shards = n }
}

// WithAffinity replaces the static round-robin thread placement with
// the conflict-sketch affinity policy (sched.Affinity).
func WithAffinity(on bool) Option {
	return func(rt *Runtime) { rt.affinity = on }
}

// WithMode configures the execution-mode ladder (internal/mode): the
// adaptive policy starts transactions speculative and falls back to a
// serialized global-lock rung under sustained conflict, recovering
// once the serialized window drains cleanly. The default keeps the
// ladder disarmed (always speculative).
func WithMode(cfg mode.Config) Option {
	return func(rt *Runtime) { rt.modeCfg = cfg }
}

// Runtime is one TL2 instance.
type Runtime struct {
	store *mem.Store
	alloc *mem.Allocator

	clk       clock.Source // global version clock
	exclusive bool         // cached clk.Exclusive() (commit fast path)

	locks  []atomic.Uint64  // versioned write-locks (version or locked)
	layout locktable.Layout // address→lock→shard mapping (shared geometry)

	// cmPol, shards, affinity and modeCfg are config captured by options
	// and handed to the driver.
	cmPol    cm.Policy
	shards   int
	affinity bool
	modeCfg  mode.Config

	// mv, when non-nil, is the multi-version word store declared
	// read-only transactions read from without validating.
	mv *txlog.VersionedStore

	// trace, when non-nil, is the flight recorder pooled descriptors
	// register their event rings with (WithTrace).
	trace *txtrace.Recorder

	// drv is the shared retry-loop driver: contention manager, mode
	// ladder, Retry hub and thread placement.
	drv txdriver.Driver

	txPool    sync.Pool // *Tx descriptors, reused across Atomic calls
	statsPool sync.Pool // *Stats thread contexts for Atomic(nil, fn)
}

// New creates a TL2 runtime with 2^bits versioned locks.
func New(bits int, opts ...Option) *Runtime {
	if bits <= 0 {
		bits = 20
	}
	st := mem.NewStore()
	rt := &Runtime{
		store: st,
		alloc: mem.NewAllocator(st),
	}
	for _, o := range opts {
		o(rt)
	}
	rt.layout = locktable.NewLayout(bits, rt.shards)
	rt.locks = make([]atomic.Uint64, rt.layout.Slots())
	if rt.clk == nil {
		rt.clk = clock.New(clock.KindGV4)
	}
	if rt.cmPol == nil {
		rt.cmPol = cm.New(cm.KindSuicide)
	}
	rt.drv.Init(rt.clk, rt.cmPol, rt.modeCfg, rt.layout.Shards(), rt.affinity)
	rt.exclusive = rt.clk.Exclusive()
	if rt.trace != nil {
		// The offline opacity checker recomputes lock-table slots and
		// picks its clock model from this metadata (txcheck).
		rt.trace.SetMeta("tl2.lockbits", strconv.Itoa(bits))
		rt.trace.SetMeta("tl2.clock", rt.clk.Name())
		rt.trace.SetMeta("tl2.exclusive", strconv.FormatBool(rt.exclusive))
		mvDepth := 0
		if rt.mv != nil {
			mvDepth = rt.mv.K()
		}
		rt.trace.SetMeta("tl2.mvdepth", strconv.Itoa(mvDepth))
	}
	return rt
}

// Shards reports the lock array's shard count.
func (rt *Runtime) Shards() int { return rt.layout.Shards() }

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

// ClockName reports the commit-clock strategy this runtime uses.
func (rt *Runtime) ClockName() string { return rt.clk.Name() }

// CMName reports the contention-management policy this runtime uses.
func (rt *Runtime) CMName() string { return rt.drv.CM().Name() }

// Direct returns the non-transactional setup handle.
func (rt *Runtime) Direct() mem.Direct { return mem.Direct{Mem: rt.store, Al: rt.alloc} }

// Allocator exposes the allocator (tests).
func (rt *Runtime) Allocator() *mem.Allocator { return rt.alloc }

func (rt *Runtime) lockFor(a tm.Addr) *atomic.Uint64 {
	return &rt.locks[rt.layout.Index(a)]
}

// lockShard recovers the shard of a lock word previously returned by
// lockFor, by pointer arithmetic within the contiguous lock array
// (read-set validation holds only the lock pointer, not the address).
func (rt *Runtime) lockShard(l *atomic.Uint64) int {
	idx := (uintptr(unsafe.Pointer(l)) - uintptr(unsafe.Pointer(&rt.locks[0]))) /
		unsafe.Sizeof(atomic.Uint64{})
	return rt.layout.ShardOfIndex(uint64(idx))
}

// Stats accumulates one logical thread's statistics across Atomic
// calls. SnapshotExtensions is always 0 for TL2 (it aborts on a read
// past its read version instead of extending), and so are
// EntryReclaims and HorizonStalls (its write set buffers records in
// place; there are no lock-table entries to reclaim).
//
// TL2 has no thread descriptor (Tx descriptors are pooled per runtime,
// not per caller), so the caller-owned Stats shard IS the logical
// thread: it carries the driver's thread context — placement identity
// and mode controller — touched only by the owning goroutine.
type Stats struct {
	Commits uint64
	Aborts  uint64
	txstats.Counters

	thr txdriver.Thread
}

// Add folds o's counters into s.
func (s *Stats) Add(o Stats) {
	s.Commits += o.Commits
	s.Aborts += o.Aborts
	s.Counters.Add(o.Counters)
}

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

	allocs []tm.Addr
	frees  []tm.Addr

	// d is the driver's half of the descriptor: attempt bookkeeping,
	// contention-management identity, clock probe and tracer.
	d txdriver.Desc

	// ro marks a transaction declared read-only (AtomicRO); mvOn is
	// true while it runs the multi-version wait-free read path. A miss
	// clears mvOn for the rest of the transaction and re-runs it
	// validated — never an error.
	ro   bool
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
// multi-versioning enabled (WithMultiVersion), the transaction reads
// the newest version with timestamp <= its snapshot, logs nothing,
// skips validation, and commits unconditionally; a reader overrun by
// more than K writers — or an undeclared store — silently re-runs the
// transaction on the validated path.
func (rt *Runtime) AtomicRO(st *Stats, fn func(tx *Tx)) {
	rt.run(st, fn, true)
}

func (rt *Runtime) run(st *Stats, fn func(tx *Tx), ro bool) {
	tx, _ := rt.txPool.Get().(*Tx)
	if tx == nil {
		tx = &Tx{rt: rt}
		tr := txtrace.Nop
		if rt.trace != nil {
			tr = rt.trace.NewRing("tl2-tx")
		}
		tx.d.Init(&rt.drv, tr)
	}
	scratch := st == nil
	if scratch {
		st, _ = rt.statsPool.Get().(*Stats)
		if st == nil {
			st = new(Stats)
		}
	}
	tx.ro = ro
	tx.mvOn = ro && rt.mv != nil
	tx.d.Begin(&st.thr, &st.Counters)
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
	tx.ro = false
	rt.txPool.Put(tx)
	if scratch {
		rt.statsPool.Put(st)
	}
}

// begin resets the descriptor for one attempt at read version rv.
func (tx *Tx) begin(rv uint64) {
	tx.rv = rv
	tx.readLog.Reset()
	tx.writeSet.Reset()
	tx.held.Reset()
	tx.allocs = tx.allocs[:0]
	tx.frees = tx.frees[:0]
}

func (tx *Tx) attempt(fn func(tx *Tx)) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, is := r.(rollbackSignal); !is {
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

func (tx *Tx) rollback() {
	for _, a := range tx.allocs {
		tx.rt.alloc.Free(a)
	}
	panic(rollbackSignal{})
}

// abort records the rollback's reason on the trace and unwinds.
func (tx *Tx) abort(reason uint32) {
	if tx.d.Traced {
		tx.d.Tr.Record(txtrace.KindAbort, tx.rv, 0, reason)
	}
	tx.rollback()
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
	l := tx.rt.lockFor(a)
	waited := 0
	for {
		v1 := l.Load()
		if v1 == locked {
			// Locked by a committing transaction mid-publish: the
			// policy decides between riding the publish out and
			// aborting (the Suicide default waits — the hold is short
			// and the committer is past the point of being aborted).
			dec := tx.d.Resolve(cm.PointCommit, a, nil, tx.writeSet.Len(), waited, tx.rv)
			if dec == cm.AbortSelf {
				tx.d.Defeat(tx.rt.layout.ShardOf(a))
				tx.abort(txtrace.AbortCM)
			}
			if tx.d.YieldToGate(tx.rt.layout.ShardOf(a)) {
				// Riding this conflict out could starve a serialized
				// entrant; the driver charges SpinInit backoff first.
				tx.abort(txtrace.AbortCM)
			}
			waited++
			runtime.Gosched()
			continue
		}
		val := tx.rt.store.LoadWord(a)
		if l.Load() != v1 {
			continue
		}
		if v1 > tx.rv {
			// Newer than our read version: TL2 aborts (no extension).
			// Fold the stamp into the clock first so the retry's fresh
			// read version covers it (pre-publishing strategies never
			// advance on their own).
			tx.rt.clk.Observe(v1, &tx.d.ClkProbe)
			tx.d.Conflict(tx.rt.layout.ShardOf(a))
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
	l := tx.rt.lockFor(a)
	for {
		v1 := l.Load()
		if v1 != locked && v1 <= tx.rv {
			val := tx.rt.store.LoadWord(a)
			if l.Load() == v1 {
				tx.d.MVReads++
				if tx.d.Traced {
					tx.d.Tr.Record(txtrace.KindRead, v1, uint64(a), 1)
				}
				return val
			}
			continue // torn read: version moved underneath us
		}
		if val, from, ok := tx.rt.mv.ReadAt(a, tx.rv); ok {
			tx.d.MVReads++
			if tx.d.Traced {
				// Clock carries the served version's birth stamp, not the
				// snapshot: the opacity checker needs the observed version.
				tx.d.Tr.Record(txtrace.KindRead, from, uint64(a), 1)
			}
			return val
		}
		if v1 == locked {
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
			if v := l.Load(); v == locked || v > tx.rv {
				valid = false
				break
			}
		}
		tx.d.Settle(valid)
	}
	tx.abort(txtrace.AbortRetry)
}

// Alloc implements tm.Tx.
func (tx *Tx) Alloc(n int) tm.Addr {
	tx.d.Work++
	a := tx.rt.alloc.Alloc(n)
	tx.allocs = append(tx.allocs, a)
	return a
}

// Free implements tm.Tx.
func (tx *Tx) Free(a tm.Addr) { tx.frees = append(tx.frees, a) }

// commit is TL2's commit: lock the write set (in address order, to
// avoid deadlock between committers), bump the clock, validate the read
// set, publish, release.
func (tx *Tx) commit() {
	if tx.writeSet.Len() == 0 {
		// Read-only: already validated against rv at every read.
		tx.applyFrees()
		if tx.d.Traced {
			tx.d.Tr.Record(txtrace.KindCommit, tx.rv, 0, 0)
		}
		return
	}

	for _, a := range tx.writeSet.SortedAddrs() {
		l := tx.rt.lockFor(a)
		if tx.held.Holds(l) {
			continue
		}
		waited := 0
		for {
			v := l.Load()
			if v == locked {
				// A competing committer holds this lock. Address-order
				// acquisition rules out committer/committer deadlock,
				// so waiting is safe; whether to wait or abort is the
				// policy's call (the Suicide default spins a bounded
				// commit grace, like the old inlined loop).
				dec := tx.d.Resolve(cm.PointCommit, a, nil, tx.writeSet.Len(), waited, tx.rv)
				if dec == cm.AbortSelf {
					tx.held.Restore()
					tx.d.Defeat(tx.rt.layout.ShardOf(a))
					tx.abort(txtrace.AbortCM)
				}
				if tx.d.YieldToGate(tx.rt.layout.ShardOf(a)) {
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
				tx.rt.clk.Observe(v, &tx.d.ClkProbe)
				tx.d.Conflict(tx.rt.layout.ShardOf(a))
				tx.abort(txtrace.AbortConflict)
			}
			if l.CompareAndSwap(v, locked) {
				tx.held.Add(l, v)
				break
			}
		}
		tx.d.Work++
	}

	wv := tx.rt.clk.Tick(&tx.d.ClkProbe)

	// Validate the read set unless nothing could have changed. The
	// wv == rv+1 shortcut is sound only when timestamps are exclusive:
	// a non-exclusive strategy (deferred, sharded) can hand the same wv
	// to a concurrent writer, so "the clock moved once" no longer means
	// "only we committed".
	if !tx.rt.exclusive || wv != tx.rv+1 {
		for i, l := range tx.readLog.Locks() {
			if i%txdriver.ValidationStride == 0 {
				tx.d.Work++
			}
			v := l.Load()
			if v == locked {
				if !tx.held.Holds(l) {
					if tx.d.Traced {
						tx.d.Tr.Record(txtrace.KindValidate, wv, uint64(tx.readLog.Len()), 0)
					}
					tx.held.Restore()
					tx.d.Conflict(tx.rt.lockShard(l))
					tx.abort(txtrace.AbortValidation)
				}
				continue
			}
			if v > tx.rv {
				if tx.d.Traced {
					tx.d.Tr.Record(txtrace.KindValidate, wv, uint64(tx.readLog.Len()), 0)
				}
				tx.held.Restore()
				tx.rt.clk.Observe(v, &tx.d.ClkProbe)
				tx.d.Conflict(tx.rt.lockShard(l))
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
	if mv := tx.rt.mv; mv != nil {
		tx.writeSet.Range(func(a tm.Addr, _ uint64) {
			pre, _ := tx.held.Displaced(tx.rt.lockFor(a))
			mv.Publish(a, tx.rt.store.LoadWord(a), pre, wv)
		})
	}

	tx.writeSet.Range(func(a tm.Addr, v uint64) {
		tx.rt.store.StoreWord(a, v)
		if tx.d.Traced {
			tx.d.Tr.Record(txtrace.KindCommitWord, wv, uint64(a), 0)
		}
		tx.d.Work++
	})
	tx.held.Publish(wv)
	// Ring Retry waiters whose read fingerprints intersect this write
	// set; the no-waiter fast path is one atomic load.
	if hub := tx.rt.drv.Hub; hub.Active() {
		var fp mode.Fingerprint
		tx.writeSet.Range(func(a tm.Addr, _ uint64) {
			fp = mode.FPAdd(fp, uintptr(unsafe.Pointer(tx.rt.lockFor(a))))
		})
		hub.Notify(fp)
	}
	tx.applyFrees()
	if tx.d.Traced {
		tx.d.Tr.Record(txtrace.KindCommit, wv, uint64(tx.writeSet.Len()), 0)
	}
}

func (tx *Tx) applyFrees() {
	for _, a := range tx.frees {
		tx.rt.alloc.Free(a)
	}
}
