package txdriver

import (
	"fmt"
	"sync"

	"tlstm/internal/clock"
	"tlstm/internal/cm"
	"tlstm/internal/mem"
	"tlstm/internal/mode"
	"tlstm/internal/sched"
	"tlstm/internal/tm"
	"tlstm/internal/txlog"
	"tlstm/internal/txstats"
	"tlstm/internal/txtrace"
)

// Option configures a flat runtime. The seven options every flat
// runtime honours are declared here, once; a runtime declares only the
// options for what it alone has (SwissTM's lock-table geometry).
type Option func(*Config)

// Config is what the options set. Configure fills the clock and the
// contention manager; every other zero value is the default.
type Config struct {
	Clock    clock.Source
	CM       cm.Policy
	MVDepth  int
	Trace    *txtrace.Recorder
	Shards   int
	Affinity bool
	Mode     mode.Config

	// LockTableBits and PaddedLockTable are SwissTM's lock-table
	// geometry (stm.WithLockTableBits, stm.WithPaddedLockTable). TL2 and
	// wtstm take their lock count from New and have no padded layout:
	// FixedGeometry rejects both there.
	LockTableBits   int
	PaddedLockTable bool
}

// WithClock selects the commit-clock strategy (internal/clock); the
// default is the GV4 fetch-and-add clock. Non-exclusive strategies
// (deferred, sharded) disable the "wv == rv+1 ⇒ skip validation"
// commit shortcut of TL2 and wtstm, which is only sound when timestamps
// are unique.
func WithClock(src clock.Source) Option {
	return func(c *Config) { c.Clock = src }
}

// WithCM selects the contention-management policy (internal/cm); nil
// keeps the runtime's default: SwissTM's two-phase greedy manager, or
// for TL2 and wtstm cm.Suicide, the self-abort-with-grace behaviour they
// had hardwired. TL2's and wtstm's locks are anonymous version words,
// so policies resolve against a nil owner there: they shape only the
// requester's waiting, aborting and backoff, and internal/cm bounds any
// wait-for-the-owner verdict so that two transactions eagerly holding
// each other's next lock cannot deadlock.
func WithCM(pol cm.Policy) Option {
	return func(c *Config) { c.CM = pol }
}

// WithMultiVersion retains the last k displaced committed versions per
// word (txlog.VersionedStore) and enables the wait-free read path for
// transactions run through AtomicRO. For the write-through runtime this
// is the difference between a reader aborting on any eagerly locked
// word and reading straight past it from the ring. k <= 0 disables
// multi-versioning (the default).
func WithMultiVersion(k int) Option {
	return func(c *Config) { c.MVDepth = k }
}

// WithTrace arms flight-recorder tracing: every descriptor records its
// transactional events (begin, attempts, reads, writes, validation, CM
// decisions, aborts, commits) into its own txtrace ring registered with
// rec. nil (the default) keeps the no-op tracer, a dead branch on the
// hot paths.
func WithTrace(rec *txtrace.Recorder) Option {
	return func(c *Config) { c.Trace = rec }
}

// WithShards splits the lock table into n contiguous shards (a power of
// two; 0 and 1 both mean flat). Sharding only relabels locks for
// conflict attribution and placement — address→lock resolution is
// identical at every shard count.
func WithShards(n int) Option {
	return func(c *Config) { c.Shards = n }
}

// WithAffinity replaces the static round-robin thread placement with
// the conflict-sketch affinity policy (sched.Affinity): threads are
// periodically rebound toward the shard their aborts concentrate in.
func WithAffinity(on bool) Option {
	return func(c *Config) { c.Affinity = on }
}

// WithMode configures the execution-mode ladder (internal/mode): under
// mode.Adaptive each thread starts transactions speculative and falls
// back to the runtime's serialized gate when its contention thresholds
// trip, recovering once the serialized window drains cleanly. The
// default (mode.Speculative) disarms the ladder.
func WithMode(cfg mode.Config) Option {
	return func(c *Config) { c.Mode = cfg }
}

// Configure applies opts over the defaults: the GV4 clock and the
// runtime's own contention manager defaultCM.
func Configure(defaultCM cm.Kind, opts []Option) Config {
	var c Config
	for _, o := range opts {
		o(&c)
	}
	if c.Clock == nil {
		c.Clock = clock.New(clock.KindGV4)
	}
	if c.CM == nil {
		c.CM = cm.New(defaultCM)
	}
	return c
}

// FixedGeometry panics if c sets SwissTM's lock-table options: runtime
// ns sizes its lock array from New's argument and would ignore them.
func (c Config) FixedGeometry(ns string) {
	if c.LockTableBits != 0 || c.PaddedLockTable {
		panic(fmt.Sprintf("%s: WithLockTableBits and WithPaddedLockTable are SwissTM options; pass the lock count to New", ns))
	}
}

// Base is the shell every flat runtime embeds by value, so each of its
// fields sits at a fixed offset in the Runtime: no hop on the Load,
// Store and commit paths. Init sets the fields; they are read-only
// afterwards.
type Base struct {
	// Mem is the word store and Al its allocator.
	Mem *mem.Store
	Al  *mem.Allocator

	// Clock is the commit clock; Exclusive caches Clock.Exclusive() for
	// the commit fast path.
	Clock     clock.Source
	Exclusive bool

	// MV, when non-nil, is the multi-version word store declared
	// read-only transactions read from without validating.
	MV *txlog.VersionedStore

	// Trace, when non-nil, is the flight recorder descriptors register
	// their event rings with.
	Trace *txtrace.Recorder

	// Drv is the shared retry-loop driver: contention manager, mode
	// ladder, Retry hub and thread placement.
	Drv Driver

	// shards is the lock table's shard count.
	shards int

	// statsPool holds the *Stats thread contexts Atomic(nil, fn)
	// borrows in the runtimes that have no thread descriptor.
	statsPool sync.Pool
}

// Init builds the shell of runtime ns under c, for a lock table of
// 2^lockBits locks in shards shards. With a recorder armed it writes
// the metadata the opacity checker reads the runtime's rings with.
func (b *Base) Init(ns string, c Config, lockBits, shards int) {
	b.Mem = mem.NewStore()
	b.Al = mem.NewAllocator(b.Mem)
	b.Clock, b.Exclusive = c.Clock, c.Clock.Exclusive()
	if c.MVDepth > 0 {
		b.MV = txlog.NewVersionedStore(c.MVDepth, txlog.DefaultVersionedStoreBits)
	}
	b.Trace = c.Trace
	b.shards = shards

	d := &b.Drv
	d.clk, d.cm, d.mode = c.Clock, c.CM, c.Mode.Fill()
	d.Hub = mode.NewWaitHub()
	if c.Affinity {
		d.placement = sched.NewAffinity(shards)
	} else {
		d.placement = sched.NewRoundRobin(shards)
	}

	if b.Trace != nil {
		b.Trace.SetRuntimeMeta(ns, lockBits, b.Clock.Name(), b.Exclusive, b.MVDepth())
	}
}

// Shards reports the lock table's shard count.
func (b *Base) Shards() int { return b.shards }

// PlacementName reports the thread-placement policy in use.
func (b *Base) PlacementName() string { return b.Drv.placement.Name() }

// MVDepth reports the retained version depth (0 when multi-versioning
// is off).
func (b *Base) MVDepth() int {
	if b.MV == nil {
		return 0
	}
	return b.MV.K()
}

// ClockName reports the commit-clock strategy.
func (b *Base) ClockName() string { return b.Clock.Name() }

// CMName reports the contention-management policy.
func (b *Base) CMName() string { return b.Drv.cm.Name() }

// Direct returns the non-transactional handle for single-threaded
// setup and end-state checks.
func (b *Base) Direct() mem.Direct { return mem.Direct{Mem: b.Mem, Al: b.Al} }

// Allocator exposes the allocator.
func (b *Base) Allocator() *mem.Allocator { return b.Al }

// Stats is one logical thread of a runtime without thread descriptors
// (TL2, wtstm, whose Tx descriptors are pooled per runtime rather than
// per caller): its statistics across Atomic calls, and the driver
// context — placement identity and mode controller — touched only by
// the goroutine that owns it.
type Stats struct {
	Commits uint64
	Aborts  uint64
	txstats.Counters

	Thread Thread
}

// Add folds o's counters into s.
func (s *Stats) Add(o Stats) {
	s.Commits += o.Commits
	s.Aborts += o.Aborts
	s.Counters.Add(o.Counters)
}

// Borrow returns st, or for a nil st a pooled context whose counters
// are discarded, and whether it borrowed; Return takes the result back.
func (b *Base) Borrow(st *Stats) (*Stats, bool) {
	if st != nil {
		return st, false
	}
	if st, _ = b.statsPool.Get().(*Stats); st == nil {
		st = new(Stats)
	}
	return st, true
}

// Return gives a context Borrow lent back to the pool.
func (b *Base) Return(st *Stats, borrowed bool) {
	if borrowed {
		b.statsPool.Put(st)
	}
}

// Alloc allocates n words for the transaction; UndoAllocs frees them
// if the attempt aborts.
func (x *Desc) Alloc(n int) tm.Addr {
	x.Work++
	a := x.al.Alloc(n)
	x.allocs = append(x.allocs, a)
	return a
}

// Free defers freeing a to commit (ApplyFrees).
func (x *Desc) Free(a tm.Addr) { x.frees = append(x.frees, a) }

// ApplyFrees performs the committed attempt's deferred frees.
func (x *Desc) ApplyFrees() {
	for _, a := range x.frees {
		x.al.Free(a)
	}
}

// UndoAllocs frees the allocations of an attempt that is unwinding.
func (x *Desc) UndoAllocs() {
	for _, a := range x.allocs {
		x.al.Free(a)
	}
}
