package sched

import (
	"sync/atomic"

	"tlstm/internal/txstats"
)

// Placement is the thread→lock-table-shard placement policy: the
// scheduling half of conflict-aware thread/data mapping (Pasqualin et
// al.'s survey axis). Every thread has a "home" shard; the runtimes
// count a conflict as cross-shard when it lands outside the suffering
// thread's home, and periodically offer the policy a window of their
// conflict sketch so it can rebind them.
//
// The mapping moves threads, never addresses: a remap changes only
// which shard a thread calls home (and therefore where its conflicts
// are counted, and — on real multi-socket hardware — where the
// scheduler would pin it). Address→pair resolution is immutable
// (locktable.Layout), which is what keeps remapping semantically
// invisible.
//
// Concurrency contract: Home may be called from any goroutine at any
// time. Rebalance(thread, ...) is called only by thread's own context
// at its serialization points (commit epilogues), so per-thread windows
// need no locks; implementations publish home changes atomically.
type Placement interface {
	// Name labels the policy in result rows and flags.
	Name() string
	// Home reports thread's current home shard.
	Home(thread int) int
	// Rebalance offers the window of conflicts thread observed since
	// its previous call (a sketch delta, not a cumulative total) and
	// reports whether the thread's home changed. Owner-called only.
	Rebalance(thread int, window txstats.Sketch) bool
}

// RemapPeriod is how many transactions a thread commits between
// consecutive Rebalance offers: large enough that the policy sees a
// meaningful sketch window, small enough that a shifted workload
// re-homes within tens of microseconds of work.
const RemapPeriod = 64

// Remapper is a thread's side of the placement loop, run in its commit
// epilogue: it accumulates the conflict sketch of what the thread
// commits and, every RemapPeriod transactions, offers that window to the
// policy. Owner-only, like Rebalance.
type Remapper struct {
	window txstats.Sketch
	since  int
}

// Observe folds one committed transaction's (or task's) conflict sketch
// into the window.
func (r *Remapper) Observe(s txstats.Sketch) { r.window.Merge(s) }

// Step counts one committed transaction and, every RemapPeriod of them,
// offers the window to p on thread's behalf and starts a new one. It
// reports whether thread's home changed.
func (r *Remapper) Step(p Placement, thread int) bool {
	r.since++
	if r.since < RemapPeriod {
		return false
	}
	r.since = 0
	moved := p.Rebalance(thread, r.window)
	r.window = txstats.Sketch{}
	return moved
}

// RoundRobin is the static default placement: thread i is homed on
// shard i mod N forever. It is the degenerate policy that preserves
// the pre-sharding behaviour (and the control leg of every
// affinity-vs-static comparison).
type RoundRobin struct {
	shards int
}

// NewRoundRobin builds the static policy for an N-shard table.
func NewRoundRobin(shards int) *RoundRobin {
	if shards <= 0 {
		shards = 1
	}
	return &RoundRobin{shards: shards}
}

// Name implements Placement.
func (r *RoundRobin) Name() string { return "static" }

// Home implements Placement: thread mod shards, forever.
func (r *RoundRobin) Home(thread int) int { return thread % r.shards }

// Rebalance implements Placement: the static policy never moves.
func (r *RoundRobin) Rebalance(int, txstats.Sketch) bool { return false }

// placementThreads bounds the thread identities an Affinity policy
// tracks; higher thread ids alias modulo this (a power of two). 64
// home slots is 256 B — far above the thread counts the harness runs.
const placementThreads = 64

// Affinity thresholds: a window must carry at least MinSamples
// conflicts, with the hottest shard owning at least half of them,
// before a rebind is worth the locality churn. Thin or diffuse windows
// leave the thread where it is. The sample bar is deliberately low:
// the runtimes observe only cold abort/defeat paths into the sketch,
// so even a heavily contended window yields a handful of samples per
// remap period.
const (
	AffinityMinSamples    = 8
	affinityConcentration = 0.5
)

// Affinity is the conflict-sketch-driven placement: each thread starts
// at its round-robin home and is rebound toward the shard its recent
// conflicts concentrate in. Reconciliation is online and decentralized
// the way the sharded clock's Observe is — each thread feeds its own
// sketch window at its own commit boundary; there is no central
// controller goroutine to synchronize with.
type Affinity struct {
	shards int
	homes  [placementThreads]atomic.Int32
}

// NewAffinity builds the affinity policy for an N-shard table, with
// every thread initially at its round-robin home.
func NewAffinity(shards int) *Affinity {
	if shards <= 0 {
		shards = 1
	}
	a := &Affinity{shards: shards}
	for i := range a.homes {
		a.homes[i].Store(int32(i % shards))
	}
	return a
}

// Name implements Placement.
func (a *Affinity) Name() string { return "affinity" }

// Home implements Placement.
func (a *Affinity) Home(thread int) int {
	return int(a.homes[uint(thread)&(placementThreads-1)].Load())
}

// Rebalance implements Placement: rebind the thread's home to the
// window's hottest shard when the window is big and concentrated
// enough to justify the move.
func (a *Affinity) Rebalance(thread int, window txstats.Sketch) bool {
	if window.Total() < AffinityMinSamples {
		return false
	}
	hot, frac := window.Hot()
	if frac < affinityConcentration {
		return false
	}
	home := int32(hot % a.shards)
	slot := &a.homes[uint(thread)&(placementThreads-1)]
	if slot.Load() == home {
		return false
	}
	slot.Store(home)
	return true
}
