// Package harness drives the paper's four evaluation experiments
// (Figures 1a, 1b, 2a, 2b) over the four runtimes (TLSTM, SwissTM, TL2
// and the write-through STM) and reports throughput.
//
// Hardware substitution (DESIGN.md §3): the paper measured wall-clock
// throughput on 64-hardware-thread machines; the harness was built on a
// single CPU, where speculative parallelism cannot shorten wall time,
// and its figures must not depend on the core count. The runtimes
// therefore count *work units* for every operation they
// actually execute — reads, writes, validation steps, commit publishes,
// including all aborted attempts — and the harness reports *virtual
// time*: per user-transaction, its tasks start together and task k
// finishes at max(own work, finish of k−1) plus a commit cost (commits
// are serialized per thread); threads run in parallel, so a run's
// virtual duration is the maximum per-thread virtual time. Conflicts
// and rollbacks lengthen virtual time exactly where they lengthen the
// paper's wall time. Wall-clock numbers are also recorded.
package harness

import (
	"fmt"
	"sync"
	"time"

	"tlstm/internal/clock"
	"tlstm/internal/cm"
	"tlstm/internal/core"
	"tlstm/internal/locktable"
	"tlstm/internal/mode"
	"tlstm/internal/sched"
	"tlstm/internal/stm"
	"tlstm/internal/tl2"
	"tlstm/internal/tm"
	"tlstm/internal/txstats"
	"tlstm/internal/wtstm"
)

// TaskBody is one speculative task's work, written against the common
// tm.Tx interface so the same body runs on all four runtimes.
type TaskBody func(tx tm.Tx)

// TxSeq is one user-transaction decomposed into task bodies in program
// order. The SwissTM baseline runs the concatenation as a single
// transaction; TLSTM runs one speculative task per element.
type TxSeq []TaskBody

// Workload describes one benchmark configuration.
type Workload struct {
	// Name labels the series this run belongs to.
	Name string
	// Threads is the number of user-threads (paper: hand-parallelized
	// threads / Vacation clients).
	Threads int
	// TxPerThread is the number of user-transactions per thread.
	TxPerThread int
	// OpsPerTx is how many application-level operations one
	// transaction represents (throughput numerator).
	OpsPerTx int
	// Make produces the transaction to run; it must be deterministic in
	// (thread, idx) so runtimes can be compared on identical work.
	Make func(thread, idx int) TxSeq
	// ReadOnly, when non-nil, declares transaction (thread, idx) as
	// read-only: runners route it through the runtime's AtomicRO entry
	// point, which takes the wait-free multi-version read path when the
	// runtime has one configured. The declaration is a hint — a
	// transaction that writes anyway falls back to the validated path —
	// but a truthful one is what the mv= columns measure.
	ReadOnly func(thread, idx int) bool
}

// declaredRO reports whether the workload declares (thread, idx)
// read-only.
func (w Workload) declaredRO(thread, idx int) bool {
	return w.ReadOnly != nil && w.ReadOnly(thread, idx)
}

// Result is one configuration's measurement. The embedded Counters are
// the runtimes' shared statistics, summed over the run's threads.
type Result struct {
	Label        string
	Ops          uint64
	VirtualUnits uint64
	Wall         time.Duration
	TxCommitted  uint64
	TxAborted    uint64
	TaskRestarts uint64
	// Scheduler counters (TLSTM runs only): worker goroutines spawned
	// across all threads — at most threads×SpecDepth for the whole run —
	// and task/transaction descriptors served from the recycled rings.
	WorkersSpawned   uint64
	DescriptorReuses uint64
	// Clock is the commit-clock strategy the run used ("gv4",
	// "deferred", "sharded", "gv7"); CM the contention-management policy
	// ("suicide", "backoff", "greedy", "karma", "taskaware"); Mode the
	// execution-mode policy ("spec", "adaptive", "serial").
	Clock string
	CM    string
	Mode  string
	// Shards is the run's lock-table shard count (1 = flat) and
	// Placement the thread-placement policy ("static" round-robin or
	// "affinity").
	Shards    int
	Placement string
	// MV is the runtime's retained version depth (0 when
	// multi-versioning is off).
	MV int

	txstats.Counters
}

// fold adds one thread's shard to r. Threads run in parallel, so the
// run's virtual duration is the longest thread's.
func (r *Result) fold(commits, aborts, virtual uint64, c txstats.Counters) {
	r.TxCommitted += commits
	r.TxAborted += aborts
	r.VirtualUnits = max(r.VirtualUnits, virtual)
	r.Counters.Add(c)
}

// Throughput reports application operations per 1000 virtual work units
// (the figures' y-axis; the paper uses ops/s on real hardware).
func (r Result) Throughput() float64 {
	if r.VirtualUnits == 0 {
		return 0
	}
	return float64(r.Ops) * 1000 / float64(r.VirtualUnits)
}

// String formats a result row. Scheduler counters appear only when the
// run produced them (TLSTM runs; the baseline has no task scheduler),
// and clock columns only when the strategy or its costs are
// interesting (a non-default strategy, or nonzero extension/retry
// counts).
func (r Result) String() string {
	s := fmt.Sprintf("%-22s ops=%-8d tput=%8.3f vtime=%-10d txAbort=%-5d taskRestart=%-6d wall=%s",
		r.Label, r.Ops, r.Throughput(), r.VirtualUnits, r.TxAborted, r.TaskRestarts, r.Wall.Round(time.Millisecond))
	if r.WorkersSpawned > 0 || r.DescriptorReuses > 0 {
		s += fmt.Sprintf(" workers=%-3d descReuse=%d", r.WorkersSpawned, r.DescriptorReuses)
	}
	if (r.Clock != "" && r.Clock != clock.KindGV4.String()) || r.SnapshotExtensions > 0 || r.ClockCASRetries > 0 {
		s += fmt.Sprintf(" clock=%-8s ext=%-5d clkRetry=%d", r.Clock, r.SnapshotExtensions, r.ClockCASRetries)
	}
	if r.CMAbortsSelf > 0 || r.CMAbortsOwner > 0 || r.BackoffSpins > 0 {
		s += fmt.Sprintf(" cm=%-9s cmSelf=%-5d cmOwner=%-5d spins=%d", r.CM, r.CMAbortsSelf, r.CMAbortsOwner, r.BackoffSpins)
	}
	if r.EntryReclaims > 0 || r.HorizonStalls > 0 {
		s += fmt.Sprintf(" reclaim=%-6d stall=%d", r.EntryReclaims, r.HorizonStalls)
	}
	if r.Shards > 1 || r.CrossShardConflicts > 0 || r.Remaps > 0 {
		s += fmt.Sprintf(" shards=%-2d place=%-8s xshard=%-6d remap=%d",
			r.Shards, r.Placement, r.CrossShardConflicts, r.Remaps)
	}
	if r.MV > 0 || r.MVReads > 0 || r.MVMisses > 0 {
		s += fmt.Sprintf(" mv=%d mvRead=%-7d mvMiss=%-4d rset[%s] wset[%s]",
			r.MV, r.MVReads, r.MVMisses, r.ReadSetSizes, r.WriteSetSizes)
	}
	if r.CommitLatency.Total() > 0 {
		s += fmt.Sprintf(" commitLat[%s] attempts[%s]", r.CommitLatency, r.Attempts)
		if r.RestartLatency.Total() > 0 {
			s += fmt.Sprintf(" restartLat[%s]", r.RestartLatency)
		}
	}
	if (r.Mode != "" && r.Mode != mode.Speculative.String()) ||
		r.ModeFallbacks > 0 || r.ModeRecoveries > 0 || r.RetryWakes > 0 {
		s += fmt.Sprintf(" mode=%-8s fallback=%-4d recover=%-4d retryWake=%d",
			r.Mode, r.ModeFallbacks, r.ModeRecoveries, r.RetryWakes)
	}
	return s
}

// RunSTM executes the workload on a fresh-thread pool over the SwissTM
// baseline: each TxSeq runs as one flat transaction. Every thread runs
// on its own stm.Worker, so statistics accumulate into unshared shards
// (merged into the runtime aggregate at worker exit) and the hot path
// reuses one pooled transaction descriptor per thread.
func RunSTM(rt *stm.Runtime, w Workload) Result {
	start := time.Now()
	workers := make([]*stm.Worker, w.Threads)
	for th := range workers {
		workers[th] = rt.NewWorker()
	}
	var wg sync.WaitGroup
	for th := 0; th < w.Threads; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			wk := workers[th]
			for i := 0; i < w.TxPerThread; i++ {
				seq := w.Make(th, i)
				run := func(tx *stm.Tx) {
					for _, body := range seq {
						body(tx)
					}
				}
				if w.declaredRO(th, i) {
					wk.AtomicRO(run)
				} else {
					wk.Atomic(run)
				}
			}
		}(th)
	}
	wg.Wait()

	res := Result{
		Label:     w.Name,
		Ops:       uint64(w.Threads * w.TxPerThread * w.OpsPerTx),
		Wall:      time.Since(start),
		Clock:     rt.ClockName(),
		CM:        rt.CMName(),
		MV:        rt.MVDepth(),
		Shards:    rt.Shards(),
		Placement: rt.PlacementName(),
	}
	for _, wk := range workers {
		st := wk.Stats()
		res.fold(st.Commits, st.Aborts, st.Work, st.Counters)
		wk.Close() // merge the shard into the runtime aggregate
	}
	return res
}

// runFlat drives a flat-transaction runtime: one goroutine per thread,
// each TxSeq concatenated into one transaction (routed through atomicRO
// when the workload declares it read-only), per-thread statistics
// folded into the shared Result shape (shard reports one thread's
// commits, aborts and counters). RunTL2 and RunWTSTM are thin wrappers
// so the fan-out/fold logic exists once.
func runFlat[S any](w Workload, clockName, cmName string, mvDepth, shards int, placement string,
	atomic, atomicRO func(st *S, run func(tm.Tx)), shard func(S) (commits, aborts uint64, c txstats.Counters)) Result {
	start := time.Now()
	stats := make([]S, w.Threads)
	var wg sync.WaitGroup
	for th := 0; th < w.Threads; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			for i := 0; i < w.TxPerThread; i++ {
				seq := w.Make(th, i)
				run := func(tx tm.Tx) {
					for _, body := range seq {
						body(tx)
					}
				}
				if w.declaredRO(th, i) {
					atomicRO(&stats[th], run)
				} else {
					atomic(&stats[th], run)
				}
			}
		}(th)
	}
	wg.Wait()

	res := Result{
		Label:     w.Name,
		Ops:       uint64(w.Threads * w.TxPerThread * w.OpsPerTx),
		Wall:      time.Since(start),
		Clock:     clockName,
		CM:        cmName,
		MV:        mvDepth,
		Shards:    shards,
		Placement: placement,
	}
	for _, s := range stats {
		commits, aborts, c := shard(s)
		res.fold(commits, aborts, c.Work, c)
	}
	return res
}

// RunTL2 executes the workload on the TL2 baseline.
func RunTL2(rt *tl2.Runtime, w Workload) Result {
	return runFlat(w, rt.ClockName(), rt.CMName(), rt.MVDepth(), rt.Shards(), rt.PlacementName(),
		func(st *tl2.Stats, run func(tm.Tx)) {
			rt.Atomic(st, func(tx *tl2.Tx) { run(tx) })
		},
		func(st *tl2.Stats, run func(tm.Tx)) {
			rt.AtomicRO(st, func(tx *tl2.Tx) { run(tx) })
		},
		func(st tl2.Stats) (uint64, uint64, txstats.Counters) { return st.Commits, st.Aborts, st.Counters })
}

// RunWTSTM executes the workload on the write-through STM.
func RunWTSTM(rt *wtstm.Runtime, w Workload) Result {
	return runFlat(w, rt.ClockName(), rt.CMName(), rt.MVDepth(), rt.Shards(), rt.PlacementName(),
		func(st *wtstm.Stats, run func(tm.Tx)) {
			rt.Atomic(st, func(tx *wtstm.Tx) { run(tx) })
		},
		func(st *wtstm.Stats, run func(tm.Tx)) {
			rt.AtomicRO(st, func(tx *wtstm.Tx) { run(tx) })
		},
		func(st wtstm.Stats) (uint64, uint64, txstats.Counters) { return st.Commits, st.Aborts, st.Counters })
}

// RunTLSTM executes the workload over TLSTM: each TxSeq element becomes
// one speculative task. The runtime's SpecDepth must be at least the
// longest TxSeq.
func RunTLSTM(rt *core.Runtime, w Workload) Result {
	start := time.Now()
	threads := make([]*core.Thread, w.Threads)
	for th := range threads {
		threads[th] = rt.NewThread()
	}
	var wg sync.WaitGroup
	for th := 0; th < w.Threads; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			thr := threads[th]
			for i := 0; i < w.TxPerThread; i++ {
				seq := w.Make(th, i)
				fns := make([]core.TaskFunc, len(seq))
				for j, body := range seq {
					body := body
					fns[j] = func(tk *core.Task) { body(tk) }
				}
				var err error
				if w.declaredRO(th, i) {
					err = thr.AtomicRO(fns...)
				} else {
					err = thr.Atomic(fns...)
				}
				if err != nil {
					panic(fmt.Sprintf("harness: %v", err))
				}
			}
			thr.Sync()
		}(th)
	}
	wg.Wait()

	res := Result{
		Label:     w.Name,
		Ops:       uint64(w.Threads * w.TxPerThread * w.OpsPerTx),
		Wall:      time.Since(start),
		Clock:     rt.ClockName(),
		CM:        rt.CMName(),
		MV:        rt.MVDepth(),
		Shards:    rt.Shards(),
		Placement: rt.PlacementName(),
	}
	for _, thr := range threads {
		st := thr.Stats()
		res.fold(st.TxCommitted, st.TxAborted, st.VirtualTime, st.Counters)
		res.TaskRestarts += st.TaskRestarts
		res.WorkersSpawned += st.WorkersSpawned
		res.DescriptorReuses += st.DescriptorReuses
	}
	return res
}

// CompareSched runs one identical depth-1 counter workload under each
// scheduling policy (sched.Pooled and sched.Inline) and reports both
// measurements. Virtual time is policy-independent by construction —
// the same work units are charged either way — so the interesting
// column is Wall: the per-task cost of the worker wake/park protocol
// against running the body on the submitting goroutine.
func CompareSched(threads, txPerThread int) []Result {
	mk := func(policy sched.Policy, label string) Result {
		rt := core.New(core.Config{SpecDepth: 1, Policy: policy})
		defer rt.Close()
		base := rt.Direct().Alloc(threads)
		w := Workload{
			Name:        label,
			Threads:     threads,
			TxPerThread: txPerThread,
			OpsPerTx:    1,
			Make: func(thread, idx int) TxSeq {
				a := base + tm.Addr(thread)
				return TxSeq{func(tx tm.Tx) { tx.Store(a, tx.Load(a)+1) }}
			},
		}
		return RunTLSTM(rt, w)
	}
	return []Result{
		mk(sched.Pooled, fmt.Sprintf("TLSTM-%d-1-pooled", threads)),
		mk(sched.Inline, fmt.Sprintf("TLSTM-%d-1-inline", threads)),
	}
}

// clockSweepWorkload is the CompareClocks workload: write-heavy with a
// shared hot word. Every transaction reads the hot word and increments
// the thread's private counter; every fourth also increments the hot
// word. The private writes make every transaction a committer (commit
// clock pressure); the shared reads force each thread to keep meeting
// other threads' fresh stamps (snapshot-extension pressure). Both sides
// of the strategy trade-off are therefore exercised at once.
func clockSweepWorkload(name string, base tm.Addr, threads, txPerThread int) Workload {
	return Workload{
		Name:        name,
		Threads:     threads,
		TxPerThread: txPerThread,
		OpsPerTx:    2,
		Make: func(thread, idx int) TxSeq {
			hot := base
			mine := base + 1 + tm.Addr(thread)
			shared := idx%4 == 0
			return TxSeq{func(tx tm.Tx) {
				h := tx.Load(hot)
				tx.Store(mine, tx.Load(mine)+1)
				if shared {
					tx.Store(hot, h+1)
				}
			}}
		},
	}
}

// checkClockSweep verifies the sweep's end state: with the workload
// above, the hot word must hold the exact number of hot increments and
// each private counter its thread's transaction count — a cheap
// atomicity check that runs under every strategy.
func checkClockSweep(load func(tm.Addr) uint64, base tm.Addr, threads, txPerThread int) {
	hotWant := uint64(threads * ((txPerThread + 3) / 4))
	if got := load(base); got != hotWant {
		panic(fmt.Sprintf("harness: clock sweep hot counter = %d, want %d (atomicity violated)", got, hotWant))
	}
	for th := 0; th < threads; th++ {
		if got := load(base + 1 + tm.Addr(th)); got != uint64(txPerThread) {
			panic(fmt.Sprintf("harness: clock sweep thread %d counter = %d, want %d", th, got, txPerThread))
		}
	}
}

// CompareClocks runs one identical write-heavy workload on all four
// runtimes under each commit-clock strategy (gv4, deferred, sharded)
// and reports every measurement: throughput, abort rate, snapshot
// extensions and clock CAS retries per strategy, across the whole
// runtime matrix at once. Each run's end state is invariant-checked, so
// the sweep doubles as a cross-runtime atomicity test for the
// strategies.
func CompareClocks(threads, txPerThread int) []Result {
	var out []Result
	for _, kind := range clock.Kinds() {
		{
			rt := stm.New(stm.WithClock(clock.New(kind)))
			base := rt.Direct().Alloc(threads + 1)
			w := clockSweepWorkload("SwissTM/"+kind.String(), base, threads, txPerThread)
			out = append(out, RunSTM(rt, w))
			checkClockSweep(rt.Direct().Load, base, threads, txPerThread)
		}
		{
			rt := tl2.New(20, tl2.WithClock(clock.New(kind)))
			base := rt.Direct().Alloc(threads + 1)
			w := clockSweepWorkload("TL2/"+kind.String(), base, threads, txPerThread)
			out = append(out, RunTL2(rt, w))
			checkClockSweep(rt.Direct().Load, base, threads, txPerThread)
		}
		{
			rt := wtstm.New(20, wtstm.WithClock(clock.New(kind)))
			base := rt.Direct().Alloc(threads + 1)
			w := clockSweepWorkload("wtstm/"+kind.String(), base, threads, txPerThread)
			out = append(out, RunWTSTM(rt, w))
			checkClockSweep(rt.Direct().Load, base, threads, txPerThread)
		}
		{
			rt := core.New(core.Config{SpecDepth: 1, Clock: clock.New(kind)})
			base := rt.Direct().Alloc(threads + 1)
			w := clockSweepWorkload("TLSTM/"+kind.String(), base, threads, txPerThread)
			out = append(out, RunTLSTM(rt, w))
			checkClockSweep(rt.Direct().Load, base, threads, txPerThread)
			rt.Close()
		}
	}
	return out
}

// cmSweepFill is the number of private filler reads each CompareCM
// transaction performs while holding the hot word's write lock. The
// filler pushes every transaction past the yield quantum, so on the
// single-CPU simulator transactions genuinely overlap — and because
// eager runtimes take the hot lock before the filler, the lock is held
// across a scheduler slice and every other thread's increment runs
// into it: exactly the sustained write/write conflict the contention
// managers exist to resolve.
const cmSweepFill = 48

// cmSweepAlloc is the number of words a CompareCM runtime must
// allocate: the hot word, one private counter per thread, and each
// thread's filler region.
func cmSweepAlloc(threads int) int { return 1 + threads + threads*cmSweepFill }

// cmSweepWorkload is the CompareCM workload: every transaction
// increments one shared hot word (taking its write lock first), reads
// its thread's filler region while holding it, and increments the
// thread's private counter (so every transaction is a committer).
func cmSweepWorkload(name string, base tm.Addr, threads, txPerThread int) Workload {
	return Workload{
		Name:        name,
		Threads:     threads,
		TxPerThread: txPerThread,
		OpsPerTx:    2,
		Make: func(thread, idx int) TxSeq {
			hot := base
			mine := base + 1 + tm.Addr(thread)
			fill := base + 1 + tm.Addr(threads) + tm.Addr(thread*cmSweepFill)
			return TxSeq{func(tx tm.Tx) {
				tx.Store(hot, tx.Load(hot)+1)
				var sink uint64
				for j := 0; j < cmSweepFill; j++ {
					sink += tx.Load(fill + tm.Addr(j))
				}
				tx.Store(mine, tx.Load(mine)+1+sink)
			}}
		},
	}
}

// checkCMSweep verifies the sweep's end state: the hot word must hold
// exactly one increment per transaction and each private counter its
// thread's transaction count — a cross-runtime atomicity check that
// runs under every policy, so a policy that drops, doubles or tears an
// update is caught by the sweep itself.
func checkCMSweep(load func(tm.Addr) uint64, base tm.Addr, threads, txPerThread int) {
	if got, want := load(base), uint64(threads*txPerThread); got != want {
		panic(fmt.Sprintf("harness: cm sweep hot counter = %d, want %d (atomicity violated)", got, want))
	}
	for th := 0; th < threads; th++ {
		if got := load(base + 1 + tm.Addr(th)); got != uint64(txPerThread) {
			panic(fmt.Sprintf("harness: cm sweep thread %d counter = %d, want %d", th, got, txPerThread))
		}
	}
}

// CompareCM runs one identical write-contended workload on all four
// runtimes under each contention-management policy (suicide, backoff,
// greedy, karma, taskaware) and reports every measurement: throughput,
// abort rate, and the policy's decision counters (conflicts resolved
// against the requester and against the owner, backoff yields charged).
// Each run's end state is invariant-checked, so the sweep doubles as a
// cross-runtime atomicity test for the policies.
func CompareCM(threads, txPerThread int) []Result {
	var out []Result
	for _, kind := range cm.Kinds() {
		{
			rt := stm.New(stm.WithCM(cm.New(kind)))
			base := rt.Direct().Alloc(cmSweepAlloc(threads))
			w := cmSweepWorkload("SwissTM/"+kind.String(), base, threads, txPerThread)
			out = append(out, RunSTM(rt, w))
			checkCMSweep(rt.Direct().Load, base, threads, txPerThread)
		}
		{
			rt := tl2.New(20, tl2.WithCM(cm.New(kind)))
			base := rt.Direct().Alloc(cmSweepAlloc(threads))
			w := cmSweepWorkload("TL2/"+kind.String(), base, threads, txPerThread)
			out = append(out, RunTL2(rt, w))
			checkCMSweep(rt.Direct().Load, base, threads, txPerThread)
		}
		{
			rt := wtstm.New(20, wtstm.WithCM(cm.New(kind)))
			base := rt.Direct().Alloc(cmSweepAlloc(threads))
			w := cmSweepWorkload("wtstm/"+kind.String(), base, threads, txPerThread)
			out = append(out, RunWTSTM(rt, w))
			checkCMSweep(rt.Direct().Load, base, threads, txPerThread)
		}
		{
			rt := core.New(core.Config{SpecDepth: 1, CM: cm.New(kind)})
			base := rt.Direct().Alloc(cmSweepAlloc(threads))
			w := cmSweepWorkload("TLSTM/"+kind.String(), base, threads, txPerThread)
			out = append(out, RunTLSTM(rt, w))
			checkCMSweep(rt.Direct().Load, base, threads, txPerThread)
			rt.Close()
		}
	}
	return out
}

// CompareModes runs the CompareCM conflict storm (karma contention
// management, one hot word) on all four runtimes under each execution
// mode policy — always-speculative, the adaptive ladder, and
// always-serialized — and reports throughput, abort rate and the
// ladder's fallback/recovery counters per policy. The storm is exactly
// the workload the serialized rung exists for, so the sweep measures
// what fallback buys (and what the serial rung costs when contention is
// absent the ladder still pays nothing: it only engages on pressure).
// Each run's end state is invariant-checked.
func CompareModes(threads, txPerThread int) []Result {
	var out []Result
	tag := func(r Result, pol mode.Policy) Result {
		r.Mode = pol.String()
		return r
	}
	for _, pol := range mode.Policies() {
		mc := mode.Config{Policy: pol}
		{
			rt := stm.New(stm.WithCM(cm.New(cm.KindKarma)), stm.WithMode(mc))
			base := rt.Direct().Alloc(cmSweepAlloc(threads))
			w := cmSweepWorkload("SwissTM/"+pol.String(), base, threads, txPerThread)
			out = append(out, tag(RunSTM(rt, w), pol))
			checkCMSweep(rt.Direct().Load, base, threads, txPerThread)
		}
		{
			rt := tl2.New(20, tl2.WithCM(cm.New(cm.KindKarma)), tl2.WithMode(mc))
			base := rt.Direct().Alloc(cmSweepAlloc(threads))
			w := cmSweepWorkload("TL2/"+pol.String(), base, threads, txPerThread)
			out = append(out, tag(RunTL2(rt, w), pol))
			checkCMSweep(rt.Direct().Load, base, threads, txPerThread)
		}
		{
			rt := wtstm.New(20, wtstm.WithCM(cm.New(cm.KindKarma)), wtstm.WithMode(mc))
			base := rt.Direct().Alloc(cmSweepAlloc(threads))
			w := cmSweepWorkload("wtstm/"+pol.String(), base, threads, txPerThread)
			out = append(out, tag(RunWTSTM(rt, w), pol))
			checkCMSweep(rt.Direct().Load, base, threads, txPerThread)
		}
		{
			rt := core.New(core.Config{SpecDepth: 1, CM: cm.New(cm.KindKarma), Mode: mc})
			base := rt.Direct().Alloc(cmSweepAlloc(threads))
			w := cmSweepWorkload("TLSTM/"+pol.String(), base, threads, txPerThread)
			out = append(out, tag(RunTLSTM(rt, w), pol))
			checkCMSweep(rt.Direct().Load, base, threads, txPerThread)
			rt.Close()
		}
	}
	return out
}

// mvSweepWords is the number of shared accounts the CompareMV workload
// scans: large enough that a read-only transaction's validated read set
// is worth eliding, small enough that writers keep every account warm.
const mvSweepWords = 32

// mvScanPasses is how many times a read-only scan traverses the
// accounts. The scan must outlast the yield quantum (see the runtimes'
// forced-interleaving grain) so writers commit mid-scan: that is what
// makes the validated path pay for extensions, revalidations and
// (TL2) aborts that the wait-free path never performs.
const mvScanPasses = 4

// readMostlyWorkload is the CompareMV workload at a given read/write
// mix: one transaction in writerEvery is a writer that transfers one
// unit between two accounts (total preserved), the rest are declared
// read-only scans summing every account. Because transfers conserve the
// (wrapping) total, any consistent snapshot sums to zero — each scan
// asserts it, so every multi-version read is checked against tearing
// and too-new values, not just the end state.
func readMostlyWorkload(name string, base tm.Addr, threads, txPerThread, writerEvery int) Workload {
	return Workload{
		Name:        name,
		Threads:     threads,
		TxPerThread: txPerThread,
		OpsPerTx:    1,
		Make: func(thread, idx int) TxSeq {
			if idx%writerEvery == 0 {
				src := (thread*7 + idx) % mvSweepWords
				dst := (src + 1 + idx%(mvSweepWords-1)) % mvSweepWords
				return TxSeq{func(tx tm.Tx) {
					tx.Store(base+tm.Addr(src), tx.Load(base+tm.Addr(src))-1)
					tx.Store(base+tm.Addr(dst), tx.Load(base+tm.Addr(dst))+1)
				}}
			}
			return TxSeq{func(tx tm.Tx) {
				var sum uint64
				for p := 0; p < mvScanPasses; p++ {
					for j := 0; j < mvSweepWords; j++ {
						sum += tx.Load(base + tm.Addr(j))
					}
				}
				if sum != 0 {
					panic(fmt.Sprintf("harness: mv sweep scan saw inconsistent snapshot (sum=%d, want 0)", sum))
				}
			}}
		},
		ReadOnly: func(thread, idx int) bool { return idx%writerEvery != 0 },
	}
}

// checkMVSweep verifies the sweep's end state: transfers conserve the
// wrapping account total, so the final sum must be zero.
func checkMVSweep(load func(tm.Addr) uint64, base tm.Addr) {
	var sum uint64
	for j := 0; j < mvSweepWords; j++ {
		sum += load(base + tm.Addr(j))
	}
	if sum != 0 {
		panic(fmt.Sprintf("harness: mv sweep end state sum = %d, want 0 (atomicity violated)", sum))
	}
}

// CompareMV runs the read-mostly account-scan workload on all four
// runtimes at two read/write mixes (90/10 and 99/1) across retained
// version depths K = 0 (multi-versioning off: every scan validates and
// extends) through 3, and reports every measurement: throughput, abort
// and extension counts, wait-free reads and fallback misses per depth.
// Both the per-scan snapshot assertion and each run's end-state check
// make the sweep a cross-runtime consistency test for the version
// store.
func CompareMV(threads, txPerThread int) []Result {
	var out []Result
	for _, mix := range []struct {
		tag         string
		writerEvery int
	}{{"90-10", 10}, {"99-1", 100}} {
		for k := 0; k <= 3; k++ {
			label := func(rtName string) string {
				return fmt.Sprintf("%s/%s/mv%d", rtName, mix.tag, k)
			}
			{
				rt := stm.New(stm.WithMultiVersion(k))
				base := rt.Direct().Alloc(mvSweepWords)
				w := readMostlyWorkload(label("SwissTM"), base, threads, txPerThread, mix.writerEvery)
				out = append(out, RunSTM(rt, w))
				checkMVSweep(rt.Direct().Load, base)
			}
			{
				rt := tl2.New(20, tl2.WithMultiVersion(k))
				base := rt.Direct().Alloc(mvSweepWords)
				w := readMostlyWorkload(label("TL2"), base, threads, txPerThread, mix.writerEvery)
				out = append(out, RunTL2(rt, w))
				checkMVSweep(rt.Direct().Load, base)
			}
			{
				rt := wtstm.New(20, wtstm.WithMultiVersion(k))
				base := rt.Direct().Alloc(mvSweepWords)
				w := readMostlyWorkload(label("wtstm"), base, threads, txPerThread, mix.writerEvery)
				out = append(out, RunWTSTM(rt, w))
				checkMVSweep(rt.Direct().Load, base)
			}
			{
				rt := core.New(core.Config{SpecDepth: 2, MVDepth: k})
				base := rt.Direct().Alloc(mvSweepWords)
				w := readMostlyWorkload(label("TLSTM"), base, threads, txPerThread, mix.writerEvery)
				out = append(out, RunTLSTM(rt, w))
				checkMVSweep(rt.Direct().Load, base)
				rt.Close()
			}
		}
	}
	return out
}

// shardSweepFill is the number of private filler reads each hot-word
// CompareShards transaction performs while holding the hot word's write
// lock (same role as cmSweepFill: push transactions past the yield
// quantum so they genuinely overlap on the single-CPU simulator).
const shardSweepFill = 48

// shardSweepAlloc is the number of words a CompareShards runtime
// allocates: a probe region the hot word is picked from, one private
// counter per thread, and each thread's filler region.
func shardSweepAlloc(threads int) int {
	return shardProbeWords + threads + threads*shardSweepFill
}

// shardProbeWords sizes the region scanned for a hot word that maps to
// shard 0. The Fibonacci index spreads any address range about evenly
// across shards, so a few hundred candidates always contain one.
const shardProbeWords = 512

// hotWordFor returns the first address in [base, base+shardProbeWords)
// the layout maps to shard 0, so the sweep's contention concentrates in
// one known shard regardless of the shard count.
func hotWordFor(base tm.Addr, layout locktable.Layout) tm.Addr {
	for off := 0; off < shardProbeWords; off++ {
		if layout.ShardOf(base+tm.Addr(off)) == 0 {
			return base + tm.Addr(off)
		}
	}
	return base
}

// shardSweepWorkload is the hot-word CompareShards workload: every
// transaction increments one shared hot word chosen to live in shard 0,
// reads its thread's filler region while holding the lock, and
// increments the thread's private counter. All contention lands in one
// shard, which is the configuration sharding is about: under static
// round-robin placement every thread homed elsewhere counts each
// conflict as cross-shard, and the affinity policy should migrate every
// thread's home onto the hot shard and drive that counter down.
func shardSweepWorkload(name string, hot, counters, fillers tm.Addr, threads, txPerThread int) Workload {
	return Workload{
		Name:        name,
		Threads:     threads,
		TxPerThread: txPerThread,
		OpsPerTx:    2,
		Make: func(thread, idx int) TxSeq {
			mine := counters + tm.Addr(thread)
			fill := fillers + tm.Addr(thread*shardSweepFill)
			return TxSeq{func(tx tm.Tx) {
				tx.Store(hot, tx.Load(hot)+1)
				var sink uint64
				for j := 0; j < shardSweepFill; j++ {
					sink += tx.Load(fill + tm.Addr(j))
				}
				tx.Store(mine, tx.Load(mine)+1+sink)
			}}
		},
	}
}

// checkShardSweep verifies the hot-word sweep's end state (one hot
// increment per transaction, one private increment per thread
// transaction), so the sweep doubles as an atomicity check across shard
// counts and placement policies.
func checkShardSweep(load func(tm.Addr) uint64, hot, counters tm.Addr, threads, txPerThread int) {
	if got, want := load(hot), uint64(threads*txPerThread); got != want {
		panic(fmt.Sprintf("harness: shard sweep hot counter = %d, want %d (atomicity violated)", got, want))
	}
	for th := 0; th < threads; th++ {
		if got := load(counters + tm.Addr(th)); got != uint64(txPerThread) {
			panic(fmt.Sprintf("harness: shard sweep thread %d counter = %d, want %d", th, got, txPerThread))
		}
	}
}

// ShardCounts is the lock-table geometry CompareShards sweeps.
var ShardCounts = []int{1, 2, 4, 8}

// CompareShards sweeps lock-table shard counts (1 = flat) across all
// four runtimes and two contention mixes — the hot-word mix above,
// whose conflicts concentrate in one shard, and the diffuse 90/10
// read-mostly account mix — and, at every sharded count, runs both
// placement policies. The rows to read against each other: at N >= 2
// the hot-word affinity legs should show Remaps > 0 and materially
// fewer CrossShardConflicts than their static twins (threads migrate
// onto the hot shard), while the diffuse mix's affinity legs should
// show no remaps at all (no shard dominates a window); N = 1 is the
// degenerate flat layout whose throughput bounds the sharding overhead.
// Every run's end state is invariant-checked.
func CompareShards(threads, txPerThread int) []Result {
	var out []Result
	type leg struct {
		shards   int
		affinity bool
	}
	var legs []leg
	for _, n := range ShardCounts {
		legs = append(legs, leg{n, false})
		if n > 1 {
			legs = append(legs, leg{n, true})
		}
	}
	label := func(rtName, mix string, l leg) string {
		p := "static"
		if l.affinity {
			p = "affinity"
		}
		return fmt.Sprintf("%s/%s/s%d/%s", rtName, mix, l.shards, p)
	}
	for _, l := range legs {
		layout := locktable.NewLayout(stm.DefaultLockTableBits, l.shards)
		hotRun := func(rtName string, direct func() (tm.Addr, func(tm.Addr) uint64), run func(Workload) Result) {
			base, load := direct()
			hot := hotWordFor(base, layout)
			counters := base + tm.Addr(shardProbeWords)
			fillers := counters + tm.Addr(threads)
			w := shardSweepWorkload(label(rtName, "hot", l), hot, counters, fillers, threads, txPerThread)
			out = append(out, run(w))
			checkShardSweep(load, hot, counters, threads, txPerThread)
		}
		mixRun := func(rtName string, direct func() (tm.Addr, func(tm.Addr) uint64), run func(Workload) Result) {
			base, load := direct()
			w := readMostlyWorkload(label(rtName, "90-10", l), base, threads, txPerThread, 10)
			out = append(out, run(w))
			checkMVSweep(load, base)
		}
		{
			rt := stm.New(stm.WithShards(l.shards), stm.WithAffinity(l.affinity))
			hotRun("SwissTM",
				func() (tm.Addr, func(tm.Addr) uint64) {
					return rt.Direct().Alloc(shardSweepAlloc(threads)), rt.Direct().Load
				},
				func(w Workload) Result { return RunSTM(rt, w) })
			rt2 := stm.New(stm.WithShards(l.shards), stm.WithAffinity(l.affinity))
			mixRun("SwissTM",
				func() (tm.Addr, func(tm.Addr) uint64) {
					return rt2.Direct().Alloc(mvSweepWords), rt2.Direct().Load
				},
				func(w Workload) Result { return RunSTM(rt2, w) })
		}
		{
			rt := tl2.New(stm.DefaultLockTableBits, tl2.WithShards(l.shards), tl2.WithAffinity(l.affinity))
			hotRun("TL2",
				func() (tm.Addr, func(tm.Addr) uint64) {
					return rt.Direct().Alloc(shardSweepAlloc(threads)), rt.Direct().Load
				},
				func(w Workload) Result { return RunTL2(rt, w) })
			rt2 := tl2.New(stm.DefaultLockTableBits, tl2.WithShards(l.shards), tl2.WithAffinity(l.affinity))
			mixRun("TL2",
				func() (tm.Addr, func(tm.Addr) uint64) {
					return rt2.Direct().Alloc(mvSweepWords), rt2.Direct().Load
				},
				func(w Workload) Result { return RunTL2(rt2, w) })
		}
		{
			rt := wtstm.New(stm.DefaultLockTableBits, wtstm.WithShards(l.shards), wtstm.WithAffinity(l.affinity))
			hotRun("wtstm",
				func() (tm.Addr, func(tm.Addr) uint64) {
					return rt.Direct().Alloc(shardSweepAlloc(threads)), rt.Direct().Load
				},
				func(w Workload) Result { return RunWTSTM(rt, w) })
			rt2 := wtstm.New(stm.DefaultLockTableBits, wtstm.WithShards(l.shards), wtstm.WithAffinity(l.affinity))
			mixRun("wtstm",
				func() (tm.Addr, func(tm.Addr) uint64) {
					return rt2.Direct().Alloc(mvSweepWords), rt2.Direct().Load
				},
				func(w Workload) Result { return RunWTSTM(rt2, w) })
		}
		{
			rt := core.New(core.Config{SpecDepth: 1, Shards: l.shards, Affinity: l.affinity})
			hotRun("TLSTM",
				func() (tm.Addr, func(tm.Addr) uint64) {
					return rt.Direct().Alloc(shardSweepAlloc(threads)), rt.Direct().Load
				},
				func(w Workload) Result { return RunTLSTM(rt, w) })
			rt.Close()
			rt2 := core.New(core.Config{SpecDepth: 1, Shards: l.shards, Affinity: l.affinity})
			mixRun("TLSTM",
				func() (tm.Addr, func(tm.Addr) uint64) {
					return rt2.Direct().Alloc(mvSweepWords), rt2.Direct().Load
				},
				func(w Workload) Result { return RunTLSTM(rt2, w) })
			rt2.Close()
		}
	}
	return out
}

// Series is one plotted line: label plus (x, throughput) points.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Figure is a reproduced plot: titled series over a common x-axis.
type Figure struct {
	Title  string
	XLabel string
	YLabel string
	Series []Series
}

// CSV renders the figure as comma-separated values with a header row,
// for plotting (x, then one column per series).
func (f Figure) CSV() string {
	out := f.XLabel
	for _, s := range f.Series {
		out += "," + s.Name
	}
	out += "\n"
	if len(f.Series) == 0 {
		return out
	}
	for i := range f.Series[0].X {
		out += fmt.Sprintf("%g", f.Series[0].X[i])
		for _, s := range f.Series {
			if i < len(s.Y) {
				out += fmt.Sprintf(",%.6f", s.Y[i])
			} else {
				out += ","
			}
		}
		out += "\n"
	}
	return out
}

// Format renders the figure as an aligned text table (x down the rows,
// one column per series).
func (f Figure) Format() string {
	out := fmt.Sprintf("## %s\n%-12s", f.Title, f.XLabel)
	for _, s := range f.Series {
		out += fmt.Sprintf(" %14s", s.Name)
	}
	out += "\n"
	if len(f.Series) == 0 {
		return out
	}
	for i := range f.Series[0].X {
		out += fmt.Sprintf("%-12.4g", f.Series[0].X[i])
		for _, s := range f.Series {
			if i < len(s.Y) {
				out += fmt.Sprintf(" %14.3f", s.Y[i])
			} else {
				out += fmt.Sprintf(" %14s", "-")
			}
		}
		out += "\n"
	}
	return out
}
