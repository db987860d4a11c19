// Package harness drives the paper's four evaluation experiments
// (Figures 1a, 1b, 2a, 2b) and the strategy sweeps over the four
// runtimes (TLSTM, SwissTM, TL2 and the write-through STM) and reports
// throughput.
//
// Every runtime is built from one Config through the runtime table
// (SwissTM, TL2, WTSTM, TLSTM); every sweep is one entry of the Sweeps
// table — points × workload mixes × runtimes, each cell on a fresh
// runtime with its end state checked — and RegisterFlags gives both
// cmds the same knob and sweep flags.
//
// Hardware substitution (README, "Reproducing the paper's figures"):
// the paper measured wall-clock throughput on 64-hardware-thread
// machines; the harness was built on a single CPU, where speculative
// parallelism cannot shorten wall time, and its figures must not depend
// on the core count. The runtimes therefore count *work units* for
// every operation they actually execute — reads, writes, validation
// steps, commit publishes, including all aborted attempts — and the
// harness reports *virtual time*: per user-transaction, its tasks start
// together and task k finishes at max(own work, finish of k−1) plus a
// commit cost (commits are serialized per thread); threads run in
// parallel, so a run's virtual duration is the maximum per-thread
// virtual time. Conflicts and rollbacks lengthen virtual time exactly
// where they lengthen the paper's wall time. Wall-clock numbers are
// also recorded.
package harness

import (
	"fmt"
	"sync"
	"time"

	"tlstm/internal/clock"
	"tlstm/internal/cm"
	"tlstm/internal/core"
	"tlstm/internal/mem"
	"tlstm/internal/mode"
	"tlstm/internal/sched"
	"tlstm/internal/stm"
	"tlstm/internal/tl2"
	"tlstm/internal/tm"
	"tlstm/internal/txdriver"
	"tlstm/internal/txstats"
	"tlstm/internal/txtrace"
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

// describer is the self-description every runtime exposes; newResult
// copies it into a run's Result.
type describer interface {
	ClockName() string
	CMName() string
	MVDepth() int
	Shards() int
	PlacementName() string
}

// newResult starts the Result of a run of w on rt that began at start.
func newResult(w Workload, rt describer, start time.Time) Result {
	return Result{
		Label:     w.Name,
		Ops:       uint64(w.Threads * w.TxPerThread * w.OpsPerTx),
		Wall:      time.Since(start),
		Clock:     rt.ClockName(),
		CM:        rt.CMName(),
		MV:        rt.MVDepth(),
		Shards:    rt.Shards(),
		Placement: rt.PlacementName(),
	}
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

// runThreads drives w on one goroutine per thread, each owning the
// state newState made for it (a worker, thread or stats shard), and
// folds every thread's state into the run's Result once all have
// finished. atomic runs one transaction on a thread's state.
func runThreads[S any](w Workload, rt describer, newState func() S,
	atomic func(s S, seq TxSeq, readOnly bool), fold func(r *Result, s S)) Result {
	start := time.Now()
	states := make([]S, w.Threads)
	for th := range states {
		states[th] = newState()
	}
	var wg sync.WaitGroup
	for th, s := range states {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < w.TxPerThread; i++ {
				atomic(s, w.Make(th, i), w.declaredRO(th, i))
			}
		}()
	}
	wg.Wait()
	res := newResult(w, rt, start)
	for _, s := range states {
		fold(&res, s)
	}
	return res
}

// run executes the sequence's bodies in order as one flat transaction.
func (seq TxSeq) run(tx tm.Tx) {
	for _, body := range seq {
		body(tx)
	}
}

// RunSTM executes the workload over the SwissTM baseline: each TxSeq
// runs as one flat transaction. Every thread runs on its own
// stm.Worker, so statistics accumulate into unshared shards (merged
// into the runtime aggregate at worker exit) and the hot path reuses one
// pooled transaction descriptor per thread.
func RunSTM(rt *stm.Runtime, w Workload) Result {
	return runThreads(w, rt, rt.NewWorker,
		func(wk *stm.Worker, seq TxSeq, readOnly bool) {
			atomic := wk.Atomic
			if readOnly {
				atomic = wk.AtomicRO
			}
			atomic(func(tx *stm.Tx) { seq.run(tx) })
		},
		func(r *Result, wk *stm.Worker) {
			st := wk.Stats()
			r.fold(st.Commits, st.Aborts, st.Work, st.Counters)
			wk.Close() // merge the shard into the runtime aggregate
		})
}

// RunTL2 executes the workload on the TL2 baseline, one flat
// transaction per TxSeq.
func RunTL2(rt *tl2.Runtime, w Workload) Result {
	return runFlat(w, rt, rt.Atomic, rt.AtomicRO)
}

// RunWTSTM executes the workload on the write-through STM, one flat
// transaction per TxSeq.
func RunWTSTM(rt *wtstm.Runtime, w Workload) Result {
	return runFlat(w, rt, rt.Atomic, rt.AtomicRO)
}

// runFlat drives w on a runtime without thread descriptors (TL2,
// wtstm): each thread owns a txdriver.Stats, which is its thread
// context, and runs each TxSeq as one transaction through atomic, or
// atomicRO when the workload declares it read-only.
func runFlat[T tm.Tx](w Workload, rt describer, atomic, atomicRO func(*txdriver.Stats, func(T))) Result {
	return runThreads(w, rt, func() *txdriver.Stats { return new(txdriver.Stats) },
		func(st *txdriver.Stats, seq TxSeq, readOnly bool) {
			run := atomic
			if readOnly {
				run = atomicRO
			}
			run(st, func(tx T) { seq.run(tx) })
		},
		func(r *Result, st *txdriver.Stats) { r.fold(st.Commits, st.Aborts, st.Work, st.Counters) })
}

// RunTLSTM executes the workload over TLSTM: each TxSeq element becomes
// one speculative task. The runtime's SpecDepth must be at least the
// longest TxSeq.
func RunTLSTM(rt *core.Runtime, w Workload) Result {
	return runThreads(w, rt, rt.NewThread,
		func(thr *core.Thread, seq TxSeq, readOnly bool) {
			fns := make([]core.TaskFunc, len(seq))
			for j, body := range seq {
				fns[j] = func(tk *core.Task) { body(tk) }
			}
			atomic := thr.Atomic
			if readOnly {
				atomic = thr.AtomicRO
			}
			if err := atomic(fns...); err != nil {
				panic(fmt.Sprintf("harness: %v", err))
			}
		},
		func(r *Result, thr *core.Thread) {
			thr.Sync()
			st := thr.Stats()
			r.fold(st.TxCommitted, st.TxAborted, st.VirtualTime, st.Counters)
			r.TaskRestarts += st.TaskRestarts
			r.WorkersSpawned += st.WorkersSpawned
			r.DescriptorReuses += st.DescriptorReuses
		})
}

// Config is the configuration a figure point or sweep cell builds its
// runtime with. The zero value is every runtime's default.
type Config struct {
	// Clock is the commit-clock strategy; the zero value is GV4.
	Clock clock.Kind
	// CM is the contention-management policy; the zero value keeps each
	// runtime's own default (greedy for SwissTM, task-aware for TLSTM,
	// suicide for TL2 and wtstm).
	CM cm.Kind
	// Mode is the execution-mode ladder config; the zero value is
	// always-speculative.
	Mode mode.Config
	// MV is the retained version depth; 0 disables multi-versioning.
	MV int
	// Shards is the lock-table shard count; 0 or 1 keeps the flat table.
	Shards int
	// Affinity selects conflict-sketch thread placement instead of static
	// round-robin; it only matters with Shards > 1.
	Affinity bool
	// Trace, when non-nil, arms the flight recorder; rings are labeled
	// per runtime thread.
	Trace *txtrace.Recorder
	// SpecDepth (tasks per transaction) and Sched (spawn policy)
	// configure TLSTM's task scheduler; the flat runtimes ignore them.
	SpecDepth int
	Sched     sched.Policy
}

// flatOptions is c as the options of the three flat runtimes.
func (c Config) flatOptions() []txdriver.Option {
	return []txdriver.Option{txdriver.WithClock(clock.New(c.Clock)), txdriver.WithCM(cm.New(c.CM)),
		txdriver.WithMultiVersion(c.MV), txdriver.WithTrace(c.Trace),
		txdriver.WithShards(c.Shards), txdriver.WithAffinity(c.Affinity), txdriver.WithMode(c.Mode)}
}

// Instance is one runtime built from a Config: its non-transactional
// view, for setup and end-state checks, and its runner.
type Instance struct {
	Direct mem.Direct
	mode   string
	run    func(Workload) Result
	close  func()
}

// Run executes w and labels the result with the instance's mode policy.
func (in Instance) Run(w Workload) Result {
	r := in.run(w)
	r.Mode = in.mode
	return r
}

// Close drains the runtime's worker pools (a no-op for the flat
// runtimes).
func (in Instance) Close() {
	if in.close != nil {
		in.close()
	}
}

// Runtime is one entry of the runtime table.
type Runtime struct {
	Name  string
	build func(Config) Instance
}

// New builds the runtime under c.
func (r Runtime) New(c Config) Instance {
	in := r.build(c)
	in.mode = c.Mode.Policy.String()
	return in
}

// The runtime table: the only place the harness constructs a runtime.
var (
	SwissTM = Runtime{"SwissTM", func(c Config) Instance {
		rt := stm.New(c.flatOptions()...)
		return Instance{Direct: rt.Direct(), run: func(w Workload) Result { return RunSTM(rt, w) }}
	}}
	TL2 = Runtime{"TL2", func(c Config) Instance {
		rt := tl2.New(stm.DefaultLockTableBits, c.flatOptions()...)
		return Instance{Direct: rt.Direct(), run: func(w Workload) Result { return RunTL2(rt, w) }}
	}}
	WTSTM = Runtime{"wtstm", func(c Config) Instance {
		rt := wtstm.New(stm.DefaultLockTableBits, c.flatOptions()...)
		return Instance{Direct: rt.Direct(), run: func(w Workload) Result { return RunWTSTM(rt, w) }}
	}}
	TLSTM = Runtime{"TLSTM", func(c Config) Instance {
		rt := core.New(core.Config{SpecDepth: c.SpecDepth, Policy: c.Sched,
			Clock: clock.New(c.Clock), CM: cm.New(c.CM), MVDepth: c.MV, Trace: c.Trace,
			Shards: c.Shards, Affinity: c.Affinity, Mode: c.Mode})
		return Instance{Direct: rt.Direct(), run: func(w Workload) Result { return RunTLSTM(rt, w) }, close: rt.Close}
	}}
)

// Runtimes lists the runtime table in report order.
var Runtimes = []Runtime{SwissTM, TL2, WTSTM, TLSTM}

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

// Lookup returns the series named name (empty when the figure has none).
func (f Figure) Lookup(name string) Series {
	for _, s := range f.Series {
		if s.Name == name {
			return s
		}
	}
	return Series{}
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
