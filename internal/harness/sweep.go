package harness

import (
	"fmt"

	"tlstm/internal/clock"
	"tlstm/internal/cm"
	"tlstm/internal/locktable"
	"tlstm/internal/mem"
	"tlstm/internal/mode"
	"tlstm/internal/sched"
	"tlstm/internal/stm"
	"tlstm/internal/tm"
)

// Point is one setting of a sweep's axis: the label segment its rows
// end with and the Config their runtimes are built with.
type Point struct {
	Label  string
	Config Config
}

// Mix is one workload a sweep runs at every point. Setup lays the mix
// out in a fresh runtime's memory and returns its workload (Run fills in
// the label and sizes) and the end-state check to run after it, so every
// cell doubles as an atomicity test for its configuration.
type Mix struct {
	Name  string
	Setup func(d mem.Direct, c Config, threads, txPerThread int) (w Workload, check func())
}

// Sweep is one entry of the sweep table: a points × mixes × runtimes
// matrix, each cell run on a fresh runtime and end-state checked.
type Sweep struct {
	// Flag is the boolean flag that selects the sweep in both cmds.
	Flag  string
	Title string
	// About says what the sweep compares (the flag's usage text).
	About    string
	Points   []Point
	Mixes    []Mix
	Runtimes []Runtime // nil means the whole runtime table
	// Threads, Tx and QuickTx size tlstm-bench's run (-quick picks
	// QuickTx); tlstm-stress runs -threads threads and StressTx
	// transactions per thread per -seconds.
	Threads, Tx, QuickTx, StressTx int
}

// Run runs every cell of the sweep with threads × txPerThread
// transactions and returns one row per cell, labeled
// runtime[/mix]/point (the mix segment appears when the sweep has more
// than one mix). A cell whose end state is wrong panics.
func (s Sweep) Run(threads, txPerThread int) []Result {
	rts := s.Runtimes
	if rts == nil {
		rts = Runtimes
	}
	var out []Result
	for _, p := range s.Points {
		for _, m := range s.Mixes {
			for _, r := range rts {
				label := r.Name
				if len(s.Mixes) > 1 {
					label += "/" + m.Name
				}
				in := r.New(p.Config)
				w, check := m.Setup(in.Direct, p.Config, threads, txPerThread)
				w.Name, w.Threads, w.TxPerThread = label+"/"+p.Label, threads, txPerThread
				out = append(out, in.Run(w))
				check()
				in.Close()
			}
		}
	}
	return out
}

// points builds one Point per axis value, labeled with its name.
func points[K fmt.Stringer](ks []K, config func(K) Config) []Point {
	var ps []Point
	for _, k := range ks {
		ps = append(ps, Point{k.String(), config(k)})
	}
	return ps
}

// ShardCounts is the lock-table geometry the shard sweep covers.
var ShardCounts = []int{1, 2, 4, 8}

// shardPoints is every shard count with static placement, plus an
// affinity leg at every sharded count.
func shardPoints() []Point {
	var ps []Point
	for _, n := range ShardCounts {
		ps = append(ps, Point{fmt.Sprintf("s%d/static", n), Config{Shards: n, SpecDepth: 1}})
		if n > 1 {
			ps = append(ps, Point{fmt.Sprintf("s%d/affinity", n), Config{Shards: n, Affinity: true, SpecDepth: 1}})
		}
	}
	return ps
}

// Sweeps is the sweep table. Both cmds expose every entry as a flag.
var Sweeps = []Sweep{
	{
		// Snapshot extensions and clock CAS retries per strategy; the
		// write-heavy mix presses both sides of the trade-off at once.
		Flag: "clocks", Title: "Commit-clock strategy sweep",
		About: "every commit-clock strategy × all four runtimes on a write-heavy mix",
		Points: points(clock.Kinds(), func(k clock.Kind) Config {
			return Config{Clock: k, SpecDepth: 1}
		}),
		Mixes:   []Mix{writeHeavyMix},
		Threads: 4, Tx: 50_000, QuickTx: 5_000, StressTx: 10_000,
	},
	{
		// Each policy's decision counters: conflicts resolved against the
		// requester and against the owner, backoff yields charged.
		Flag: "cms", Title: "Contention-management policy sweep",
		About: "every contention-management policy × all four runtimes on the hot-word storm",
		Points: points(cm.Kinds(), func(k cm.Kind) Config {
			return Config{CM: k, SpecDepth: 1}
		}),
		Mixes:   []Mix{hotWordMix},
		Threads: 4, Tx: 20_000, QuickTx: 2_000, StressTx: 5_000,
	},
	{
		// The storm under karma is the workload the serialized rung
		// exists for: the rows measure what fallback buys (the ladder's
		// fallback/recovery counters) and what the serial rung costs.
		Flag: "modes", Title: "Execution-mode policy sweep",
		About: "every execution-mode policy × all four runtimes on the hot-word storm under karma",
		Points: points(mode.Policies(), func(p mode.Policy) Config {
			return Config{CM: cm.KindKarma, Mode: mode.Config{Policy: p}, SpecDepth: 1}
		}),
		Mixes:   []Mix{hotWordMix},
		Threads: 4, Tx: 20_000, QuickTx: 2_000, StressTx: 5_000,
	},
	{
		// Retained version depth K = 0 (off: every scan validates and
		// extends) through 3: wait-free reads and fallback misses per depth.
		Flag: "mvs", Title: "Multi-version depth sweep",
		About: "retained version depths K=0..3 × all four runtimes on 90/10 and 99/1 read-mostly mixes",
		Points: func() []Point {
			var ps []Point
			for k := 0; k <= 3; k++ {
				ps = append(ps, Point{fmt.Sprintf("mv%d", k), Config{MV: k, SpecDepth: 2}})
			}
			return ps
		}(),
		Mixes:   []Mix{readMostlyMix("90-10", 10), readMostlyMix("99-1", 100)},
		Threads: 4, Tx: 10_000, QuickTx: 1_000, StressTx: 5_000,
	},
	{
		// On the hot-word mix the affinity legs at N >= 2 should show
		// remaps and fewer cross-shard conflicts than their static twins;
		// the diffuse 90/10 mix's affinity legs should not remap; N = 1
		// is the flat layout that bounds the sharding overhead.
		Flag: "shardss", Title: "Lock-table shard sweep",
		About:   "lock-table shard counts N=1,2,4,8 (plus an affinity leg at each N>1) × all four runtimes on hot-word and 90/10 mixes",
		Points:  shardPoints(),
		Mixes:   []Mix{hotWordMix, readMostlyMix("90-10", 10)},
		Threads: 4, Tx: 5_000, QuickTx: 500, StressTx: 2_000,
	},
	{
		// Virtual time is policy-independent by construction; the
		// interesting column is wall time, the per-task cost of the worker
		// wake/park protocol against running on the submitting goroutine.
		Flag: "scheds", Title: "Scheduling-policy sweep",
		About: "TLSTM's pooled and inline spawn policies at SpecDepth 1 on per-thread counters",
		Points: points([]sched.Policy{sched.Pooled, sched.Inline}, func(p sched.Policy) Config {
			return Config{Sched: p, SpecDepth: 1}
		}),
		Mixes:    []Mix{privateCounterMix},
		Runtimes: []Runtime{TLSTM},
		Threads:  2, Tx: 200_000, QuickTx: 20_000, StressTx: 20_000,
	},
}

// checkCounters verifies a counter mix's end state: the hot word (when
// not tm.NilAddr) holds hotWant and each thread's private counter at
// counters+thread holds its transaction count.
func checkCounters(load func(tm.Addr) uint64, hot tm.Addr, hotWant uint64, counters tm.Addr, threads, txPerThread int) {
	if hot != tm.NilAddr {
		if got := load(hot); got != hotWant {
			panic(fmt.Sprintf("harness: hot counter = %d, want %d (atomicity violated)", got, hotWant))
		}
	}
	for th := 0; th < threads; th++ {
		if got := load(counters + tm.Addr(th)); got != uint64(txPerThread) {
			panic(fmt.Sprintf("harness: thread %d counter = %d, want %d (atomicity violated)", th, got, txPerThread))
		}
	}
}

// writeHeavyMix is the clock sweep's workload: every transaction reads
// a shared hot word and increments the thread's private counter; every
// fourth also increments the hot word. The private writes make every
// transaction a committer (commit-clock pressure); the shared reads
// keep each thread meeting other threads' fresh stamps
// (snapshot-extension pressure).
var writeHeavyMix = Mix{Name: "write-heavy", Setup: func(d mem.Direct, _ Config, threads, txPerThread int) (Workload, func()) {
	hot := d.Alloc(threads + 1)
	w := Workload{
		OpsPerTx: 2,
		Make: func(thread, idx int) TxSeq {
			mine := hot + 1 + tm.Addr(thread)
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
	return w, func() {
		checkCounters(d.Load, hot, uint64(threads*((txPerThread+3)/4)), hot+1, threads, txPerThread)
	}
}}

// stormFill is the number of private filler reads each hot-word storm
// transaction performs while holding the hot word's write lock. The
// filler pushes every transaction past the runtimes' yield quantum so
// transactions genuinely overlap even on one CPU — and because eager
// runtimes take the hot lock before the filler, the lock is held across
// a scheduler slice and every other thread's increment runs into it:
// the sustained write/write conflict contention managers, the mode
// ladder and affinity placement exist to handle.
const stormFill = 48

// shardProbeWords sizes the region scanned for a hot word that maps to
// shard 0. The Fibonacci index spreads any address range about evenly
// across shards, so a few hundred candidates always contain one.
const shardProbeWords = 512

// hotWordFor returns the first address in [base, base+shardProbeWords)
// the layout maps to shard 0, so the storm's contention concentrates in
// one known shard regardless of the shard count.
func hotWordFor(base tm.Addr, layout locktable.Layout) tm.Addr {
	for off := 0; off < shardProbeWords; off++ {
		if layout.ShardOf(base+tm.Addr(off)) == 0 {
			return base + tm.Addr(off)
		}
	}
	return base
}

// hotWordMix is the hot-word storm: every transaction increments one
// shared hot word (taking its write lock first), reads its thread's
// filler region while holding it, and increments the thread's private
// counter (so every transaction is a committer). The hot word lives in
// shard 0, so under static round-robin placement every thread homed
// elsewhere counts each conflict as cross-shard, and the affinity policy
// should migrate every thread's home onto the hot shard.
var hotWordMix = Mix{Name: "hot", Setup: func(d mem.Direct, c Config, threads, txPerThread int) (Workload, func()) {
	base := d.Alloc(shardProbeWords + threads + threads*stormFill)
	hot := hotWordFor(base, locktable.NewLayout(stm.DefaultLockTableBits, c.Shards))
	counters := base + shardProbeWords
	fillers := counters + tm.Addr(threads)
	w := Workload{
		OpsPerTx: 2,
		Make: func(thread, idx int) TxSeq {
			mine := counters + tm.Addr(thread)
			fill := fillers + tm.Addr(thread*stormFill)
			return TxSeq{func(tx tm.Tx) {
				tx.Store(hot, tx.Load(hot)+1)
				var sink uint64
				for j := 0; j < stormFill; j++ {
					sink += tx.Load(fill + tm.Addr(j))
				}
				tx.Store(mine, tx.Load(mine)+1+sink)
			}}
		},
	}
	return w, func() {
		checkCounters(d.Load, hot, uint64(threads*txPerThread), counters, threads, txPerThread)
	}
}}

// privateCounterMix is the scheduling sweep's workload: every
// transaction increments its thread's private counter, so no two
// threads conflict and only the task hand-off differs between policies.
var privateCounterMix = Mix{Name: "private", Setup: func(d mem.Direct, _ Config, threads, txPerThread int) (Workload, func()) {
	base := d.Alloc(threads)
	w := Workload{
		OpsPerTx: 1,
		Make: func(thread, idx int) TxSeq {
			a := base + tm.Addr(thread)
			return TxSeq{func(tx tm.Tx) { tx.Store(a, tx.Load(a)+1) }}
		},
	}
	return w, func() { checkCounters(d.Load, tm.NilAddr, 0, base, threads, txPerThread) }
}}

// mvSweepWords is the number of shared accounts the read-mostly mix
// scans: large enough that a read-only transaction's validated read set
// is worth eliding, small enough that writers keep every account warm.
const mvSweepWords = 32

// mvScanPasses is how many times a read-only scan traverses the
// accounts. The scan must outlast the yield quantum (see the runtimes'
// forced-interleaving grain) so writers commit mid-scan: that is what
// makes the validated path pay for extensions, revalidations and
// (TL2) aborts that the wait-free path never performs.
const mvScanPasses = 4

// readMostlyMix is the read-mostly account mix: one transaction in
// writerEvery is a writer that transfers one unit between two accounts
// (total preserved), the rest are declared read-only scans summing every
// account. Because transfers conserve the (wrapping) total, any
// consistent snapshot sums to zero — each scan asserts it, so every
// multi-version read is checked against tearing and too-new values, and
// the end-state check asserts it once more.
func readMostlyMix(name string, writerEvery int) Mix {
	return Mix{Name: name, Setup: func(d mem.Direct, _ Config, _, _ int) (Workload, func()) {
		base := d.Alloc(mvSweepWords)
		w := Workload{
			OpsPerTx: 1,
			Make: func(thread, idx int) TxSeq {
				if idx%writerEvery == 0 {
					src := base + tm.Addr((thread*7+idx)%mvSweepWords)
					dst := base + tm.Addr((thread*7+idx+1+idx%(mvSweepWords-1))%mvSweepWords)
					return TxSeq{func(tx tm.Tx) {
						tx.Store(src, tx.Load(src)-1)
						tx.Store(dst, tx.Load(dst)+1)
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
						panic(fmt.Sprintf("harness: read-only scan saw inconsistent snapshot (sum=%d, want 0)", sum))
					}
				}}
			},
			ReadOnly: func(thread, idx int) bool { return idx%writerEvery != 0 },
		}
		return w, func() {
			var sum uint64
			for j := 0; j < mvSweepWords; j++ {
				sum += d.Load(base + tm.Addr(j))
			}
			if sum != 0 {
				panic(fmt.Sprintf("harness: account total = %d, want 0 (atomicity violated)", sum))
			}
		}
	}}
}
