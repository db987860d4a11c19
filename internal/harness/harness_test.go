package harness

import (
	"fmt"
	"strings"
	"testing"

	"tlstm/internal/clock"
	"tlstm/internal/cm"
	"tlstm/internal/core"
	"tlstm/internal/mode"
	"tlstm/internal/sb7"
	"tlstm/internal/stm"
	"tlstm/internal/tl2"
	"tlstm/internal/tm"
	"tlstm/internal/wtstm"
)

// sweepNamed returns the Sweeps entry selected by flag.
func sweepNamed(t *testing.T, flag string) Sweep {
	t.Helper()
	for _, s := range Sweeps {
		if s.Flag == flag {
			return s
		}
	}
	t.Fatalf("no sweep with flag %q", flag)
	return Sweep{}
}

// Every Sweeps entry, at tiny size: one row per point × mix × runtime
// in that order, unique labels, every row committing all its
// transactions and carrying its point's axis values, so a new entry is
// covered without a test of its own.
func TestSweepsTable(t *testing.T) {
	const threads, txPerThread = 2, 20
	flags := map[string]bool{}
	for _, s := range Sweeps {
		t.Run(s.Flag, func(t *testing.T) {
			if flags[s.Flag] {
				t.Fatalf("duplicate sweep flag %q", s.Flag)
			}
			flags[s.Flag] = true
			rts := s.Runtimes
			if rts == nil {
				rts = Runtimes
			}
			rs := s.Run(threads, txPerThread)
			if want := len(s.Points) * len(s.Mixes) * len(rts); len(rs) != want {
				t.Fatalf("%d rows, want %d (%d points × %d mixes × %d runtimes)",
					len(rs), want, len(s.Points), len(s.Mixes), len(rts))
			}
			labels := map[string]bool{}
			i := 0
			for _, p := range s.Points {
				for range s.Mixes {
					for _, rt := range rts {
						r, c := rs[i], p.Config
						i++
						if labels[r.Label] {
							t.Fatalf("duplicate label %q", r.Label)
						}
						labels[r.Label] = true
						if !strings.HasPrefix(r.Label, rt.Name+"/") || !strings.HasSuffix(r.Label, "/"+p.Label) {
							t.Fatalf("label %q does not name runtime %q and point %q", r.Label, rt.Name, p.Label)
						}
						if r.TxCommitted != threads*txPerThread {
							t.Fatalf("%s committed %d, want %d", r.Label, r.TxCommitted, threads*txPerThread)
						}
						placement := "static"
						if c.Affinity {
							placement = "affinity"
						}
						if r.Clock != c.Clock.String() || (c.CM != cm.KindDefault && r.CM != c.CM.String()) ||
							r.Mode != c.Mode.Policy.String() || r.MV != c.MV ||
							r.Shards != max(c.Shards, 1) || r.Placement != placement {
							t.Fatalf("%s: row clock=%s cm=%s mode=%s mv=%d shards=%d place=%s does not carry its point's config %+v",
								r.Label, r.Clock, r.CM, r.Mode, r.MV, r.Shards, r.Placement, c)
						}
					}
				}
			}
		})
	}
}

func counterWorkload(name string, addr tm.Addr, threads, tasks, txs int) Workload {
	return Workload{
		Name:        name,
		Threads:     threads,
		TxPerThread: txs,
		OpsPerTx:    tasks,
		Make: func(thread, idx int) TxSeq {
			var seq TxSeq
			for i := 0; i < tasks; i++ {
				seq = append(seq, func(tx tm.Tx) {
					tx.Store(addr, tx.Load(addr)+1)
				})
			}
			return seq
		},
	}
}

func TestRunSTMExecutesAllTransactions(t *testing.T) {
	rt := stm.New()
	a := rt.Direct().Alloc(1)
	r := RunSTM(rt, counterWorkload("c", a, 3, 2, 10))
	if got := rt.Direct().Load(a); got != 3*2*10 {
		t.Fatalf("counter = %d, want %d", got, 3*2*10)
	}
	if r.TxCommitted != 30 {
		t.Fatalf("TxCommitted = %d, want 30", r.TxCommitted)
	}
	if r.VirtualUnits == 0 || r.Throughput() <= 0 {
		t.Fatal("virtual time not recorded")
	}
}

func TestRunTLSTMExecutesAllTransactions(t *testing.T) {
	rt := core.New(core.Config{SpecDepth: 2})
	a := rt.Direct().Alloc(1)
	r := RunTLSTM(rt, counterWorkload("c", a, 2, 2, 8))
	if got := rt.Direct().Load(a); got != 2*2*8 {
		t.Fatalf("counter = %d, want %d", got, 2*2*8)
	}
	if r.TxCommitted != 16 {
		t.Fatalf("TxCommitted = %d, want 16", r.TxCommitted)
	}
}

func TestRunTL2ExecutesAllTransactions(t *testing.T) {
	rt := tl2.New(16)
	a := rt.Direct().Alloc(1)
	r := RunTL2(rt, counterWorkload("c", a, 3, 2, 10))
	if got := rt.Direct().Load(a); got != 3*2*10 {
		t.Fatalf("counter = %d, want %d", got, 3*2*10)
	}
	if r.TxCommitted != 30 || r.VirtualUnits == 0 {
		t.Fatalf("bad result: %+v", r)
	}
	if r.Clock != "gv4" {
		t.Fatalf("Clock = %q, want gv4", r.Clock)
	}
}

func TestRunWTSTMExecutesAllTransactions(t *testing.T) {
	rt := wtstm.New(16)
	a := rt.Direct().Alloc(1)
	r := RunWTSTM(rt, counterWorkload("c", a, 3, 2, 10))
	if got := rt.Direct().Load(a); got != 3*2*10 {
		t.Fatalf("counter = %d, want %d", got, 3*2*10)
	}
	if r.TxCommitted != 30 || r.VirtualUnits == 0 {
		t.Fatalf("bad result: %+v", r)
	}
}

// The clock sweep must cover the full strategy × runtime matrix, commit
// everything (the sweep invariant-checks its own end state), and show
// the strategy trade-off in the stats: pre-publishing strategies
// produce snapshot extensions (or extra aborts on TL2, which cannot
// extend) where GV4 produces none of either on this disjoint-write
// workload.
func TestCompareClocksMatrix(t *testing.T) {
	rs := sweepNamed(t, "clocks").Run(2, 120)
	if want := len(clock.Kinds()) * 4; len(rs) != want {
		t.Fatalf("clock sweep returned %d results, want %d (%d strategies × 4 runtimes)", len(rs), want, len(clock.Kinds()))
	}
	labels := map[string]bool{}
	for _, r := range rs {
		if labels[r.Label] {
			t.Fatalf("duplicate label %q", r.Label)
		}
		labels[r.Label] = true
		if r.TxCommitted == 0 {
			t.Fatalf("%s committed nothing", r.Label)
		}
		if r.Clock == "" {
			t.Fatalf("%s has no clock label", r.Label)
		}
		if !strings.HasSuffix(r.Label, "/"+r.Clock) {
			t.Fatalf("label %q does not carry its clock %q", r.Label, r.Clock)
		}
	}
	// The deferred SwissTM run must pay in snapshot extensions; the GV4
	// runs must not retry any clock CAS (GV4 ticks are fetch-and-add).
	var deferredExt, gv4Retries uint64
	for _, r := range rs {
		if r.Clock == clock.KindDeferred.String() && strings.HasPrefix(r.Label, "SwissTM") {
			deferredExt += r.SnapshotExtensions
		}
		if r.Clock == clock.KindGV4.String() {
			gv4Retries += r.ClockCASRetries
		}
	}
	if deferredExt == 0 {
		t.Fatal("deferred SwissTM run shows no snapshot extensions: the strategy's cost is not being measured")
	}
	if gv4Retries != 0 {
		t.Fatalf("GV4 runs report %d clock CAS retries, want 0", gv4Retries)
	}
}

// The CM sweep must cover the full policy × runtime matrix, commit
// everything (the sweep invariant-checks its own end state), label each
// run with its policy, and actually exercise the contention managers:
// across the sweep, conflicts must have been resolved (decisions or
// backoff charged) — a sweep with zero CM activity would compare
// nothing.
func TestCompareCMMatrix(t *testing.T) {
	rs := sweepNamed(t, "cms").Run(2, 150)
	if want := len(cm.Kinds()) * 4; len(rs) != want {
		t.Fatalf("CM sweep returned %d results, want %d (%d policies × 4 runtimes)", len(rs), want, len(cm.Kinds()))
	}
	labels := map[string]bool{}
	var decisions, spins uint64
	for _, r := range rs {
		if labels[r.Label] {
			t.Fatalf("duplicate label %q", r.Label)
		}
		labels[r.Label] = true
		if r.TxCommitted == 0 {
			t.Fatalf("%s committed nothing", r.Label)
		}
		if r.CM == "" {
			t.Fatalf("%s has no policy label", r.Label)
		}
		if !strings.HasSuffix(r.Label, "/"+r.CM) {
			t.Fatalf("label %q does not carry its policy %q", r.Label, r.CM)
		}
		decisions += r.CMAbortsSelf + r.CMAbortsOwner
		spins += r.BackoffSpins
	}
	if decisions == 0 && spins == 0 {
		t.Fatal("sweep produced no contention-manager activity: the workload is not contended")
	}
}

// The mode sweep must cover the full policy × runtime matrix, commit
// everything (the sweep invariant-checks its own end state), label each
// run with its mode policy, and the adaptive rows must keep the ladder
// counters wired through: the per-policy Mode label is what the report
// keys on.
func TestCompareModesMatrix(t *testing.T) {
	rs := sweepNamed(t, "modes").Run(2, 150)
	if want := len(mode.Policies()) * 4; len(rs) != want {
		t.Fatalf("mode sweep returned %d results, want %d (%d policies × 4 runtimes)", len(rs), want, len(mode.Policies()))
	}
	labels := map[string]bool{}
	for _, r := range rs {
		if labels[r.Label] {
			t.Fatalf("duplicate label %q", r.Label)
		}
		labels[r.Label] = true
		if r.TxCommitted == 0 {
			t.Fatalf("%s committed nothing", r.Label)
		}
		if r.Mode == "" {
			t.Fatalf("%s has no mode label", r.Label)
		}
		if !strings.HasSuffix(r.Label, "/"+r.Mode) {
			t.Fatalf("label %q does not carry its mode %q", r.Label, r.Mode)
		}
	}
}

func TestChunkCoversRange(t *testing.T) {
	for n := 1; n <= 20; n++ {
		for k := 1; k <= 10; k++ {
			cs := chunk(n, k)
			covered := 0
			for _, c := range cs {
				covered += c[1] - c[0]
			}
			if covered != n || cs[0][0] != 0 || cs[len(cs)-1][1] != n {
				t.Fatalf("chunk(%d,%d) = %v does not cover", n, k, cs)
			}
		}
	}
}

// Virtual-time sanity: splitting read-only work into k tasks must beat
// the unsplit baseline, since the per-task critical path shrinks.
func TestVirtualTimeRewardsSplitting(t *testing.T) {
	mk := func(tasks int) Result {
		rt := core.New(core.Config{SpecDepth: tasks})
		b, err := sb7.Build(rt.Direct(), sb7.Default())
		if err != nil {
			t.Fatal(err)
		}
		return RunTLSTM(rt, sb7Workload(b, "x", 1, tasks, 3, 100))
	}
	r1 := mk(1)
	r3 := mk(3)
	if r3.Throughput() <= r1.Throughput() {
		t.Fatalf("3-task read traversal should beat 1-task: %.3f vs %.3f",
			r3.Throughput(), r1.Throughput())
	}
}

// Write traversals conflict intra-thread; the split must NOT show the
// read-side speedup (the paper's central negative result).
func TestWriteTraversalSplitDoesNotScale(t *testing.T) {
	mk := func(tasks int) Result {
		rt := core.New(core.Config{SpecDepth: tasks})
		b, err := sb7.Build(rt.Direct(), sb7.Default())
		if err != nil {
			t.Fatal(err)
		}
		return RunTLSTM(rt, sb7Workload(b, "x", 1, tasks, 3, 0))
	}
	r1 := mk(1)
	r3 := mk(3)
	readGain := func() float64 {
		rt := core.New(core.Config{SpecDepth: 3})
		b, _ := sb7.Build(rt.Direct(), sb7.Default())
		rr3 := RunTLSTM(rt, sb7Workload(b, "x", 1, 3, 3, 100))
		rt1 := core.New(core.Config{SpecDepth: 1})
		b1, _ := sb7.Build(rt1.Direct(), sb7.Default())
		rr1 := RunTLSTM(rt1, sb7Workload(b1, "x", 1, 1, 3, 100))
		return rr3.Throughput() / rr1.Throughput()
	}()
	writeGain := r3.Throughput() / r1.Throughput()
	if writeGain >= readGain {
		t.Fatalf("write split gain %.3f should trail read split gain %.3f", writeGain, readGain)
	}
}

func TestFigureFormat(t *testing.T) {
	f := Figure{
		Title:  "demo",
		XLabel: "x",
		Series: []Series{
			{Name: "a", X: []float64{1, 2}, Y: []float64{0.5, 1.5}},
			{Name: "b", X: []float64{1, 2}, Y: []float64{2.5, 3.5}},
		},
	}
	out := f.Format()
	if !strings.Contains(out, "demo") || !strings.Contains(out, "a") || !strings.Contains(out, "3.500") {
		t.Fatalf("format output missing pieces:\n%s", out)
	}
}

// Smoke-run every figure at tiny scale: they must produce full series
// with positive throughputs.
func TestFiguresSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("figures are slow")
	}
	sc := Scale{Fig1aTx: 10, Fig1bTx: 2, SB7Tx: 2}

	f1a := Fig1a(sc)
	if len(f1a.Series) != 2 || len(f1a.Series[0].Y) != len(Fig1aOpCounts) {
		t.Fatalf("Fig1a shape wrong: %+v", f1a)
	}
	for _, s := range f1a.Series {
		for i, y := range s.Y {
			if y <= 0 {
				t.Fatalf("Fig1a %s[%d] = %f", s.Name, i, y)
			}
		}
	}

	f2a := Fig2a(sc)
	if len(f2a.Series) != 3 || len(f2a.Series[0].Y) != len(Fig2aReadPcts) {
		t.Fatalf("Fig2a shape wrong")
	}
	for _, s := range f2a.Series {
		for _, y := range s.Y {
			if y <= 0 {
				t.Fatalf("Fig2a %s has non-positive point", s.Name)
			}
		}
	}
}

// The scheduler counters must flow from thread shards into Result and
// show steady-state pooling: workers bounded by threads×SpecDepth, and
// descriptor reuse dominating once warmed.
func TestResultSurfacesSchedulerCounters(t *testing.T) {
	rt := core.New(core.Config{SpecDepth: 3})
	defer rt.Close()
	b, err := sb7.Build(rt.Direct(), sb7.Default())
	if err != nil {
		t.Fatal(err)
	}
	r := RunTLSTM(rt, sb7Workload(b, "x", 2, 3, 5, 100))
	if r.WorkersSpawned == 0 || r.WorkersSpawned > 2*3 {
		t.Fatalf("WorkersSpawned = %d, want in (0, %d]", r.WorkersSpawned, 2*3)
	}
	if r.DescriptorReuses == 0 {
		t.Fatal("DescriptorReuses = 0 on a warmed run")
	}
	if s := r.String(); !strings.Contains(s, "workers=") || !strings.Contains(s, "descReuse=") {
		t.Fatalf("Result.String does not surface scheduler counters: %q", s)
	}
}

// The sched sweep runs the same workload under both spawn policies; both
// must commit everything, agree on virtual time (the policies charge
// identical work units), and only the Pooled run may spawn workers.
func TestCompareSchedPolicies(t *testing.T) {
	rs := sweepNamed(t, "scheds").Run(2, 200)
	if len(rs) != 2 {
		t.Fatalf("sched sweep returned %d results", len(rs))
	}
	pooled, inline := rs[0], rs[1]
	if pooled.TxCommitted != 400 || inline.TxCommitted != 400 {
		t.Fatalf("commits: pooled=%d inline=%d, want 400 each", pooled.TxCommitted, inline.TxCommitted)
	}
	if inline.WorkersSpawned != 0 {
		t.Fatalf("inline run spawned %d workers", inline.WorkersSpawned)
	}
	if pooled.WorkersSpawned == 0 {
		t.Fatal("pooled run spawned no workers")
	}
	if pooled.VirtualUnits != inline.VirtualUnits {
		t.Fatalf("virtual time must be policy-independent: pooled=%d inline=%d",
			pooled.VirtualUnits, inline.VirtualUnits)
	}
}

// The mv sweep must cover the depth × runtime × mix matrix, commit
// everything (every read-only scan asserts its snapshot's account
// total in-body, and each run's end state is invariant-checked), and
// actually engage the wait-free path: depth-0 runs report no mv reads,
// every positive depth reports some, and read-only transactions on the
// mv path land in the read-set histogram's zero bucket.
func TestCompareMVMatrix(t *testing.T) {
	rs := sweepNamed(t, "mvs").Run(2, 200)
	if want := 2 * 4 * 4; len(rs) != want {
		t.Fatalf("mv sweep returned %d results, want %d (2 mixes × 4 depths × 4 runtimes)", len(rs), want)
	}
	labels := map[string]bool{}
	var mvReadsOn uint64
	for _, r := range rs {
		if labels[r.Label] {
			t.Fatalf("duplicate label %q", r.Label)
		}
		labels[r.Label] = true
		if r.TxCommitted != 2*200 {
			t.Fatalf("%s committed %d, want 400", r.Label, r.TxCommitted)
		}
		if r.MV == 0 {
			if r.MVReads != 0 || r.MVMisses != 0 {
				t.Fatalf("%s: mv counters moved with multi-versioning off: %d/%d",
					r.Label, r.MVReads, r.MVMisses)
			}
			continue
		}
		mvReadsOn += r.MVReads
		if !strings.Contains(r.String(), "mv=") {
			t.Fatalf("%s: Result.String does not surface mv counters: %q", r.Label, r.String())
		}
		if r.ReadSetSizes[0] == 0 {
			t.Fatalf("%s: no read-only transaction landed in the empty-read-set bucket", r.Label)
		}
	}
	if mvReadsOn == 0 {
		t.Fatal("no run with multi-versioning on served a single wait-free read")
	}
}

// The shard sweep must cover the shard-count × placement × mix × runtime
// matrix, commit everything (each leg's end state is invariant-checked
// inside the sweep itself), and keep the flat degenerate case clean: at
// one shard every conflict is by definition in the only (home) shard,
// so N=1 rows must report zero cross-shard conflicts and zero remaps.
func TestCompareShardsMatrix(t *testing.T) {
	rs := sweepNamed(t, "shardss").Run(2, 120)
	legs := 0
	for _, n := range ShardCounts {
		legs++
		if n > 1 {
			legs++
		}
	}
	if want := legs * 2 * 4; len(rs) != want {
		t.Fatalf("shard sweep returned %d results, want %d (%d legs × 2 mixes × 4 runtimes)", len(rs), want, legs)
	}
	labels := map[string]bool{}
	for _, r := range rs {
		if labels[r.Label] {
			t.Fatalf("duplicate label %q", r.Label)
		}
		labels[r.Label] = true
		if r.TxCommitted != 2*120 {
			t.Fatalf("%s committed %d, want 240", r.Label, r.TxCommitted)
		}
		if !strings.Contains(r.Label, fmt.Sprintf("/s%d/", r.Shards)) ||
			!strings.HasSuffix(r.Label, "/"+r.Placement) {
			t.Fatalf("label %q does not carry shards=%d placement=%q", r.Label, r.Shards, r.Placement)
		}
		if r.Shards == 1 && (r.CrossShardConflicts != 0 || r.Remaps != 0) {
			t.Fatalf("%s: flat table reports cross-shard activity: xshard=%d remap=%d",
				r.Label, r.CrossShardConflicts, r.Remaps)
		}
	}
}

// On the hot-word mix every conflict lands in one shard, so the
// affinity placement must (a) actually migrate threads there and (b)
// cut the cross-shard conflict count against the static twin — the
// sweep's acceptance trend, asserted here on the SwissTM runtime at a
// size where each thread sees several remap windows.
func TestAffinityReducesCrossShardConflictsHotWord(t *testing.T) {
	const threads, txPerThread, shards = 6, 600, 4
	leg := func(affinity bool) Result {
		c := Config{Shards: shards, Affinity: affinity}
		rt := SwissTM.New(c)
		w, check := hotWordMix.Setup(rt.Direct, c, threads, txPerThread)
		w.Name, w.Threads, w.TxPerThread = "hot", threads, txPerThread
		r := rt.Run(w)
		check()
		return r
	}
	static := leg(false)
	aff := leg(true)
	if static.CrossShardConflicts == 0 {
		t.Fatal("static hot-word run reports no cross-shard conflicts; the mix is not contending")
	}
	if aff.Remaps == 0 {
		t.Fatal("affinity run never remapped a thread onto the hot shard")
	}
	if aff.CrossShardConflicts >= static.CrossShardConflicts {
		t.Fatalf("affinity did not reduce cross-shard conflicts: affinity=%d static=%d",
			aff.CrossShardConflicts, static.CrossShardConflicts)
	}
}
