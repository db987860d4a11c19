// Command tmbench is the repository's wall-clock benchmark. It drives one
// pre-generated transaction stream through the four runtimes — TLSTM
// (internal/core), SwissTM (internal/stm), TL2 (internal/tl2) and the
// write-through STM (internal/wtstm) — each in its default
// configuration at GOMAXPROCS = nproc, with closed-loop clients, and
// checks every result and end state.
//
// Usage, from the repository root:
//
//	bash tmbench/run.sh --workload rbtree-ro --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics: per runtime,
// committed user-transactions per second and the p50/p99 latency of an
// Atomic call, plus the set-up time. With --trace 1 it measures an
// untraced and a traced pass of half the time each and prints the
// per-layer metrics, derived from spans the benchmark records around its
// own calls into the runtimes and from the runtimes' public Stats. The
// last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"time"
)

// config is one benchmark run.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	small    bool   // reduced sizes, for the self-tests
	spans    string // where a traced run writes its spans; "" skips the dump
}

const (
	setupRuns = 3                      // set-ups per run; setup_s is their median
	sliceLen  = 200 * time.Millisecond // target length of one runtime's slice of a round
	warmLen   = 200 * time.Millisecond // warm-up per runtime
	instrLen  = 50 * time.Millisecond  // instrumentation-overhead step per runtime
)

type metric struct {
	name, unit string
	value      float64
}

// result is one run's output.
type result struct {
	stamp             string
	attempted, failed int
	problems          []string
	notes             []string // context for the metrics, such as sample counts
	metrics           []metric
}

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tmbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload: rbtree-ro, vacation-high or bank-small")
	fs.Uint64Var(&cfg.seed, "seed", 1, "input seed")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced pass")
	fs.StringVar(&cfg.spans, "spans", "", "file a traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if trace != 0 && trace != 1 || cfg.seconds <= 0 {
		fmt.Fprintln(stderr, "tmbench: --trace must be 0 or 1 and --seconds positive")
		return 2
	}
	cfg.trace = trace == 1
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "tmbench:", err)
		return 1
	}
	printResult(stdout, res)
	return 0
}

// run sets the workload up, measures it and verifies every runtime.
func run(cfg config) (*result, error) {
	w, err := findWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	res := &result{stamp: stamp(cfg)}

	b, setups := newBench(w, cfg.seed, cfg.small, setupRuns)
	defer b.close()
	runtime.GC()

	total := time.Duration(cfg.seconds * float64(time.Second))
	passLen := total
	if cfg.trace {
		passLen = total / 2
	}
	n := time.Duration(len(runtimeNames))
	rounds := max(1, int(passLen/(sliceLen*n)))
	b.warm(min(warmLen, passLen), passLen/(time.Duration(rounds)*n))

	plain := b.pass(passLen, rounds, false)
	if !cfg.trace {
		for k, name := range runtimeNames {
			p := plain[k]
			res.add(name+".tx_per_s", "1/s", median(p.rates))
			res.add(name+".p50_us", "us", median(p.p50))
			res.add(name+".p99_us", "us", median(p.p99))
		}
		res.add("setup_s", "s", median(setups))
	} else {
		traced := b.pass(passLen, rounds, true)
		b.measureInstr(min(instrLen, passLen))
		res.layerMetrics(b, plain, traced)
		if cfg.spans != "" {
			accs := make([]*traceAcc, len(traced))
			for i, p := range traced {
				accs[i] = p.tr
			}
			if err := writeSpans(cfg.spans, res.stamp, runtimeNames, accs); err != nil {
				return nil, err
			}
		}
	}
	res.attempted, res.failed, res.problems = b.verify()
	for k, name := range runtimeNames {
		res.notes = append(res.notes, fmt.Sprintf("%s: %d latency samples in %d rounds", name, plain[k].samples, rounds))
	}
	res.notes = append(res.notes, fmt.Sprintf("setup_s over %d set-ups: %.4f", setupRuns, setups))
	return res, nil
}

func (r *result) add(name, unit string, v float64) {
	r.metrics = append(r.metrics, metric{name, unit, v})
}

// layerMetrics derives the per-layer metrics from the traced pass, the
// runtimes' counters over it, and the untraced pass for the tracing
// overhead.
func (r *result) layerMetrics(b *bench, plain, traced []*passResult) {
	var overhead, dur, wall float64
	for k, name := range runtimeNames {
		t := traced[k]
		sums, c := t.tr.total(), t.ctr
		commits := float64(max(c[cCommits], 1))
		perTx := func(i int) float64 { return float64(c[i]) / commits }
		txs := float64(max(sums.txs, 1))
		overhead += (1 - median(t.rates)/median(plain[k].rates)) / float64(len(runtimeNames))
		dur += float64(sums.dur)
		wall += float64(t.tr.wall)

		if name == "tlstm" {
			r.add("sched.handoff_p50_us", "us", median(t.tr.handoffP50))
			r.add("sched.handoff_p99_us", "us", median(t.tr.handoffP99))
			r.add("sched.task_start_skew_us", "us", median(t.tr.skewP50))
			r.add("sched.workers_spawned", "count", float64(b.counters(k)[cWorkers]))
			r.add("core.commit_wait_p50_us", "us", median(t.tr.commitP50))
			r.add("core.reexec_per_task", "ratio", float64(sums.entries)/(txs*float64(b.w.parts)))
			r.add("core.restart_war_per_tx", "count/tx", perTx(cRestartWAR))
			r.add("core.restart_waw_per_tx", "count/tx", perTx(cRestartWAW))
			r.add("core.restart_extend_per_tx", "count/tx", perTx(cRestartExtend))
			r.add("core.restart_cm_per_tx", "count/tx", perTx(cRestartCM))
			r.add("core.tx_aborts_per_tx", "count/tx", perTx(cAborts))
			r.add("core.body_share", "ratio", float64(sums.union)/float64(max(sums.dur, 1)))
			r.add("core.vunits_per_tx", "units/tx", perTx(cVUnits))
		} else {
			r.add(name+".attempts_per_tx", "count/tx", perTx(cCommits)+perTx(cAborts))
			r.add(name+".commit_p50_us", "us", median(t.tr.commitP50))
		}
		r.add("txlog.read_set_mean."+name, "count/tx", float64(sums.loads)/txs)
		r.add("txlog.write_set_mean."+name, "count/tx", float64(sums.stores)/txs)
		r.add("txlog.ns_per_access."+name, "ns", float64(sums.attemptNs)/float64(max(sums.accesses, 1)))
		r.add("txlog.instr_overhead."+name, "ratio", b.sets[0][k].instr)
		r.add("clock.extensions_per_tx."+name, "count/tx", perTx(cExtensions))
		r.add("clock.cas_retries_per_tx."+name, "count/tx", perTx(cCASRetries))
		r.add("locktable.reclaims_per_tx."+name, "count/tx", perTx(cReclaims))
		r.add("locktable.horizon_stalls."+name, "count", float64(c[cHorizonStalls]))
		r.add("cm.self_aborts_per_tx."+name, "count/tx", perTx(cCMSelf))
		r.add("cm.owner_aborts_per_tx."+name, "count/tx", perTx(cCMOwner))
		r.add("cm.backoff_spins_per_tx."+name, "count/tx", perTx(cSpins))
		r.add("go.alloc_bytes_per_tx."+name, "B/tx", float64(t.allocBytes)/txs)
		r.add("go.gc_cycles."+name, "count", float64(t.gcCycles))
		r.add("trace.self_share."+name, "ratio", float64(sums.self)/float64(max(sums.dur, 1)))
	}
	r.add("trace.overhead", "ratio", overhead)
	r.add("trace.span_coverage", "ratio", dur/max(wall, 1))
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// stamp identifies what a run measured, so later runs compare like with
// like. The git revision comes from TMBENCH_GIT_SHA (run.sh sets it).
func stamp(cfg config) string {
	sha := os.Getenv("TMBENCH_GIT_SHA")
	if sha == "" {
		sha = "unknown"
	}
	return fmt.Sprintf("tmbench workload=%s seed=%d seconds=%g trace=%t nproc=%d gomaxprocs=%d go=%s git=%s",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), sha)
}

func printResult(out io.Writer, r *result) {
	fmt.Fprintln(out, "#", r.stamp)
	for _, p := range r.problems {
		fmt.Fprintln(out, "# FAILED", p)
	}
	for _, n := range r.notes {
		fmt.Fprintln(out, "#", n)
	}
	for _, m := range r.metrics {
		fmt.Fprintf(out, "%-40s %14.4f %s\n", m.name, m.value, m.unit)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(r.metrics))
	for _, m := range r.metrics {
		ms[m.name] = value{m.value, m.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, ms})
	if err != nil {
		panic(err) // every value is a finite float64
	}
	fmt.Fprintln(out, string(line))
}
