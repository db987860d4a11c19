// Command tlstm-bench regenerates the paper's evaluation figures
// (Middleware'12, Figures 1a, 1b, 2a, 2b) and the headline comparison
// numbers, printing each as an aligned text table.
//
// Usage:
//
//	tlstm-bench                 # all figures at default scale
//	tlstm-bench -fig 2a         # one figure
//	tlstm-bench -quick          # reduced transaction counts
//	tlstm-bench -headline       # §4 headline numbers (from Fig2b data)
//	tlstm-bench -clock deferred # figures under the GV5-style clock
//	tlstm-bench -cm karma       # figures under the Karma contention manager
//	tlstm-bench -mode adaptive  # figures under the adaptive execution-mode ladder
//	tlstm-bench -mv 2           # figures with 2 retained versions per word
//	tlstm-bench -shards 4 -affinity  # figures on a 4-shard lock table with conflict-sketch placement
//	tlstm-bench -clocks         # a sweep: one flag per harness.Sweeps entry
//	tlstm-bench -mvs -json out.json  # ... also persisted as JSON (any sweep)
//
// The sweep flags are -clocks, -cms, -modes, -mvs, -shardss and -scheds
// (see harness.Sweeps); tlstm-stress exposes the same set.
package main

import (
	"flag"
	"fmt"
	"os"

	"tlstm/internal/harness"
	"tlstm/internal/txtrace"
)

func main() {
	os.Exit(run(flag.CommandLine, os.Args[1:]))
}

func run(fs *flag.FlagSet, args []string) int {
	fig := fs.String("fig", "all", `figure to regenerate: "1a", "1b", "2a", "2b" or "all"`)
	quick := fs.Bool("quick", false, "use reduced transaction counts")
	headline := fs.Bool("headline", false, "print the paper's §4 headline ratios (computed from Figure 2b)")
	check := fs.Bool("check", false, "regenerate all figures and verify the paper's qualitative claims; exit non-zero on violation")
	format := fs.String("format", "table", `output format: "table" or "csv"`)
	traceFile := fs.String("trace", "", "arm the flight recorder in every runtime the figures build and write the binary trace dump (TXTRACE1) here on exit; inspect with tlstm-trace")
	flags := harness.RegisterFlags(fs, "figure/headline runs")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	// Fail fast on malformed flags instead of clamping or misbehaving
	// several minutes into a figure run.
	cfg, sweep, err := flags.Parse()
	if err == nil && *format != "table" && *format != "csv" {
		err = fmt.Errorf("-format %q: want \"table\" or \"csv\"", *format)
	}
	if err == nil && *fig != "all" && figures[*fig] == nil {
		err = fmt.Errorf("unknown figure %q", *fig)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "tlstm-bench: %v\n", err)
		return 2
	}

	if sweep != nil {
		txs := sweep.Tx
		if *quick {
			txs = sweep.QuickTx
		}
		if err := flags.RunSweep(sweep, sweep.Threads, txs); err != nil {
			fmt.Fprintf(os.Stderr, "tlstm-bench: %v\n", err)
			return 1
		}
		return 0
	}

	sc := harness.DefaultScale()
	if *quick {
		sc = harness.QuickScale()
	}
	sc.Config = cfg
	if *traceFile != "" {
		sc.Trace = txtrace.NewRecorder(0)
		defer func() {
			// Figure runs join every worker/thread before returning, so
			// all ring owners are quiesced by the time we get here.
			f, err := os.Create(*traceFile)
			if err == nil {
				err = sc.Trace.Dump(f)
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "tlstm-bench: -trace: %v\n", err)
				return
			}
			fmt.Printf("trace: %d rings, %d events, %d dropped -> %s\n",
				len(sc.Trace.Rings()), sc.Trace.Events(), sc.Trace.Drops(), *traceFile)
		}()
	}
	if *headline {
		printHeadline(sc)
		return 0
	}
	if *check {
		return runCheck(sc)
	}
	for _, name := range figureOrder {
		if *fig != "all" && *fig != name {
			continue
		}
		f := figures[name].run(sc)
		if *format == "csv" {
			fmt.Println(f.CSV())
		} else {
			fmt.Println(f.Format())
		}
	}
	return 0
}

// figures maps each -fig name to its generator and shape check, run in
// figureOrder.
var figures = map[string]*struct {
	run   func(harness.Scale) harness.Figure
	check func(harness.Figure) []string
}{
	"1a": {harness.Fig1a, harness.CheckFig1a},
	"1b": {harness.Fig1b, harness.CheckFig1b},
	"2a": {harness.Fig2a, harness.CheckFig2a},
	"2b": {harness.Fig2b, harness.CheckFig2b},
}

var figureOrder = []string{"1a", "1b", "2a", "2b"}

// runCheck regenerates every figure and verifies the paper's
// qualitative claims (harness.CheckFig*).
func runCheck(sc harness.Scale) int {
	violations := 0
	for _, name := range figureOrder {
		j := figures[name]
		bad := j.check(j.run(sc))
		if len(bad) == 0 {
			fmt.Printf("figure %s: all shape claims hold\n", name)
			continue
		}
		violations += len(bad)
		for _, msg := range bad {
			fmt.Printf("figure %s: VIOLATION: %s\n", name, msg)
		}
	}
	if violations > 0 {
		fmt.Printf("%d violations\n", violations)
		return 1
	}
	fmt.Println("all figures reproduce the paper's shapes")
	return 0
}

// printHeadline derives the §4 claims from the Figure 2b series:
// TLSTM-1-3 vs SwissTM-1 (paper: ≈ +80%) and TLSTM-2-3 vs SwissTM-2
// (paper: ≈ +48%) on the read-dominated workload, plus the
// write-dominated inversion.
func printHeadline(sc harness.Scale) {
	f := harness.Fig2b(sc)
	get := func(name string, wi int) float64 {
		if y := f.Lookup(name).Y; wi < len(y) {
			return y[wi]
		}
		return 0
	}
	const readIdx, writeIdx = 2, 0 // Fig2bWorkloads order: write, read-write, read
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return (a/b - 1) * 100
	}
	fmt.Println("## §4 headline numbers (paper → measured)")
	fmt.Printf("read-dominated, 1 thread:  TLSTM-1-3 vs SwissTM-1: paper ≈ +80%%, measured %+.1f%%\n",
		ratio(get("TLSTM-1-3", readIdx), get("SwissTM-1", readIdx)))
	fmt.Printf("read-dominated, 2 threads: TLSTM-2-3 vs SwissTM-2: paper ≈ +48%%, measured %+.1f%%\n",
		ratio(get("TLSTM-2-3", readIdx), get("SwissTM-2", readIdx)))
	fmt.Printf("write-dominated, 1 thread: TLSTM-1-3 vs SwissTM-1: paper: negative, measured %+.1f%%\n",
		ratio(get("TLSTM-1-3", writeIdx), get("SwissTM-1", writeIdx)))
	fmt.Printf("9 tasks, 1 thread read:    TLSTM-1-9 vs TLSTM-1-3: paper: positive, measured %+.1f%%\n",
		ratio(get("TLSTM-1-9", readIdx), get("TLSTM-1-3", readIdx)))
	fmt.Printf("9 tasks, 2 threads read:   TLSTM-2-9 vs TLSTM-2-3: paper: negative, measured %+.1f%%\n",
		ratio(get("TLSTM-2-9", readIdx), get("TLSTM-2-3", readIdx)))
}
