// Command tlstm-stress hammers the TLSTM runtime with adversarial
// concurrent workloads and checks its two fundamental guarantees:
//
//   - TLS sequential semantics: each user-thread's random program,
//     decomposed into random speculative tasks, leaves memory exactly
//     as its sequential execution would;
//   - transactional atomicity across threads: concurrent random
//     transfers over a shared account array preserve the global total.
//
// It is meant for long soak runs: tlstm-stress -seconds 60 -threads 4.
// The soak runtime takes the knobs shared with tlstm-bench (-clock, -cm,
// -mode, -mv, -shards, -affinity) plus -sched, -reclaim/-audit (forced
// entry reclamation and its invariant audit) and -romix (declared
// read-only full-array scans, each asserting the exact preserved total
// at its snapshot). -trace dumps the flight recorder and -check runs the
// offline opacity checker on it.
//
// A sweep flag (one per harness.Sweeps entry: -clocks, -cms, -modes,
// -mvs, -shardss, -scheds) replaces the soak with that invariant-checked
// sweep at -threads threads; -seconds scales its transaction count and
// -json also writes its rows as JSON.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"tlstm/internal/clock"
	"tlstm/internal/cm"
	"tlstm/internal/core"
	"tlstm/internal/harness"
	"tlstm/internal/sched"
	"tlstm/internal/tm"
	"tlstm/internal/txcheck"
	"tlstm/internal/txmetrics"
	"tlstm/internal/txtrace"
	"tlstm/internal/xrand"
)

func main() {
	os.Exit(run(flag.CommandLine, os.Args[1:]))
}

type rng struct{ s uint64 }

func (r *rng) next() uint64 { return xrand.Splitmix(&r.s) }

func run(fs *flag.FlagSet, args []string) int {
	seconds := fs.Int("seconds", 10, "soak duration (with a sweep flag: scales the sweep's transaction count)")
	threads := fs.Int("threads", 3, "user-threads")
	depth := fs.Int("depth", 3, "SPECDEPTH / tasks per transaction")
	accounts := fs.Int("accounts", 64, "shared accounts")
	schedMode := fs.String("sched", "pooled", `scheduling policy: "pooled" or "inline" (inline requires -depth 1)`)
	reclaimRing := fs.Int("reclaim", 0, "cap each descriptor's quiescence ring of retired write-lock entries (0 = unbounded; 1 = aggressive, recycling exercised on almost every commit)")
	reclaimAudit := fs.Bool("audit", false, "enable the entry-reclamation invariant checker: every recycle re-verifies the quiescence horizon against all live task attempts (panics on violation)")
	roMix := fs.Int("romix", 0, "percent of soak transactions that are declared read-only scans: each task sums every account at the transaction's snapshot and requires the exact preserved total")
	traceFile := fs.String("trace", "", "arm the flight recorder and write the binary trace dump (TXTRACE2) to this file when the soak ends; inspect with tlstm-trace")
	check := fs.Bool("check", false, "arm the flight recorder (even without -trace) and run the offline opacity checker (internal/txcheck) on the recorded trace at soak exit; fails the run on any violation")
	metricsAddr := fs.String("metrics", "", "serve live metrics over HTTP on this address (/debug/vars, /debug/pprof) and print one-line stat deltas every 2s; threads sync their stats shards periodically so the feed is live")
	flags := harness.RegisterFlags(fs, "the soak runtime")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	// Fail fast on malformed flags: every one of these used to be
	// swallowed (clamped, ignored, deferred to a panic mid-soak, or a
	// vacuous pass over zero transactions), so a typo cost a full soak
	// run — or a green one — before anyone noticed.
	cfg, sweep, err := flags.Parse()
	policy := sched.Pooled
	switch {
	case err != nil:
	case *seconds < 1:
		err = fmt.Errorf("-seconds %d: must be at least 1", *seconds)
	case *threads < 1:
		err = fmt.Errorf("-threads %d: must be at least 1", *threads)
	case *depth < 1:
		err = fmt.Errorf("-depth %d: must be at least 1", *depth)
	case *accounts < 1:
		err = fmt.Errorf("-accounts %d: must be at least 1", *accounts)
	case *roMix < 0 || *roMix > 100:
		err = fmt.Errorf("-romix %d: must be a percentage in 0..100", *roMix)
	case *reclaimRing < 0:
		err = fmt.Errorf("-reclaim %d: ring cap cannot be negative", *reclaimRing)
	case *schedMode == sched.Inline.String():
		policy = sched.Inline
		if *depth != 1 {
			err = fmt.Errorf("-sched inline requires -depth 1, got %d (an intermediate task would deadlock its submitter)", *depth)
		}
	case *schedMode != sched.Pooled.String():
		err = fmt.Errorf("-sched %q: want \"pooled\" or \"inline\"", *schedMode)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "tlstm-stress: %v\n", err)
		return 2
	}

	if sweep != nil {
		if err := flags.RunSweep(sweep, *threads, sweep.StressTx**seconds); err != nil {
			fmt.Fprintf(os.Stderr, "tlstm-stress: %v\n", err)
			return 1
		}
		return 0
	}

	var rec *txtrace.Recorder
	var traceOut *os.File
	if *traceFile != "" || *check {
		rec = txtrace.NewRecorder(0)
	}
	if *traceFile != "" {
		// Create the dump file before the soak: an unwritable -trace path
		// fails here in a millisecond instead of after the whole run.
		traceOut, err = os.Create(*traceFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tlstm-stress: -trace: %v\n", err)
			return 2
		}
	}
	rt := core.New(core.Config{
		SpecDepth: *depth, Policy: policy, Clock: clock.New(cfg.Clock), CM: cm.New(cfg.CM),
		ReclaimRing: *reclaimRing, ReclaimAudit: *reclaimAudit, MVDepth: cfg.MV,
		Shards: cfg.Shards, Affinity: cfg.Affinity,
		Mode:  cfg.Mode,
		Trace: rec,
	})
	defer rt.Close()

	// checkReport holds the opacity checker's verdicts once -check has
	// run at soak exit; the txcheck metrics source below reads it, so
	// the counters appear on /debug/vars scrapes taken after the check.
	var checkReport atomic.Pointer[txcheck.Report]

	// syncEvery > 0 makes each soak thread merge its stats shard into
	// the runtime aggregate every N transactions, so the live metrics
	// feed moves during the run instead of only at the end. A Sync after
	// a completed Atomic is nearly free (the thread is quiescent).
	syncEvery := 0
	stopMetrics := make(chan struct{})
	if *metricsAddr != "" {
		syncEvery = 512
		pub := txmetrics.New()
		pub.AddSource("tlstm", func() txmetrics.Snapshot {
			st := rt.Stats()
			snap := txmetrics.FromCounters(st.Counters)
			snap.Counters["committed"] = st.TxCommitted
			snap.Counters["txAborts"] = st.TxAborted
			snap.Counters["taskRestarts"] = st.TaskRestarts
			return snap
		})
		if rec != nil {
			pub.SetTrace(rec)
		}
		if *check {
			pub.AddSource("txcheck", func() txmetrics.Snapshot {
				rep := checkReport.Load()
				if rep == nil {
					return txmetrics.Snapshot{}
				}
				return txmetrics.Snapshot{Counters: rep.Counters()}
			})
			pub.Publish("txcheck")
		}
		pub.Publish("tlstm")
		bound, err := txmetrics.Serve(*metricsAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tlstm-stress: -metrics: %v\n", err)
			return 2
		}
		fmt.Printf("metrics: serving http://%s/debug/vars (pprof at /debug/pprof)\n", bound)
		go func() {
			tick := time.NewTicker(2 * time.Second)
			defer tick.Stop()
			for {
				select {
				case <-stopMetrics:
					return
				case <-tick.C:
					if line := pub.DeltaLine(); line != "" {
						fmt.Printf("metrics: %s\n", line)
					}
				}
			}
		}()
	}
	d := rt.Direct()
	const initial = 1_000_000
	base := d.Alloc(*accounts)
	for i := 0; i < *accounts; i++ {
		d.Store(base+tm.Addr(i), initial)
	}

	deadline := time.Now().Add(time.Duration(*seconds) * time.Second)
	done := make(chan core.Stats, *threads)

	for w := 0; w < *threads; w++ {
		thr := rt.NewThread()
		go func(seed uint64) {
			r := &rng{s: seed}
			nAcct := *accounts
			want := uint64(nAcct) * initial
			// scan is one read-only task: sum every account at the
			// transaction's snapshot. Transfers preserve the total, so
			// ANY consistent snapshot — wait-free multi-version or
			// validated — must see it exactly; a stale, torn or too-new
			// multi-version read almost surely breaks the sum. The panic
			// is safe under speculation: an inconsistent validated
			// attempt is sandbox-restarted, and the wait-free path reads
			// one frozen snapshot, so its sums can only fail for real
			// bugs.
			scan := func(tk *core.Task) {
				var sum uint64
				for i := 0; i < nAcct; i++ {
					sum += tk.Load(base + tm.Addr(i))
				}
				if sum != want {
					panic(fmt.Sprintf("tlstm-stress: read-only scan saw total=%d want=%d", sum, want))
				}
			}
			txSinceSync := 0
			for time.Now().Before(deadline) {
				if syncEvery > 0 {
					if txSinceSync++; txSinceSync >= syncEvery {
						thr.Sync() // publish this shard to the live metrics feed
						txSinceSync = 0
					}
				}
				if *roMix > 0 && r.next()%100 < uint64(*roMix) {
					// Every task of the declared read-only transaction
					// scans independently; with SPECDEPTH > 1 this also
					// exercises the shared frozen snapshot across tasks.
					fns := make([]core.TaskFunc, *depth)
					for i := range fns {
						fns[i] = scan
					}
					if err := thr.AtomicRO(fns...); err != nil {
						panic(err)
					}
					continue
				}
				// A transaction of `depth` tasks moving money along a
				// random cycle: task i moves amt from a_i to a_{i+1}.
				n := *depth
				idx := make([]tm.Addr, n+1)
				for i := range idx {
					idx[i] = base + tm.Addr(r.next()%uint64(*accounts))
				}
				amt := r.next() % 100
				fns := make([]core.TaskFunc, n)
				for i := 0; i < n; i++ {
					from, to := idx[i], idx[i+1]
					fns[i] = func(tk *core.Task) {
						f := tk.Load(from)
						if from != to && f >= amt {
							tk.Store(from, f-amt)
							tk.Store(to, tk.Load(to)+amt)
						}
					}
				}
				if err := thr.Atomic(fns...); err != nil {
					panic(err)
				}
			}
			thr.Sync()
			done <- thr.Stats()
		}(uint64(w + 1))
	}

	var total core.Stats
	for w := 0; w < *threads; w++ {
		total.Add(<-done)
	}
	close(stopMetrics)

	if traceOut != nil {
		// Every thread has Synced and its completion was received above,
		// so every ring owner is quiesced: the dump is race-free. The
		// file itself was created before the soak started.
		if err := rec.Dump(traceOut); err != nil {
			traceOut.Close()
			fmt.Fprintf(os.Stderr, "tlstm-stress: writing trace: %v\n", err)
			return 1
		}
		if err := traceOut.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "tlstm-stress: writing trace: %v\n", err)
			return 1
		}
		fmt.Printf("trace: %d rings, %d events, %d dropped -> %s\n",
			len(rec.Rings()), rec.Events(), rec.Drops(), *traceFile)
	}

	if *check {
		// Same quiesce argument as the file dump above: every ring owner
		// has joined, so serializing to memory and checking is race-free.
		checkStart := time.Now()
		var buf bytes.Buffer
		if err := rec.Dump(&buf); err != nil {
			fmt.Fprintf(os.Stderr, "tlstm-stress: -check: dumping trace: %v\n", err)
			return 1
		}
		tr, err := txtrace.ReadTrace(&buf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tlstm-stress: -check: reading trace back: %v\n", err)
			return 1
		}
		if err := tr.Validate(); err != nil {
			fmt.Fprintf(os.Stderr, "tlstm-stress: -check: invalid trace: %v\n", err)
			return 1
		}
		rep, err := txcheck.Check(tr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tlstm-stress: -check: %v\n", err)
			return 1
		}
		checkReport.Store(rep)
		rep.WriteTable(os.Stdout, time.Since(checkStart))
		if !rep.Ok() {
			fmt.Println("FAIL: opacity violated (see violations above)")
			return 1
		}
	}

	var sum uint64
	for i := 0; i < *accounts; i++ {
		sum += d.Load(base + tm.Addr(i))
	}
	want := uint64(*accounts) * initial
	fmt.Printf("committed=%d txAborts=%d taskRestarts=%d work=%d workers=%d descReuse=%d clock=%s ext=%d clkRetry=%d cm=%s cmSelf=%d cmOwner=%d spins=%d mode=%s fallback=%d recover=%d retryWake=%d reclaim=%d stall=%d mv=%d mvRead=%d mvMiss=%d shards=%d place=%s xshard=%d remap=%d rset[%s] wset[%s] commitLat[%s] attempts[%s] restartLat[%s]\n",
		total.TxCommitted, total.TxAborted, total.TaskRestarts, total.Work,
		total.WorkersSpawned, total.DescriptorReuses,
		rt.ClockName(), total.SnapshotExtensions, total.ClockCASRetries,
		rt.CMName(), total.CMAbortsSelf, total.CMAbortsOwner, total.BackoffSpins,
		rt.ModeName(), total.ModeFallbacks, total.ModeRecoveries, total.RetryWakes,
		total.EntryReclaims, total.HorizonStalls,
		rt.MVDepth(), total.MVReads, total.MVMisses,
		rt.Shards(), rt.PlacementName(), total.CrossShardConflicts, total.Remaps,
		total.ReadSetSizes, total.WriteSetSizes,
		total.CommitLatency, total.Attempts, total.RestartLatency)
	if sum != want {
		fmt.Printf("FAIL: total=%d want=%d (atomicity violated)\n", sum, want)
		return 1
	}
	fmt.Println("OK: total preserved")
	return 0
}
