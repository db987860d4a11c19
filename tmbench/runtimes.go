package main

import (
	"tlstm/internal/core"
	"tlstm/internal/mem"
	"tlstm/internal/stm"
	"tlstm/internal/tl2"
	"tlstm/internal/tm"
	"tlstm/internal/wtstm"
)

// Counter indices into counters, read from the runtimes' public Stats.
const (
	cCommits       = iota // committed user-transactions
	cAborts               // whole-transaction aborts
	cRestartWAR           // TLSTM task restarts by cause
	cRestartWAW           //
	cRestartExtend        //
	cRestartCM            //
	cExtensions           // snapshot extensions
	cCASRetries           // commit-clock CAS retries
	cReclaims             // lock-table entries recycled
	cHorizonStalls        // entry requests the reclamation horizon forced to allocate
	cCMSelf               // contention-manager AbortSelf decisions
	cCMOwner              // contention-manager AbortOwner decisions
	cSpins                // contention-manager backoff yields
	cWorkers              // TLSTM scheduler workers spawned
	cVUnits               // TLSTM virtual time in work units
	nCounters
)

// counters is one client's cumulative runtime statistics.
type counters [nCounters]uint64

func (a *counters) add(b counters) {
	for i := range a {
		a[i] += b[i]
	}
}

func (a counters) minus(b counters) counters {
	for i := range a {
		a[i] -= b[i]
	}
	return a
}

// engine is one runtime instance in its default configuration.
type engine interface {
	direct() mem.Direct
	// newClient returns a client's user-transaction entry point, which
	// runs parts as one user-transaction, and a reader of the client's
	// cumulative counters, valid between calls to atomic.
	newClient(parts []func(tm.Tx)) (atomic func() error, stats func() counters)
	close()
}

// runtimeNames lists the runtimes in report order.
var runtimeNames = []string{"tlstm", "swisstm", "tl2", "wtstm"}

// newEngine builds runtime name; depth is TLSTM's SpecDepth.
func newEngine(name string, depth int) engine {
	switch name {
	case "tlstm":
		return tlstmEngine{core.New(core.Config{SpecDepth: depth})}
	case "swisstm":
		return swissEngine{stm.New()}
	case "tl2":
		return tl2Engine{tl2.New(20)}
	case "wtstm":
		return wtstmEngine{wtstm.New(20)}
	}
	panic("unknown runtime " + name)
}

// flat runs the parts of a user-transaction back to back in one
// transaction.
func flat(parts []func(tm.Tx), tx tm.Tx) {
	for _, p := range parts {
		p(tx)
	}
}

type tlstmEngine struct{ rt *core.Runtime }

func (e tlstmEngine) direct() mem.Direct { return e.rt.Direct() }
func (e tlstmEngine) close()             { e.rt.Close() }

func (e tlstmEngine) newClient(parts []func(tm.Tx)) (func() error, func() counters) {
	thr := e.rt.NewThread()
	fns := make([]core.TaskFunc, len(parts))
	for j, p := range parts {
		fns[j] = func(t *core.Task) { p(t) }
	}
	return func() error { return thr.Atomic(fns...) }, func() counters {
		s := thr.Stats()
		return counters{
			cCommits: s.TxCommitted, cAborts: s.TxAborted,
			cRestartWAR: s.RestartWAR, cRestartWAW: s.RestartWAW,
			cRestartExtend: s.RestartExtend, cRestartCM: s.RestartCM,
			cExtensions: s.SnapshotExtensions, cCASRetries: s.ClockCASRetries,
			cReclaims: s.EntryReclaims, cHorizonStalls: s.HorizonStalls,
			cCMSelf: s.CMAbortsSelf, cCMOwner: s.CMAbortsOwner, cSpins: s.BackoffSpins,
			cWorkers: s.WorkersSpawned, cVUnits: s.VirtualTime,
		}
	}
}

type swissEngine struct{ rt *stm.Runtime }

func (e swissEngine) direct() mem.Direct { return e.rt.Direct() }
func (e swissEngine) close()             {}

func (e swissEngine) newClient(parts []func(tm.Tx)) (func() error, func() counters) {
	w := e.rt.NewWorker()
	fn := func(tx *stm.Tx) { flat(parts, tx) }
	return func() error { w.Atomic(fn); return nil }, func() counters {
		s := w.Stats()
		return flatCounters(s.Commits, s.Aborts, s.SnapshotExtensions, s.ClockCASRetries,
			s.EntryReclaims, s.HorizonStalls, s.CMAbortsSelf, s.CMAbortsOwner, s.BackoffSpins)
	}
}

type tl2Engine struct{ rt *tl2.Runtime }

func (e tl2Engine) direct() mem.Direct { return e.rt.Direct() }
func (e tl2Engine) close()             {}

func (e tl2Engine) newClient(parts []func(tm.Tx)) (func() error, func() counters) {
	s := new(tl2.Stats)
	fn := func(tx *tl2.Tx) { flat(parts, tx) }
	return func() error { e.rt.Atomic(s, fn); return nil }, func() counters {
		return flatCounters(s.Commits, s.Aborts, s.SnapshotExtensions, s.ClockCASRetries,
			s.EntryReclaims, s.HorizonStalls, s.CMAbortsSelf, s.CMAbortsOwner, s.BackoffSpins)
	}
}

type wtstmEngine struct{ rt *wtstm.Runtime }

func (e wtstmEngine) direct() mem.Direct { return e.rt.Direct() }
func (e wtstmEngine) close()             {}

func (e wtstmEngine) newClient(parts []func(tm.Tx)) (func() error, func() counters) {
	s := new(wtstm.Stats)
	fn := func(tx *wtstm.Tx) { flat(parts, tx) }
	return func() error { e.rt.Atomic(s, fn); return nil }, func() counters {
		return flatCounters(s.Commits, s.Aborts, s.SnapshotExtensions, s.ClockCASRetries,
			s.EntryReclaims, s.HorizonStalls, s.CMAbortsSelf, s.CMAbortsOwner, s.BackoffSpins)
	}
}

// flatCounters maps the counter set the three flat runtimes share.
func flatCounters(commits, aborts, ext, cas, reclaims, stalls, cmSelf, cmOwner, spins uint64) counters {
	return counters{
		cCommits: commits, cAborts: aborts, cExtensions: ext, cCASRetries: cas,
		cReclaims: reclaims, cHorizonStalls: stalls,
		cCMSelf: cmSelf, cCMOwner: cmOwner, cSpins: spins,
	}
}
