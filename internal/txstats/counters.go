package txstats

// Counters is the statistics set all four runtimes share. Each
// runtime's Stats embeds it next to the counters only that runtime has
// (commit/abort counts, TLSTM's restart causes and scheduler counters),
// so a shared counter is declared, folded and differenced here once.
//
// A counter a runtime cannot produce stays 0 there rather than being
// left out, so sweeps report a uniform column across runtimes (TL2
// never extends its snapshot; TL2 and the write-through STM pool no
// lock-table entries to reclaim).
type Counters struct {
	// Work is the work in abstract units (one unit ≈ one TM operation or
	// one validation step) across all attempts, aborted ones included;
	// the harness turns it into the virtual-time model (README,
	// "Reproducing the paper's figures").
	Work uint64
	// SnapshotExtensions counts successful read-version extensions: a
	// read ran past the snapshot and the read log revalidated forward
	// instead of aborting. Pre-publishing clock strategies (deferred,
	// sharded) trade commit-path contention for these.
	SnapshotExtensions uint64
	// ClockCASRetries counts failed CASes inside commit-clock operations
	// (internal/clock.Probe), the direct measure of clock contention.
	ClockCASRetries uint64
	// CMAbortsSelf counts lost conflicts (one AbortSelf decision each);
	// CMAbortsOwner counts AbortOwner decisions, one per round spent
	// waiting for a signalled owner to concede; BackoffSpins counts the
	// scheduler yields the policy charged between retries
	// (internal/cm.Probe).
	CMAbortsSelf  uint64
	CMAbortsOwner uint64
	BackoffSpins  uint64
	// EntryReclaims counts write-lock entries served from a pool instead
	// of the heap; HorizonStalls counts entry requests TLSTM's
	// reclamation horizon forced to allocate fresh.
	EntryReclaims uint64
	HorizonStalls uint64
	// MVReads counts reads served on the multi-version wait-free path;
	// MVMisses counts declared read-only transactions that left it (a
	// version-ring overrun, a word with no covering version, or a write
	// under a read-only declaration) and re-ran validated.
	MVReads  uint64
	MVMisses uint64
	// ReadSetSizes and WriteSetSizes histogram the read- and write-set
	// sizes of each committed transaction (each committed task, for
	// TLSTM); unlogged multi-version reads land in bucket 0.
	ReadSetSizes  Hist
	WriteSetSizes Hist
	// RestartLatency histograms the nanoseconds burned per aborted
	// attempt; CommitLatency the nanoseconds of each final, successful
	// attempt; Attempts the attempts per committed transaction (1 =
	// committed first try).
	RestartLatency Hist
	CommitLatency  Hist
	Attempts       Hist
	// ConflictSketch counts aborts and CM defeats per lock-table shard,
	// the signal the affinity placement consumes; CrossShardConflicts
	// counts the subset outside the thread's home shard at the time;
	// Remaps counts home-shard rebinds.
	ConflictSketch      Sketch
	CrossShardConflicts uint64
	Remaps              uint64
	// ModeFallbacks counts speculative→serialized ladder transitions
	// (mid-transaction escalations included) and ModeRecoveries the
	// returns to speculation; RetryWakes counts Retry parks woken by a
	// conflicting commit's doorbell.
	ModeFallbacks  uint64
	ModeRecoveries uint64
	RetryWakes     uint64
}

// Add folds o into c.
func (c *Counters) Add(o Counters) {
	c.Work += o.Work
	c.SnapshotExtensions += o.SnapshotExtensions
	c.ClockCASRetries += o.ClockCASRetries
	c.CMAbortsSelf += o.CMAbortsSelf
	c.CMAbortsOwner += o.CMAbortsOwner
	c.BackoffSpins += o.BackoffSpins
	c.EntryReclaims += o.EntryReclaims
	c.HorizonStalls += o.HorizonStalls
	c.MVReads += o.MVReads
	c.MVMisses += o.MVMisses
	c.ReadSetSizes.Merge(o.ReadSetSizes)
	c.WriteSetSizes.Merge(o.WriteSetSizes)
	c.RestartLatency.Merge(o.RestartLatency)
	c.CommitLatency.Merge(o.CommitLatency)
	c.Attempts.Merge(o.Attempts)
	c.ConflictSketch.Merge(o.ConflictSketch)
	c.CrossShardConflicts += o.CrossShardConflicts
	c.Remaps += o.Remaps
	c.ModeFallbacks += o.ModeFallbacks
	c.ModeRecoveries += o.ModeRecoveries
	c.RetryWakes += o.RetryWakes
}

// Minus returns the fieldwise difference c−o. It is only meaningful when
// o is an earlier snapshot of c (every counter is monotonic).
func (c Counters) Minus(o Counters) Counters {
	return Counters{
		Work:                c.Work - o.Work,
		SnapshotExtensions:  c.SnapshotExtensions - o.SnapshotExtensions,
		ClockCASRetries:     c.ClockCASRetries - o.ClockCASRetries,
		CMAbortsSelf:        c.CMAbortsSelf - o.CMAbortsSelf,
		CMAbortsOwner:       c.CMAbortsOwner - o.CMAbortsOwner,
		BackoffSpins:        c.BackoffSpins - o.BackoffSpins,
		EntryReclaims:       c.EntryReclaims - o.EntryReclaims,
		HorizonStalls:       c.HorizonStalls - o.HorizonStalls,
		MVReads:             c.MVReads - o.MVReads,
		MVMisses:            c.MVMisses - o.MVMisses,
		ReadSetSizes:        c.ReadSetSizes.Minus(o.ReadSetSizes),
		WriteSetSizes:       c.WriteSetSizes.Minus(o.WriteSetSizes),
		RestartLatency:      c.RestartLatency.Minus(o.RestartLatency),
		CommitLatency:       c.CommitLatency.Minus(o.CommitLatency),
		Attempts:            c.Attempts.Minus(o.Attempts),
		ConflictSketch:      c.ConflictSketch.Minus(o.ConflictSketch),
		CrossShardConflicts: c.CrossShardConflicts - o.CrossShardConflicts,
		Remaps:              c.Remaps - o.Remaps,
		ModeFallbacks:       c.ModeFallbacks - o.ModeFallbacks,
		ModeRecoveries:      c.ModeRecoveries - o.ModeRecoveries,
		RetryWakes:          c.RetryWakes - o.RetryWakes,
	}
}
