package main

import (
	"bufio"
	"fmt"
	"os"

	"tlstm/internal/tm"
)

// maxSpans is how many attempt intervals one part keeps per
// transaction; further attempts widen the last interval.
const maxSpans = 8

// interval is one body attempt: [start, end) in nanoseconds since epoch.
type interval struct {
	start, end int64
	ok         bool // the body returned normally (the attempt was not rolled back inside it)
}

// countingTx counts the loads and stores a body makes through it.
type countingTx struct {
	tx            tm.Tx
	loads, stores uint64
}

func (c *countingTx) Load(a tm.Addr) uint64     { c.loads++; return c.tx.Load(a) }
func (c *countingTx) Store(a tm.Addr, v uint64) { c.stores++; c.tx.Store(a, v) }
func (c *countingTx) Alloc(n int) tm.Addr       { return c.tx.Alloc(n) }
func (c *countingTx) Free(a tm.Addr)            { c.tx.Free(a) }

// partTrace is one part's record of the current user-transaction. Only
// the goroutine running the part writes it while the transaction is in
// flight; the client reads and resets it after Atomic returns.
type partTrace struct {
	entries   int   // body entries so far
	first     int64 // first entry
	exit      int64 // last normal return
	body      int64 // duration of the last normal attempt (modeBody)
	spans     [maxSpans]interval
	counting  countingTx
	accesses  uint64   // loads and stores over every attempt
	attemptNs int64    // body time over every attempt
	_         [64]byte // keeps parts that run on different workers off one cache line
}

// tracedPart runs part j with its entry, exit and accesses recorded.
// The deferred record also runs when the runtime unwinds the body to
// restart it, so rolled-back attempts keep their spans.
func (c *client) tracedPart(tx tm.Tx, j int) {
	t := &c.task[j]
	start := now()
	if t.entries == 0 {
		t.first = start
	}
	n := t.entries
	t.entries++
	t.counting = countingTx{tx: tx}
	ok := false
	defer func() {
		end := now()
		t.accesses += t.counting.loads + t.counting.stores
		t.attemptNs += end - start
		if n < maxSpans {
			t.spans[n] = interval{start, end, ok}
		} else {
			t.spans[maxSpans-1].end, t.spans[maxSpans-1].ok = end, ok
		}
		if ok {
			t.exit = end
		}
	}()
	c.bad[j] = c.inst.part(&t.counting, c.id, c.cur, j, c.parts)
	ok = true
}

// traceSums is one client's running totals over a traced pass.
type traceSums struct {
	txs       uint64
	entries   uint64 // body entries over all parts
	dur       int64  // Σ tx span
	union     int64  // Σ time at least one body of the tx ran
	self      int64  // Σ tx span minus its task and commit children
	loads     uint64 // committed-attempt loads
	stores    uint64 // committed-attempt stores
	accesses  uint64 // loads and stores over every attempt
	attemptNs int64  // body time over every attempt
}

func (a *traceSums) add(b traceSums) {
	a.txs += b.txs
	a.entries += b.entries
	a.dur += b.dur
	a.union += b.union
	a.self += b.self
	a.loads += b.loads
	a.stores += b.stores
	a.accesses += b.accesses
	a.attemptNs += b.attemptNs
}

// traceAcc accumulates one runtime's traced pass. Each client writes
// only its own sums, dump and sample buffers.
type traceAcc struct {
	wall  int64 // Σ client wall time over the pass's slices
	sums  [maxClients]traceSums
	dumps [maxClients]spanDump
	// per-slice samples and their per-round quantiles
	handoff, commit, skew  samples
	handoffP50, handoffP99 []float64
	commitP50, skewP50     []float64
}

func newTraceAcc(clients, n, parts int) *traceAcc {
	a := &traceAcc{}
	a.handoff.alloc(clients, n)
	a.commit.alloc(clients, n)
	a.skew.alloc(clients, n)
	for c := 0; c < clients; c++ {
		a.dumps[c].rows = make([]spanRow, 0, dumpTxs*(2+parts))
	}
	return a
}

// endSlice turns the slice's samples into per-round quantiles.
func (a *traceAcc) endSlice() {
	h := a.handoff.quantiles(0.5, 0.99)
	a.handoffP50, a.handoffP99 = append(a.handoffP50, h[0]/1e3), append(a.handoffP99, h[1]/1e3)
	a.commitP50 = append(a.commitP50, a.commit.quantiles(0.5)[0]/1e3)
	a.skewP50 = append(a.skewP50, a.skew.quantiles(0.5)[0]/1e3)
}

// total sums the clients' totals.
func (a *traceAcc) total() traceSums {
	var t traceSums
	for _, s := range a.sums {
		t.add(s)
	}
	return t
}

// endTraced folds the transaction that ran in [t0, t1) into acc and
// resets the parts' records for the next one.
func (c *client) endTraced(acc *traceAcc, t0, t1 int64, txSeq int) {
	sum := &acc.sums[c.id]
	var ivs [maxParts * maxSpans]interval
	n := 0
	lastExit, firstMin, firstMax := t0, t1, t0
	for j := 0; j < c.parts; j++ {
		t := &c.task[j]
		lastExit = max(lastExit, t.exit)
		firstMin, firstMax = min(firstMin, t.first), max(firstMax, t.first)
		sum.entries += uint64(t.entries)
		sum.loads += t.counting.loads
		sum.stores += t.counting.stores
		sum.accesses += t.accesses
		sum.attemptNs += t.attemptNs
		n += copy(ivs[n:], t.spans[:min(t.entries, maxSpans)])
	}
	union := unionLen(ivs[:n])
	commit := max(t1-lastExit, 0)
	sum.txs++
	sum.dur += t1 - t0
	sum.union += union
	sum.self += max(t1-t0-union-commit, 0)
	acc.handoff.add(c.id, c.task[0].first-t0)
	acc.commit.add(c.id, commit)
	acc.skew.add(c.id, firstMax-firstMin)
	acc.dumps[c.id].add(c, txSeq, t0, t1, lastExit)
	c.resetParts()
}

func (c *client) resetParts() {
	for j := range c.task[:c.parts] {
		c.task[j] = partTrace{}
	}
}

// unionLen returns the total length covered by ivs (sorted in place).
func unionLen(ivs []interval) int64 {
	for i := 1; i < len(ivs); i++ {
		for k := i; k > 0 && ivs[k].start < ivs[k-1].start; k-- {
			ivs[k], ivs[k-1] = ivs[k-1], ivs[k]
		}
	}
	var total, end int64
	for i, iv := range ivs {
		if i == 0 || iv.start > end {
			total += iv.end - iv.start
			end = iv.end
		} else if iv.end > end {
			total += iv.end - end
			end = iv.end
		}
	}
	return total
}

// dumpTxs is how many transactions per client each runtime's span dump
// keeps: the first ones of the traced pass.
const dumpTxs = 1024

// spanRow is one span of the dump.
type spanRow struct {
	kind       byte // 'x' tx, 't' task attempt, 'c' commit
	client     uint8
	part       int8
	ok         bool
	tx         uint32
	attempt    uint16
	start, end int64
}

// spanDump keeps one client's spans in preallocated memory until the
// run ends.
type spanDump struct {
	rows []spanRow
	txs  int
}

func (d *spanDump) add(c *client, txSeq int, t0, t1, lastExit int64) {
	if d.txs >= dumpTxs || len(d.rows)+2+c.parts*maxSpans > cap(d.rows) {
		return
	}
	d.txs++
	id, tx := uint8(c.id), uint32(txSeq)
	d.rows = append(d.rows, spanRow{kind: 'x', client: id, part: -1, ok: true, tx: tx, start: t0, end: t1})
	for j := 0; j < c.parts; j++ {
		t := &c.task[j]
		for a, iv := range t.spans[:min(t.entries, maxSpans)] {
			d.rows = append(d.rows, spanRow{kind: 't', client: id, part: int8(j), ok: iv.ok,
				tx: tx, attempt: uint16(a + 1), start: iv.start, end: iv.end})
		}
	}
	d.rows = append(d.rows, spanRow{kind: 'c', client: id, part: -1, ok: true, tx: tx, start: lastExit, end: t1})
}

// writeSpans writes every runtime's span dump as tab-separated rows
// under a header carrying the run's stamp.
func writeSpans(path, stamp string, names []string, accs []*traceAcc) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "# %s\n# span runtime client tx part attempt ok start_ns end_ns\n", stamp)
	kinds := map[byte]string{'x': "tx", 't': "task", 'c': "commit"}
	for i, a := range accs {
		for _, d := range a.dumps {
			for _, r := range d.rows {
				fmt.Fprintf(w, "%s\t%s\t%d\t%d\t%d\t%d\t%t\t%d\t%d\n",
					kinds[r.kind], names[i], r.client, r.tx, r.part, r.attempt, r.ok, r.start, r.end)
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
