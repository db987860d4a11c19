package main

import (
	"fmt"

	"tlstm/internal/mem"
	"tlstm/internal/rbtree"
	"tlstm/internal/tm"
	"tlstm/internal/vacation"
	"tlstm/internal/xrand"
)

// maxParts bounds the tasks one user-transaction is split into.
const maxParts = 2

// workload is one benchmark input family. Its transactions are generated
// from the seed before timing starts; each client replays its own
// pre-generated stream cyclically.
type workload struct {
	name string
	// clients is the number of closed-loop client goroutines.
	clients int
	// parts is the number of tasks a transaction is split into on
	// TLSTM, which also runs with SpecDepth = parts. The flat runtimes
	// run all parts as one transaction.
	parts int
	// generate draws the transaction stream for the seed; small selects
	// the reduced size the self-tests use.
	generate func(seed uint64, clients int, small bool) stream
}

// stream is one workload's pre-generated inputs, shared read-only by
// every runtime.
type stream interface {
	// populate builds the initial data structure on d.
	populate(d mem.Direct) instance
	// txs is the number of pre-generated transactions per client.
	txs() int
}

// instance is a stream populated on one runtime's memory.
type instance interface {
	// part runs part j of client c's transaction i (of parts in all)
	// and returns how many of its results were wrong.
	part(tx tm.Tx, c, i, j, parts int) int
	// check verifies the end state through d once every client of the
	// runtime has stopped; a non-empty result names the violation.
	check(d mem.Direct) string
}

// workloads are the inputs the benchmark can run. BENCHMARK.json lists
// rbtree-ro and vacation-high. bank-small stays runnable for layer
// studies of the fixed per-transaction cost, but is not listed: on a
// 2-vCPU VM its sub-microsecond flat-runtime figures spread up to 28%
// between runs, more than any bound a regression check could use.
var workloads = []workload{
	{name: "rbtree-ro", clients: 1, parts: 2, generate: genRBTree},
	{name: "vacation-high", clients: 2, parts: 2, generate: genVacation},
	{name: "bank-small", clients: 2, parts: 1, generate: genBank},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// span returns the [lo, hi) share of n items that part j of parts owns.
func span(n, j, parts int) (lo, hi int) { return j * n / parts, (j + 1) * n / parts }

// ---------------------------------------------------------------------------
// rbtree-ro: read-only lookups in a red-black tree (paper Fig 1a).
// ---------------------------------------------------------------------------

const rbLookups = 64

type rbStream struct {
	keys int
	pool int
	// lookups[c] holds client c's keys, rbLookups per transaction.
	lookups [][]uint16
}

func genRBTree(seed uint64, clients int, small bool) stream {
	s := &rbStream{keys: 1 << 14, pool: 4096}
	if small {
		s.keys, s.pool = 1<<8, 64
	}
	st := seed
	for c := 0; c < clients; c++ {
		ks := make([]uint16, s.pool*rbLookups)
		for i := range ks {
			ks[i] = uint16(xrand.Splitmix(&st) % uint64(s.keys))
		}
		s.lookups = append(s.lookups, ks)
	}
	return s
}

func (s *rbStream) txs() int { return s.pool }

// rbValue is the value stored under key k.
func rbValue(k uint16) uint64 { return uint64(k)*0x9e3779b97f4a7c15 | 1 }

func (s *rbStream) populate(d mem.Direct) instance {
	tr := rbtree.New(d)
	for k := 0; k < s.keys; k++ {
		tr.Insert(d, int64(k), rbValue(uint16(k)))
	}
	return &rbInstance{s: s, tr: tr}
}

type rbInstance struct {
	s  *rbStream
	tr rbtree.Tree
}

func (r *rbInstance) part(tx tm.Tx, c, i, j, parts int) int {
	lo, hi := span(rbLookups, j, parts)
	bad := 0
	for _, k := range r.s.lookups[c][i*rbLookups+lo : i*rbLookups+hi] {
		if v, ok := r.tr.Lookup(tx, int64(k)); !ok || v != rbValue(k) {
			bad++
		}
	}
	return bad
}

func (r *rbInstance) check(d mem.Direct) string {
	if n := r.tr.Size(d); n != r.s.keys {
		return fmt.Sprintf("tree holds %d keys, want %d", n, r.s.keys)
	}
	for k := 0; k < r.s.keys; k++ {
		if v, ok := r.tr.Lookup(d, int64(k)); !ok || v != rbValue(uint16(k)) {
			return fmt.Sprintf("key %d holds %d, want %d", k, v, rbValue(uint16(k)))
		}
	}
	return r.tr.CheckInvariants(d)
}

// ---------------------------------------------------------------------------
// vacation-high: STAMP Vacation, high contention, 8 ops per transaction
// (paper Fig 1b).
// ---------------------------------------------------------------------------

const vacationOps = 8

type vacationStream struct {
	params vacation.Params
	pool   int
	// ops[c] holds client c's operations, vacationOps per transaction.
	ops [][]vacation.Op
}

func genVacation(seed uint64, clients int, small bool) stream {
	p := vacation.HighContention()
	p.Relations = 1 << 12
	s := &vacationStream{params: p, pool: 4096}
	if small {
		s.params.Relations, s.pool = 1<<7, 64
	}
	for c := 0; c < clients; c++ {
		r := vacation.NewRng(seed ^ uint64(c+1)<<32)
		ops := make([]vacation.Op, s.pool*vacationOps)
		for i := range ops {
			ops[i] = s.params.Generate(r)
		}
		s.ops = append(s.ops, ops)
	}
	return s
}

func (s *vacationStream) txs() int { return s.pool }

func (s *vacationStream) populate(d mem.Direct) instance {
	m := vacation.NewManager(d, 1024)
	vacation.Populate(d, m, s.params)
	return &vacationInstance{s: s, m: m}
}

type vacationInstance struct {
	s *vacationStream
	m *vacation.Manager
}

func (v *vacationInstance) part(tx tm.Tx, c, i, j, parts int) int {
	lo, hi := span(vacationOps, j, parts)
	for _, op := range v.s.ops[c][i*vacationOps+lo : i*vacationOps+hi] {
		v.m.Execute(tx, op)
	}
	return 0
}

func (v *vacationInstance) check(d mem.Direct) string { return v.m.CheckInvariants(d) }

// ---------------------------------------------------------------------------
// bank-small: transfers between random accounts (2 loads, 2 stores).
// ---------------------------------------------------------------------------

const bankInitial = 1000

type transfer struct {
	from, to uint16
	amount   uint32
}

type bankStream struct {
	accounts int
	// transfers[c] is client c's transfer stream, one per transaction.
	transfers [][]transfer
}

func genBank(seed uint64, clients int, small bool) stream {
	s := &bankStream{accounts: 1024}
	pool := 1 << 16
	if small {
		s.accounts, pool = 64, 256
	}
	st := seed
	for c := 0; c < clients; c++ {
		ts := make([]transfer, pool)
		for i := range ts {
			from := xrand.Splitmix(&st) % uint64(s.accounts)
			to := (from + 1 + xrand.Splitmix(&st)%uint64(s.accounts-1)) % uint64(s.accounts)
			ts[i] = transfer{from: uint16(from), to: uint16(to), amount: uint32(1 + xrand.Splitmix(&st)%100)}
		}
		s.transfers = append(s.transfers, ts)
	}
	return s
}

func (s *bankStream) txs() int { return len(s.transfers[0]) }

func (s *bankStream) populate(d mem.Direct) instance {
	base := d.Alloc(s.accounts)
	for a := 0; a < s.accounts; a++ {
		d.Store(base+tm.Addr(a), bankInitial)
	}
	return &bankInstance{s: s, base: base}
}

type bankInstance struct {
	s    *bankStream
	base tm.Addr
}

func (b *bankInstance) part(tx tm.Tx, c, i, _, _ int) int {
	t := b.s.transfers[c][i]
	from, to := b.base+tm.Addr(t.from), b.base+tm.Addr(t.to)
	x, y := tx.Load(from), tx.Load(to)
	tx.Store(from, x-uint64(t.amount))
	tx.Store(to, y+uint64(t.amount))
	return 0
}

// check verifies that transfers preserved the total, in wrapping
// arithmetic: balances may go negative, the sum may not change.
func (b *bankInstance) check(d mem.Direct) string {
	var sum uint64
	for a := 0; a < b.s.accounts; a++ {
		sum += d.Load(b.base + tm.Addr(a))
	}
	if want := uint64(b.s.accounts) * bankInitial; sum != want {
		return fmt.Sprintf("bank total %d, want %d", int64(sum), want)
	}
	return ""
}
