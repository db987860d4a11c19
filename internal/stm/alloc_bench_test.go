package stm_test

import (
	"testing"

	"tlstm/internal/stm"
	"tlstm/internal/tm"
	"tlstm/internal/txdriver"
)

// Allocation-regression benchmarks for the SwissTM hot paths: a warmed
// Worker must run read/write transactions — including the commit's
// r-lock scratch — without allocating. Companion assertions live in
// alloc_norace_test.go (testing.AllocsPerRun is not meaningful under
// the race detector).

const benchAddrs = 8

func setupWorker(tb testing.TB) (*stm.Worker, []tm.Addr, func(tx *stm.Tx)) {
	tb.Helper()
	rt := stm.New()
	d := rt.Direct()
	addrs := make([]tm.Addr, benchAddrs)
	for i := range addrs {
		addrs[i] = d.Alloc(1)
	}
	w := rt.NewWorker()
	body := func(tx *stm.Tx) {
		for _, a := range addrs {
			tx.Store(a, tx.Load(a)+1)
		}
	}
	w.Atomic(body) // warm logs, scratch and the entry pool
	return w, addrs, body
}

// BenchmarkWorkerAtomicReadWrite measures one full transaction — begin,
// 8 reads, 8 writes, writer commit — on a warmed Worker. allocs/op must
// be 0.
func BenchmarkWorkerAtomicReadWrite(b *testing.B) {
	w, _, body := setupWorker(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Atomic(body)
	}
}

// BenchmarkWorkerAtomicReadOnly measures a read-only transaction on a
// warmed Worker. allocs/op must be 0.
func BenchmarkWorkerAtomicReadOnly(b *testing.B) {
	w, addrs, _ := setupWorker(b)
	var sink uint64
	body := func(tx *stm.Tx) {
		for _, a := range addrs {
			sink += tx.Load(a)
		}
	}
	w.Atomic(body)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Atomic(body)
	}
	_ = sink
}

// setupMVWorkers builds a writer/reader pair over a depth-2
// multi-version runtime for the wait-free read-path benchmarks and the
// companion zero-alloc assertion.
func setupMVWorkers(tb testing.TB) (writer, reader *stm.Worker, addrs []tm.Addr) {
	tb.Helper()
	rt := stm.New(txdriver.WithMultiVersion(2))
	d := rt.Direct()
	addrs = make([]tm.Addr, benchAddrs)
	for i := range addrs {
		addrs[i] = d.Alloc(1)
	}
	return rt.NewWorker(), rt.NewWorker(), addrs
}

// BenchmarkWorkerAtomicROMultiVersion measures one declared read-only
// transaction on the wait-free multi-version path — begin, 8 unlogged
// reads, unconditional commit. allocs/op must be 0; compare against
// BenchmarkWorkerAtomicReadOnly for the validated-path cost.
func BenchmarkWorkerAtomicROMultiVersion(b *testing.B) {
	_, reader, addrs := setupMVWorkers(b)
	var sink uint64
	scan := func(tx *stm.Tx) {
		for _, a := range addrs {
			sink += tx.Load(a)
		}
	}
	reader.AtomicRO(scan)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reader.AtomicRO(scan)
	}
	_ = sink
}

// BenchmarkRuntimeAtomicPooled measures the descriptor-per-call
// compatibility entry point, which borrows a pooled Worker. allocs/op
// must also be 0 at steady state.
func BenchmarkRuntimeAtomicPooled(b *testing.B) {
	rt := stm.New()
	d := rt.Direct()
	a := d.Alloc(1)
	body := func(tx *stm.Tx) { tx.Store(a, tx.Load(a)+1) }
	rt.Atomic(nil, body)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.Atomic(nil, body)
	}
}
