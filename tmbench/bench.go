package main

import (
	"fmt"
	"runtime/metrics"
	"slices"
	"sync"
	"time"

	"tlstm/internal/tm"
	"tlstm/internal/xrand"
)

// maxClients bounds a workload's client goroutines.
const maxClients = 2

var epoch = time.Now()

// now reads the monotonic clock in nanoseconds since start-up.
func now() int64 { return int64(time.Since(epoch)) }

// mode selects what a client's bodies record.
type mode uint8

const (
	modePlain  mode = iota // nothing: the end-to-end pass
	modeTraced             // spans and access counts: the traced pass
	modeBody               // the committed attempt's body time: the instrumentation step
)

// client is one closed-loop user-thread on one runtime.
type client struct {
	id, parts int
	inst      instance
	txs       int // length of the client's pre-generated stream
	next      int // stream position of the next transaction
	cur       int // stream position the parts are running
	bad       [maxParts]int
	mode      mode
	task      [maxParts]partTrace
	atomic    func() error
	stats     func() counters

	attempted, failed int
}

func (c *client) runPart(tx tm.Tx, j int) {
	switch c.mode {
	case modePlain:
		c.bad[j] = c.inst.part(tx, c.id, c.cur, j, c.parts)
	case modeTraced:
		c.tracedPart(tx, j)
	case modeBody:
		t0 := now()
		c.bad[j] = c.inst.part(tx, c.id, c.cur, j, c.parts)
		c.task[j].body = now() - t0
	}
}

// step runs the client's next transaction and returns when it started
// and ended.
func (c *client) step() (t0, t1 int64) {
	c.cur = c.next
	if c.next++; c.next == c.txs {
		c.next = 0
	}
	c.bad = [maxParts]int{}
	t0 = now()
	err := c.atomic()
	t1 = now()
	c.attempted++
	if err != nil || c.bad != [maxParts]int{} {
		c.failed++
	}
	return t0, t1
}

// system is one runtime with the workload populated on it.
type system struct {
	name    string
	eng     engine
	inst    instance
	clients []*client
	lat     samples // the current slice's latencies
	instr   float64 // body time on the runtime ÷ on Direct
}

// passResult is one runtime's measurements over one pass.
type passResult struct {
	rates    []float64 // tx/s per round
	p50, p99 []float64 // latency quantiles per round, µs
	samples  int       // latencies measured
	// Traced passes only.
	tr         *traceAcc
	ctr        counters // counter deltas
	allocBytes uint64   // heap bytes allocated
	gcCycles   uint64   // GC cycles completed
}

// bench is one workload set up several times over on every runtime.
// Rounds rotate through the set-ups, so a run averages over as many
// memory layouts of each runtime.
type bench struct {
	w    workload
	sets [][]*system // sets[i][k]: set-up i of runtime k
}

// newBench sets w up n times over. Each set-up generates its own inputs
// from a seed drawn from seed, so a run averages over n input streams,
// and populates them on a fresh instance of every runtime; its duration
// in seconds is returned.
func newBench(w workload, seed uint64, small bool, n int) (*bench, []float64) {
	b := &bench{w: w}
	secs := make([]float64, n)
	for i := range secs {
		t0 := now()
		b.sets = append(b.sets, newSet(w, xrand.Splitmix(&seed), small))
		secs[i] = float64(now()-t0) / 1e9
	}
	return b, secs
}

func newSet(w workload, seed uint64, small bool) []*system {
	st := w.generate(seed, w.clients, small)
	var set []*system
	for _, name := range runtimeNames {
		eng := newEngine(name, w.parts)
		s := &system{name: name, eng: eng, inst: st.populate(eng.direct())}
		for id := 0; id < w.clients; id++ {
			c := &client{id: id, parts: w.parts, inst: s.inst, txs: st.txs()}
			parts := make([]func(tm.Tx), w.parts)
			for j := range parts {
				parts[j] = func(tx tm.Tx) { c.runPart(tx, j) }
			}
			c.atomic, c.stats = eng.newClient(parts)
			s.clients = append(s.clients, c)
		}
		set = append(set, s)
	}
	return set
}

// all lists every system of every set-up.
func (b *bench) all() []*system { return slices.Concat(b.sets...) }

// counters sums runtime k's counters over the set-ups.
func (b *bench) counters(k int) counters {
	var sum counters
	for _, set := range b.sets {
		for _, c := range set[k].clients {
			sum.add(c.stats())
		}
	}
	return sum
}

func (b *bench) close() {
	for _, s := range b.all() {
		s.eng.close()
	}
}

// slice runs every client of s closed-loop from a common start until
// the deadline, or until a client fills its sample buffer; each client
// runs at least one transaction. It returns the slice's committed
// transactions, its wall time, and the sum of the clients' wall times.
func (s *system) slice(d time.Duration, acc *traceAcc) (txs int, wall, clientWall int64) {
	start := now()
	deadline := start + int64(d)
	var wg sync.WaitGroup
	var ends [maxClients]int64
	var counts [maxClients]int
	for i, c := range s.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seq := 0; ; seq++ {
				t0, t1 := c.step()
				s.lat.add(c.id, t1-t0)
				if acc != nil {
					c.endTraced(acc, t0, t1, seq)
				}
				if t1 >= deadline || s.lat.full(c.id) {
					ends[i], counts[i] = t1, seq+1
					return
				}
			}
		}()
	}
	wg.Wait()
	for i := range s.clients {
		txs += counts[i]
		clientWall += ends[i] - start
		wall = max(wall, ends[i]-start)
	}
	return txs, wall, clientWall
}

// warm runs each runtime for d, which spawns its workers and fills its
// pools, and sizes every sample buffer for slices of length sliceDur
// at three times the rate seen.
func (b *bench) warm(d, sliceDur time.Duration) {
	for _, s := range b.all() {
		s.lat.alloc(len(s.clients), 1<<16)
		txs, wall, _ := s.slice(d, nil)
		s.lat.reset()
		perClient := float64(txs) / float64(len(s.clients)) / float64(wall) * float64(sliceDur)
		s.lat.alloc(len(s.clients), int(3*perClient)+256)
	}
}

// pass measures every runtime for d in total, interleaved in rounds of
// one slice per runtime. Rounds rotate through the set-ups and the
// runtime order rotates too, so drift on the machine spreads evenly. A
// traced pass records spans. The results are indexed like runtimeNames.
func (b *bench) pass(d time.Duration, rounds int, traced bool) []*passResult {
	n := len(runtimeNames)
	sliceDur := d / time.Duration(rounds*n)
	res := make([]*passResult, n)
	before := make([]counters, n)
	for k := range res {
		res[k] = &passResult{}
		if traced {
			n := 0
			for _, set := range b.sets {
				n = max(n, cap(set[k].lat.buf[0]))
			}
			res[k].tr = newTraceAcc(b.w.clients, n, b.w.parts)
		}
		before[k] = b.counters(k)
	}
	if traced {
		b.setMode(modeTraced)
	}
	for r := 0; r < rounds; r++ {
		set := b.sets[r%len(b.sets)]
		for j := range set {
			k := (r + j) % n
			s, p := set[k], res[k]
			a0, g0 := heapStats()
			txs, wall, clientWall := s.slice(sliceDur, p.tr)
			a1, g1 := heapStats()
			p.allocBytes += a1 - a0
			p.gcCycles += g1 - g0
			p.rates = append(p.rates, float64(txs)/(float64(wall)/1e9))
			p.samples += s.lat.count()
			q := s.lat.quantiles(0.5, 0.99)
			p.p50, p.p99 = append(p.p50, q[0]/1e3), append(p.p99, q[1]/1e3)
			if traced {
				p.tr.wall += clientWall
				p.tr.endSlice()
			}
		}
	}
	b.setMode(modePlain)
	for k, p := range res {
		p.ctr = b.counters(k).minus(before[k])
	}
	return res
}

func (b *bench) setMode(m mode) {
	for _, s := range b.all() {
		for _, c := range s.clients {
			c.mode = m
		}
	}
}

// heapStats reads the bytes allocated and the GC cycles completed so
// far. Around a slice the bytes include the slice's own goroutine
// starts, a few hundred bytes per slice.
func heapStats() (allocBytes, gcCycles uint64) {
	var m [2]metrics.Sample
	m[0].Name, m[1].Name = "/gc/heap/allocs:bytes", "/gc/cycles/total:gc-cycles"
	metrics.Read(m[:])
	return m[0].Value.Uint64(), m[1].Value.Uint64()
}

// measureInstr times each runtime's committed body attempts against the
// same bodies run through the runtime's Direct memory, alternating
// transaction by transaction over client 0's stream for d per runtime.
// Direct runs after the transaction and sees its effects; on the
// read-only workload both see identical memory.
func (b *bench) measureInstr(d time.Duration) {
	for _, s := range b.sets[0] {
		c := s.clients[0]
		c.mode = modeBody
		dir := s.eng.direct()
		var onTx, onDirect int64
		for deadline := now() + int64(d); now() < deadline; {
			c.step()
			for j := 0; j < c.parts; j++ {
				onTx += c.task[j].body
				t0 := now()
				c.inst.part(dir, c.id, c.cur, j, c.parts)
				onDirect += now() - t0
			}
		}
		c.mode = modePlain
		s.instr = float64(onTx) / float64(max(onDirect, 1))
	}
}

// verify checks each runtime's end state; a runtime whose end state is
// wrong has all of its transactions counted as failed. It returns the
// totals and the violations found.
func (b *bench) verify() (attempted, failed int, problems []string) {
	for _, s := range b.all() {
		att, fail := 0, 0
		for _, c := range s.clients {
			att += c.attempted
			fail += c.failed
		}
		if msg := s.inst.check(s.eng.direct()); msg != "" {
			problems = append(problems, s.name+": "+msg)
			fail = att
		} else if fail > 0 {
			problems = append(problems, fmt.Sprintf("%s: wrong results in %d transactions", s.name, fail))
		}
		attempted += att
		failed += fail
	}
	return attempted, failed, problems
}

// samples holds one slice's measurements per client in preallocated
// buffers.
type samples struct {
	buf    [maxClients][]uint32
	merged []uint32
}

func (s *samples) alloc(clients, n int) {
	for c := 0; c < clients; c++ {
		s.buf[c] = make([]uint32, 0, n)
	}
	s.merged = make([]uint32, 0, clients*n)
}

func (s *samples) add(c int, ns int64) {
	s.buf[c] = append(s.buf[c], uint32(min(max(ns, 0), 1<<32-1)))
}

func (s *samples) full(c int) bool { return len(s.buf[c]) == cap(s.buf[c]) }

func (s *samples) count() (n int) {
	for _, b := range s.buf {
		n += len(b)
	}
	return n
}

func (s *samples) reset() {
	for c := range s.buf {
		s.buf[c] = s.buf[c][:0]
	}
}

// quantiles merges the slice's samples, returns the requested
// quantiles in nanoseconds and empties the buffers.
func (s *samples) quantiles(qs ...float64) []float64 {
	s.merged = s.merged[:0]
	for c := range s.buf {
		s.merged = append(s.merged, s.buf[c]...)
	}
	s.reset()
	slices.Sort(s.merged)
	out := make([]float64, len(qs))
	for i, q := range qs {
		out[i] = quantile(s.merged, q)
	}
	return out
}

// quantile returns the q-quantile of sorted by linear interpolation.
func quantile(sorted []uint32, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return float64(sorted[len(sorted)-1])
	}
	f := pos - float64(i)
	return float64(sorted[i])*(1-f) + float64(sorted[i+1])*f
}
