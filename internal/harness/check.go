package harness

import "fmt"

// Shape checks: the paper's qualitative claims, machine-verified
// against regenerated figures. Each function returns a list of
// violations (empty = the claim holds). cmd/tlstm-bench -check runs
// them all and fails loudly on any violation, so a regression in the
// runtimes that silently flips a result shape is caught.

// CheckFig1a verifies E1: speedup grows with transaction length; the
// 4-task series dominates the 2-task series from 4 ops on; large
// transactions speed up meaningfully.
func CheckFig1a(f Figure) []string {
	var bad []string
	t2, t4 := f.Lookup("TLSTM-2"), f.Lookup("TLSTM-4")
	if len(t2.Y) == 0 || len(t4.Y) == 0 {
		return []string{"fig1a: missing series"}
	}
	if t2.Y[len(t2.Y)-1] <= t2.Y[0] {
		bad = append(bad, "fig1a: TLSTM-2 speedup does not grow with transaction size")
	}
	if t4.Y[len(t4.Y)-1] <= t4.Y[0] {
		bad = append(bad, "fig1a: TLSTM-4 speedup does not grow with transaction size")
	}
	for i := range t4.Y {
		if t4.X[i] >= 4 && t4.Y[i] <= t2.Y[i] {
			bad = append(bad, fmt.Sprintf("fig1a: TLSTM-4 not above TLSTM-2 at %g ops", t4.X[i]))
		}
	}
	if last := t2.Y[len(t2.Y)-1]; last < 1.5 {
		bad = append(bad, fmt.Sprintf("fig1a: TLSTM-2 tops out at %.2f, want ≥1.5", last))
	}
	if last := t4.Y[len(t4.Y)-1]; last < 2.5 {
		bad = append(bad, fmt.Sprintf("fig1a: TLSTM-4 tops out at %.2f, want ≥2.5", last))
	}
	return bad
}

// CheckFig1b verifies E2 on the low-contention series (the paper's
// stable regime): TLSTM-2 above SwissTM at every client count, TLSTM-1
// within 20% of SwissTM, and SwissTM scaling with clients.
func CheckFig1b(f Figure) []string {
	var bad []string
	sw := f.Lookup("SwissTM-low")
	t1 := f.Lookup("TLSTM-1-low")
	t2 := f.Lookup("TLSTM-2-low")
	if len(sw.Y) == 0 || len(t1.Y) == 0 || len(t2.Y) == 0 {
		return []string{"fig1b: missing series"}
	}
	if sw.Y[len(sw.Y)-1] <= sw.Y[0]*2 {
		bad = append(bad, "fig1b: SwissTM-low does not scale with clients")
	}
	for i := range sw.Y {
		if t2.Y[i] <= sw.Y[i] {
			bad = append(bad, fmt.Sprintf("fig1b: TLSTM-2-low not above SwissTM-low at %g clients", sw.X[i]))
		}
		ratio := t1.Y[i] / sw.Y[i]
		if ratio < 0.8 || ratio > 1.2 {
			bad = append(bad, fmt.Sprintf("fig1b: TLSTM-1-low / SwissTM-low = %.2f at %g clients, want ≈1", ratio, sw.X[i]))
		}
	}
	return bad
}

// CheckFig2a verifies E3: monotone TLSTM curve, write-dominated
// inversion, near-full speedup and convergence with SwissTM-3 at 100%.
func CheckFig2a(f Figure) []string {
	var bad []string
	s1 := f.Lookup("SwissTM-1")
	t13 := f.Lookup("TLSTM-1-3")
	s3 := f.Lookup("SwissTM-3")
	if len(s1.Y) == 0 || len(t13.Y) == 0 || len(s3.Y) == 0 {
		return []string{"fig2a: missing series"}
	}
	n := len(t13.Y)
	if t13.Y[0] >= s1.Y[0] {
		bad = append(bad, "fig2a: TLSTM-1-3 should trail SwissTM-1 at 0% read-only")
	}
	if t13.Y[n-1] < 2.5*s1.Y[n-1] {
		bad = append(bad, fmt.Sprintf("fig2a: TLSTM-1-3 speedup at 100%% read is %.2fx, want ≥2.5x", t13.Y[n-1]/s1.Y[n-1]))
	}
	conv := t13.Y[n-1] / s3.Y[n-1]
	if conv < 0.85 || conv > 1.15 {
		bad = append(bad, fmt.Sprintf("fig2a: TLSTM-1-3 and SwissTM-3 should converge at 100%% read (ratio %.2f)", conv))
	}
	for i := 1; i < n; i++ {
		if t13.Y[i] < t13.Y[i-1]*0.95 {
			bad = append(bad, fmt.Sprintf("fig2a: TLSTM-1-3 not monotone at %g%% read", t13.X[i]))
		}
	}
	return bad
}

// CheckFig2b verifies E4's directional claims.
func CheckFig2b(f Figure) []string {
	var bad []string
	const writeIdx, rwIdx, readIdx = 0, 1, 2
	for _, k := range []int{1, 2} {
		sw := f.Lookup(fmt.Sprintf("SwissTM-%d", k))
		t3 := f.Lookup(fmt.Sprintf("TLSTM-%d-3", k))
		if len(sw.Y) < 3 || len(t3.Y) < 3 {
			return []string{"fig2b: missing series"}
		}
		if t3.Y[readIdx] <= sw.Y[readIdx]*1.2 {
			bad = append(bad, fmt.Sprintf("fig2b: TLSTM-%d-3 should clearly beat SwissTM-%d on the read workload", k, k))
		}
		if t3.Y[writeIdx] > sw.Y[writeIdx]*1.25 {
			bad = append(bad, fmt.Sprintf("fig2b: TLSTM-%d-3 should not outperform SwissTM-%d on the write workload", k, k))
		}
	}
	// 9 tasks: good at one thread on reads, collapsing under
	// multi-thread contention (read-write mix).
	if f.Lookup("TLSTM-1-9").Y[readIdx] <= f.Lookup("TLSTM-1-3").Y[readIdx] {
		bad = append(bad, "fig2b: TLSTM-1-9 should beat TLSTM-1-3 on the 1-thread read workload")
	}
	if f.Lookup("TLSTM-2-9").Y[rwIdx] >= f.Lookup("TLSTM-2-3").Y[rwIdx] {
		bad = append(bad, "fig2b: TLSTM-2-9 should collapse below TLSTM-2-3 on the read-write workload")
	}
	if f.Lookup("TLSTM-3-9").Y[writeIdx] >= f.Lookup("TLSTM-3-3").Y[writeIdx] {
		bad = append(bad, "fig2b: TLSTM-3-9 should collapse below TLSTM-3-3 on the write workload")
	}
	// SwissTM keeps scaling on the write workload where TLSTM stalls.
	if f.Lookup("SwissTM-3").Y[writeIdx] <= f.Lookup("SwissTM-1").Y[writeIdx] {
		bad = append(bad, "fig2b: SwissTM should scale with threads on the write workload")
	}
	return bad
}
