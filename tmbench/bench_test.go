package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"tlstm/internal/mem"
	"tlstm/internal/tm"
	"tlstm/internal/vacation"
)

// small runs a reduced-size pass of a workload.
func small(t *testing.T, workload string, trace bool) *result {
	t.Helper()
	res, err := run(config{workload: workload, seed: 7, seconds: 0.2, trace: trace, small: true})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestReducedWorkloadsRunOnEveryRuntime(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res := small(t, w.name, trace)
			if res.failed != 0 || res.attempted == 0 {
				t.Errorf("%s trace=%t: %d of %d transactions failed: %v", w.name, trace, res.failed, res.attempted, res.problems)
			}
			for _, m := range res.metrics {
				if m.value != m.value { // NaN
					t.Errorf("%s trace=%t: %s is NaN", w.name, trace, m.name)
				}
			}
		}
	}
}

func TestPrintedMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type declared struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []declared `json:"end_to_end"`
		PerLayer  []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, err := findWorkload(w.Name); err != nil {
			t.Errorf("BENCHMARK.json: %v", err)
		}
	}

	for _, trace := range []bool{false, true} {
		want := spec.EndToEnd
		if trace {
			want = spec.PerLayer
		}
		for _, w := range workloads {
			var out bytes.Buffer
			res := small(t, w.name, trace)
			printResult(&out, res)
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var printed struct {
				Correct           bool
				Attempted, Failed int
				Metrics           map[string]struct{ Unit string }
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &printed); err != nil {
				t.Fatalf("%s: last line is not the JSON result: %v", w.name, err)
			}
			if len(printed.Metrics) != len(want) {
				t.Errorf("%s trace=%t: printed %d metrics, BENCHMARK.json declares %d", w.name, trace, len(printed.Metrics), len(want))
			}
			for _, d := range want {
				if m, ok := printed.Metrics[d.Name]; !ok || m.Unit != d.Unit {
					t.Errorf("%s trace=%t: declared %s [%s], printed %+v (present %t)", w.name, trace, d.Name, d.Unit, m, ok)
				}
			}
		}
	}
}

// lastLoad remembers the address of the last word loaded through it.
type lastLoad struct {
	mem.Direct
	addr tm.Addr
}

func (l *lastLoad) Load(a tm.Addr) uint64 { l.addr = a; return l.Direct.Load(a) }

// corrupt breaks one invariant of inst's end state through d.
func corrupt(t *testing.T, inst instance, d mem.Direct) {
	switch in := inst.(type) {
	case *rbInstance:
		in.tr.Insert(d, 1, rbValue(1)+1)
	case *vacationInstance:
		// QueryFree's last load is the resource's free-unit count.
		l := &lastLoad{Direct: d}
		in.m.QueryFree(l, vacation.Car, 0)
		d.Store(l.addr, d.Load(l.addr)+1)
	case *bankInstance:
		d.Store(in.base, d.Load(in.base)+1)
	default:
		t.Fatalf("no corruption for %T", inst)
	}
}

func TestCorruptedEndStateCountsAsFailed(t *testing.T) {
	for _, w := range workloads {
		b, _ := newBench(w, 3, true, 1)
		b.warm(sliceLen/10, sliceLen/10)
		b.pass(sliceLen, 1, false)
		victim := b.sets[0][len(runtimeNames)-1]
		corrupt(t, victim.inst, victim.eng.direct())
		attempted, failed, problems := b.verify()
		b.close()
		want := 0
		for _, c := range victim.clients {
			want += c.attempted
		}
		if want == 0 || failed != want || len(problems) != 1 || !strings.HasPrefix(problems[0], victim.name) {
			t.Errorf("%s: corrupting %s gave %d of %d failed (want %d): %v",
				w.name, victim.name, failed, attempted, want, problems)
		}
	}
}
