package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"csds/internal/core"
)

// corrupt(N,spec) is a deliberately broken combinator: every N-th Get
// hit returns the wrong value, and every N-th Put reports an insert it
// did not make. The checks must catch both.
type corruptSet struct {
	wrapped
	every      int64
	gets, puts atomic.Int64
}

func (s *corruptSet) Get(c *core.Ctx, k core.Key) (core.Value, bool) {
	v, ok := s.wrapped.Get(c, k)
	if ok {
		if s.gets.Add(1)%s.every == 0 {
			v++
		}
	}
	return v, ok
}

func (s *corruptSet) Put(c *core.Ctx, k core.Key, v core.Value) bool {
	if s.puts.Add(1)%s.every == 0 {
		return true
	}
	return s.wrapped.Put(c, k, v)
}

func init() {
	core.RegisterCombinator(core.Combinator{
		Name: "corrupt",
		New: func(arg int, inner func(core.Options) core.Set, o core.Options) core.Set {
			return &corruptSet{wrapped: inner(o).(wrapped), every: int64(arg)}
		},
		Desc: "test only: wrong get values and phantom inserts",
	})
}

func shortRun(t *testing.T, w *workloadDef, traced bool) *runOut {
	t.Helper()
	out, err := measure(w, 3, time.Second, traced, 2)
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	return out
}

func TestWorkloadsRunClean(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			out := shortRun(t, w, false)
			if len(out.violations) > 0 {
				t.Fatalf("violations: %v", out.violations)
			}
			ms := endToEndMetrics(out)
			got := map[string]float64{}
			for _, m := range ms {
				got[m.name] = m.value
			}
			for _, name := range endToEnd {
				if v, ok := got[name]; !ok || !(v > 0) || math.IsInf(v, 0) {
					t.Errorf("%s = %v (present %v); want a positive finite value", name, v, ok)
				}
			}
			if attempted, failed := counts(out); attempted == 0 || failed != 0 {
				t.Errorf("attempted %d, failed %d", attempted, failed)
			}
		})
	}
}

func TestTracedRunReportsEveryLayer(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			u, tr := shortRun(t, w, false), shortRun(t, w, true)
			if len(tr.violations) > 0 {
				t.Fatalf("violations: %v", tr.violations)
			}
			pc := calibrateProbe(1 << 12)
			got := map[string]bool{}
			for _, m := range layerMetrics(u, tr, pc) {
				if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
					t.Errorf("%s = %v", m.name, m.value)
				}
				got[m.name] = true
			}
			for _, name := range perLayer {
				if !got[name] {
					t.Errorf("per-layer metric %s missing", name)
				}
			}
			st := split(tr, pc)
			if sum := st.server + st.comb + st.leaf + st.probe; math.Abs(sum-st.client) > 1e-6*st.client {
				t.Errorf("self times sum to %v ns, clients timed %v ns", sum, st.client)
			}
		})
	}
}

func TestChecksCatchWrongOutputs(t *testing.T) {
	for _, base := range workloads {
		if base.name == "net-pipeline" {
			continue // same server path as net-point
		}
		t.Run(base.name, func(t *testing.T) {
			w := *base
			w.spec = "corrupt(7," + w.spec + ")"
			out := shortRun(t, &w, false)
			joined := strings.Join(out.violations, "\n")
			if !strings.Contains(joined, "wrong outputs") || !strings.Contains(joined, "ledger says") {
				t.Fatalf("violations %q: want a wrong value and a size mismatch", joined)
			}
		})
	}
}

// TestBenchmarkJSONMatches: BENCHMARK.json at the repository root names
// exactly the workloads and metrics this program reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) []string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		return out
	}
	if got := names(spec.Workloads); !reflect.DeepEqual(got, workloadNames()) {
		t.Errorf("workloads %v, program runs %v", got, workloadNames())
	}
	if got := names(spec.EndToEnd); !reflect.DeepEqual(got, endToEnd) {
		t.Errorf("end_to_end %v, program reports %v", got, endToEnd)
	}
	if got := names(spec.PerLayer); !reflect.DeepEqual(got, perLayer) {
		t.Errorf("per_layer %v, program reports %v", got, perLayer)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
	if q1, q3 := quartiles([]float64{3, 1}); q1 != 0.5 || q3 != 3.5 {
		t.Errorf("quartiles(1, 3) = %v, %v; want 0.5, 3.5", q1, q3)
	}
}

func TestHistQuantiles(t *testing.T) {
	var h latHist
	for v := int64(1); v <= 100000; v++ {
		h.add(v * 10)
	}
	for _, q := range []float64{0.5, 0.99, 0.999} {
		want := q * 1e6
		if got := h.quantile(q); math.Abs(got-want) > 0.01*want {
			t.Errorf("q%v = %v, want %v within 1%%", q, got, want)
		}
	}
	if b := bucketOf(1 << 62); b != histBuckets-1 {
		t.Errorf("huge value lands in bucket %d, want the last", b)
	}
}
