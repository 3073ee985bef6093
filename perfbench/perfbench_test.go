package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sort"
	"testing"
)

// testSize is a deployment small enough to fit in a fraction of a second
// and a replay trace of about 1,100 queries.
var testSize = size{samples: 1200, epochs: 5, hourSeconds: 2}

// benchmarkSpec is the part of BENCHMARK.json the smoke test checks
// against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatalf("reading BENCHMARK.json: %v", err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatalf("parsing BENCHMARK.json: %v", err)
	}
	return spec
}

// TestSmoke runs every workload at a tiny length, untraced and traced,
// and checks that the result names exactly the metrics BENCHMARK.json
// declares, each finite and with its declared unit, and that no operation
// failed.
func TestSmoke(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the command runs %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			want := map[string]string{}
			metrics := spec.EndToEnd
			if traced {
				metrics = spec.PerLayer
			}
			for _, m := range metrics {
				want[m.Name] = m.Unit
			}
			rep, err := run(options{workload: w.Name, seed: 1, seconds: 0.4, trace: traced, size: testSize, setups: 2})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, traced, err)
			}
			res := rep.result
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d problems=%v",
					w.Name, traced, res.Correct, res.Attempted, res.Failed, rep.info.Problems)
			}
			for name, unit := range want {
				m, ok := res.Metrics[name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w.Name, traced, name)
				case m.Unit != unit:
					t.Errorf("%s trace=%v: metric %s has unit %q, BENCHMARK.json says %q", w.Name, traced, name, m.Unit, unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s trace=%v: metric %s = %v", w.Name, traced, name, m.Value)
				}
			}
			var extra []string
			for name := range res.Metrics {
				if _, ok := want[name]; !ok {
					extra = append(extra, name)
				}
			}
			sort.Strings(extra)
			if len(extra) > 0 {
				t.Errorf("%s trace=%v: metrics not in BENCHMARK.json: %v", w.Name, traced, extra)
			}
		}
	}
}

// TestReplayIdenticalWithDecorators checks that wrapping every layer
// leaves the simulator's decisions untouched, and that the decorators
// were actually on the path.
func TestReplayIdenticalWithDecorators(t *testing.T) {
	a := fit(testSize)
	tr := replayTrace(a, 3, testSize.hourSeconds)
	plain := replayOnce(a, newLayers(a, false), tr, 3)
	l := newLayers(a, true)
	traced := replayOnce(a, l, tr, 3)
	if len(plain) != tr.N() {
		t.Fatalf("replay produced %d records for %d arrivals", len(plain), tr.N())
	}
	if !reflect.DeepEqual(plain, traced) {
		t.Fatal("records differ with the traced decorators in place")
	}
	if l.sched.passes == 0 || l.reward.calls.Load() == 0 || l.est.calls.Load() == 0 ||
		l.models.calls.Load() == 0 || l.agg.calls.Load() == 0 {
		t.Errorf("a decorator saw no calls: passes=%d reward=%d estimator=%d model=%d aggregate=%d",
			l.sched.passes, l.reward.calls.Load(), l.est.calls.Load(), l.models.calls.Load(), l.agg.calls.Load())
	}
}

// TestHistQuantile checks the fixed-size latency histogram against exact
// order statistics, negative values included: every quantile it reports
// lies within one bucket width of the exact one.
func TestHistQuantile(t *testing.T) {
	h := newHists(1)[0]
	var xs []float64
	for i := 0; i < 20000; i++ {
		// A skewed spread from microseconds to seconds, with a few
		// negatives as added latency can have.
		v := math.Exp(float64(i%997)/997*14-7) * float64(1+i%13)
		if i%50 == 0 {
			v = -v / 100
		}
		h.add(v)
		xs = append(xs, v)
	}
	for _, q := range []float64{0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
		want := quantile(xs, q)
		got := h.quantile(q)
		if tol := math.Abs(want)*(histGrowth-1) + histMin; math.Abs(got-want) > tol {
			t.Errorf("q=%v: histogram %v, exact %v", q, got, want)
		}
	}
	if got := newHists(1)[0].quantile(0.5); got != 0 {
		t.Errorf("empty histogram quantile = %v, want 0", got)
	}
}
