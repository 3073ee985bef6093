// Command perfbench is Schemble's live-runtime benchmark. It fits one fixed
// text-matching deployment, drives the runtime from outside through its
// public entry points — serve.Server.Submit, httpserve.Handler.ServeHTTP
// and sim.Run — checks every output it gets back, and prints one JSON
// result line.
//
// Usage:
//
//	perfbench --workload handoff|plan|ingest|replay --seed N --seconds S --trace 0|1
//
// --trace 0 reports the end-to-end metrics of an untraced run measuring
// --seconds. --trace 1 reports per-layer metrics from a run whose layers
// are wrapped by the decorators in layers.go, next to an untraced run of
// the same length for the tracing overhead; each of the two measures half
// of --seconds, so a traced invocation takes about as long as an
// untraced one. The last line of standard output is the result
// object; the line before it records the workload, the seed and the
// sample counts behind each percentile. README.md explains the workloads
// and how each metric maps to them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"time"
)

// options is one benchmark invocation.
type options struct {
	workload string
	seed     uint64
	// seconds is the measured wall time of each phase.
	seconds float64
	trace   bool
	// size is the fitted deployment's size; setups is how many times the
	// deployment is fitted and started for the setup_s median.
	size   size
	setups int
}

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// info is the line before the result: what ran, and how many samples
// stand behind each figure.
type info struct {
	Workload string           `json:"workload"`
	Seed     uint64           `json:"seed"`
	Seconds  float64          `json:"seconds"`
	Trace    bool             `json:"trace"`
	Counts   map[string]int64 `json:"counts"`
	Problems []string         `json:"problems,omitempty"`
}

// report is everything one run produces.
type report struct {
	result result
	info   info
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(options, *report) error{
	"handoff": func(o options, r *report) error { return runClosed(o, handoffShape, r) },
	"plan":    func(o options, r *report) error { return runClosed(o, planShape, r) },
	"ingest":  runIngest,
	"replay":  runReplay,
}

func main() {
	o := options{size: fullSize, setups: 3}
	flag.StringVar(&o.workload, "workload", "", "handoff, plan, ingest or replay")
	flag.Uint64Var(&o.seed, "seed", 1, "seed every input generator derives from")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured wall seconds")
	traceFlag := flag.Int("trace", 0, "1 for the traced run with per-layer metrics")
	flag.Parse()
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	o.trace = *traceFlag == 1
	rep, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(rep.info); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := enc.Encode(rep.result); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run executes one invocation and returns its report. An error means the
// benchmark itself could not run; output violations are counted as failed
// operations in the report instead.
func run(o options) (*report, error) {
	drive, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want handoff, plan, ingest or replay)", o.workload)
	}
	if !(o.seconds > 0) {
		return nil, fmt.Errorf("--seconds must be positive, got %v", o.seconds)
	}
	rep := &report{
		result: result{Metrics: map[string]metric{}},
		info: info{
			Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
			Counts: map[string]int64{},
		},
	}
	if o.trace {
		rep.zeroLayers()
		o.seconds /= 2
	}
	if err := drive(o, rep); err != nil {
		return nil, err
	}
	for name, m := range rep.result.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			rep.fail("metric %s is not finite", name)
			m.Value = 0
			rep.result.Metrics[name] = m
		}
	}
	if rep.result.Attempted < 1 {
		rep.fail("no operation was attempted")
		rep.result.Attempted = 1
	}
	rep.result.Correct = rep.result.Failed == 0
	return rep, nil
}

// maxProblems caps how many violation messages the info line carries;
// every violation is still counted.
const maxProblems = 20

// fail counts one failed operation and keeps its description.
func (r *report) fail(format string, args ...interface{}) {
	r.result.Failed++
	if len(r.info.Problems) < maxProblems {
		r.info.Problems = append(r.info.Problems, fmt.Sprintf(format, args...))
	}
}

// set records one metric.
func (r *report) set(name, unit string, v float64) {
	r.result.Metrics[name] = metric{Value: v, Unit: unit}
}

// median returns the median of xs (0 for none); xs is sorted in place.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for none); xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to float microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// per divides, returning 0 for an empty denominator.
func per(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
