package main

import (
	"fmt"
	"time"

	"schemble/internal/serve"
)

// layerUnits names every per-layer metric of the traced run with its unit.
// Every traced run reports all of them; a layer the workload does not
// exercise reads 0.
var layerUnits = map[string]string{
	"core.passes_per_req":         "count",
	"core.queries_per_pass":       "count",
	"core.query_plans_per_req":    "count",
	"core.pass_us_p50":            "us",
	"core.pass_us_p99":            "us",
	"core.busy_us_per_req":        "us",
	"core.wall_share":             "ratio",
	"core.reward_calls_per_pass":  "count",
	"serve.self_cpu_us_per_req":   "us",
	"serve.buffered_mean":         "count",
	"serve.inflight_mean":         "count",
	"serve.queue_depth_mean":      "count",
	"discrepancy.calls_per_req":   "count",
	"discrepancy.busy_us_per_req": "us",
	"model.tasks_per_req":         "count",
	"model.busy_us_per_req":       "us",
	"model.sleep_us_per_req":      "us",
	"ensemble.calls_per_req":      "count",
	"ensemble.busy_us_per_req":    "us",
	"rcache.hit_ratio":            "ratio",
	"rcache.bypass_ratio":         "ratio",
	"rcache.fills":                "count",
	"rcache.evictions":            "count",
	"httpserve.span_us_p50":       "us",
	"httpserve.span_us_p99":       "us",
	"httpserve.self_us_p50":       "us",
	"sim.self_cpu_us_per_req":     "us",
	"obsv.traces_per_req":         "count",
	"loadgen.lag_p99_ms":          "ms",
	"trace.overhead_share":        "ratio",
}

// layer records one per-layer metric with its unit from layerUnits.
func (r *report) layer(name string, v float64) {
	unit, ok := layerUnits[name]
	if !ok {
		panic(fmt.Sprintf("perfbench: unknown layer metric %q", name))
	}
	r.set(name, unit, v)
}

// zeroLayers records every per-layer metric as 0, for the workload to
// overwrite those its layers report.
func (r *report) zeroLayers() {
	for name := range layerUnits {
		r.layer(name, 0)
	}
}

// polled is the mean of the runtime's backlog gauges over a phase.
type polled struct {
	buffered, inflight, queueDepth float64
}

// pollInterval spaces the traced run's serve.Stats polls: a thousand
// samples in a 10 s phase. Polling every millisecond cost ingest, at some
// 450 requests a second, about a fifth of its CPU per request.
const pollInterval = 10 * time.Millisecond

// pollStats samples srv.Stats every pollInterval until the returned
// function is called; that function, called once, stops the poller, waits
// for it and returns the means.
func pollStats(srv *serve.Server) func() polled {
	stop := make(chan struct{})
	out := make(chan polled, 1)
	go func() {
		t := time.NewTicker(pollInterval)
		defer t.Stop()
		var sum polled
		n := 0.0
		for {
			select {
			case <-stop:
				out <- polled{per(sum.buffered, n), per(sum.inflight, n), per(sum.queueDepth, n)}
				return
			case <-t.C:
				st := srv.Stats()
				sum.buffered += float64(st.Buffered)
				sum.inflight += float64(st.InFlight)
				for _, q := range st.QueueDepth {
					sum.queueDepth += float64(q)
				}
				n++
			}
		}
	}()
	return func() polled {
		close(stop)
		return <-out
	}
}

// serveLayers records the layer metrics of a traced live phase: the
// decorators' counts and busy times, the CPU the runtime spent outside
// them, and the polled backlog gauges.
func (r *report) serveLayers(l *layers, p *phase, g polled, scale float64) {
	n := float64(p.requests)
	l.record(r, n, p.wall(), scale)
	r.layer("serve.self_cpu_us_per_req", p.cpuPerReq()-per(us(l.layerBusy()), n))
	r.layer("serve.buffered_mean", g.buffered)
	r.layer("serve.inflight_mean", g.inflight)
	r.layer("serve.queue_depth_mean", g.queueDepth)
}
