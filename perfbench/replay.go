package main

import (
	"time"

	"schemble/internal/metrics"
	"schemble/internal/pipeline"
	"schemble/internal/sim"
	"schemble/internal/trace"
)

// The replay workload is the bursty one-day text-matching trace of the
// Fig. 19 regime: BaseRate 2.4 and a 105 ms deadline under the DP. At the
// benchmark's 30 virtual seconds per trace hour, the compression the
// paper's experiments use, it holds about 17k queries, and the peak hours
// overload the deployment. A replay this short runs about 60 times in a
// 20 s measurement.
const (
	replayBaseRate = 2.4
	replayDeadline = 105 * time.Millisecond
)

// replayTrace generates the seeded one-day trace.
func replayTrace(a *pipeline.Artifacts, seed uint64, hourSeconds float64) *trace.Trace {
	return trace.OneDay(trace.OneDayConfig{
		Samples:     a.Serve,
		Deadline:    trace.ConstantDeadline(replayDeadline),
		HourSeconds: hourSeconds,
		BaseRate:    replayBaseRate,
		Seed:        seed,
	})
}

// replayOnce simulates the trace with the given layers.
func replayOnce(a *pipeline.Artifacts, l *layers, tr *trace.Trace, seed uint64) []metrics.Record {
	return sim.Run(sim.Config{
		Ensemble:   l.ensemble,
		Refs:       a.Refs,
		Scorer:     a.Scorer,
		Scheduler:  l.scheduler,
		Rewarder:   l.rewarder,
		Estimator:  l.estimator,
		ScoreDelay: a.Predictor.InferCost,
		Seed:       seed,
	}, tr, a.Serve)
}

// replayRig is a fitted deployment with its trace.
type replayRig struct {
	arts *pipeline.Artifacts
	tr   *trace.Trace
}

// replayPhase is a sequence of replays of one trace.
type replayPhase struct {
	// first is the first replay's records; every later replay must equal
	// it.
	first []metrics.Record
	// Per replay: wall time, CPU and allocator deltas.
	walls, cpus, allocs, bytes []float64
}

// cpuPerQuery is the process CPU per simulated query of the median
// replay. A replay is deterministic, single-threaded work, so only the
// host moves its cost: on a shared 2-core container single replays of one
// run range over ±25% of their median. The median of the tens of replays
// in a run is steady where the quickest is not.
func (p *replayPhase) cpuPerQuery(n int) float64 { return median(p.cpus) / float64(n) }

// replays runs sim.Run with a fresh DP for seconds per phase, at least
// once, and checks every replay. With tl nil there is one untraced phase.
// Otherwise untraced replays alternate with replays through tl, whose
// decorators wrap each fresh DP and the other layers and accumulate their
// counters; alternating lets both phases sample the same host conditions,
// which move a replay's cost far more than the decorators do.
func replays(o options, d *deployment, rg replayRig, tl *layers, rep *report) (plain, traced *replayPhase) {
	plain = &replayPhase{}
	phases, wrap := []*replayPhase{plain}, []*layers{nil}
	if tl != nil {
		traced = &replayPhase{}
		phases, wrap = append(phases, traced), append(wrap, tl)
	}
	until := time.Now().Add(time.Duration(float64(len(phases)) * o.seconds * float64(time.Second)))
	for len(plain.walls) == 0 || time.Now().Before(until) {
		for i, p := range phases {
			p.replay(o, d, rg, wrap[i], rep)
		}
	}
	rep.info.Counts["replays"] = int64(len(plain.walls))
	return plain, traced
}

// replay runs and checks one replay into p, through tl's decorators when
// tl is non-nil.
func (p *replayPhase) replay(o options, d *deployment, rg replayRig, tl *layers, rep *report) {
	l := newLayers(rg.arts, false)
	if tl != nil {
		tl.sched.inner = l.scheduler
		l = tl
	}
	begin := snapshot()
	recs := replayOnce(rg.arts, l, rg.tr, o.seed)
	end := snapshot()
	p.walls = append(p.walls, end.at.Sub(begin.at).Seconds())
	p.cpus = append(p.cpus, us(end.cpu-begin.cpu))
	p.allocs = append(p.allocs, float64(end.mem.Mallocs-begin.mem.Mallocs))
	p.bytes = append(p.bytes, float64(end.mem.TotalAlloc-begin.mem.TotalAlloc))
	if p.first == nil {
		p.first = recs
		d.checkRecords(rep, rg.tr, recs)
	} else {
		sameRecords(rep, p.first, recs)
	}
}

// checkRecords verifies one replay: one record per arrival in trace order,
// and each answered query's agreement equal to that of the reference
// output for its subset.
func (d *deployment) checkRecords(rep *report, tr *trace.Trace, recs []metrics.Record) {
	pool := d.arts.Serve
	rep.result.Attempted += int64(len(tr.Arrivals))
	if len(recs) != len(tr.Arrivals) {
		rep.fail("replay produced %d records for %d arrivals", len(recs), len(tr.Arrivals))
		return
	}
	for i, r := range recs {
		smp := pool[tr.Arrivals[i].SampleIdx]
		switch {
		case r.QueryID != i || r.SampleID != smp.ID || r.Arrival != tr.Arrivals[i].At:
			rep.fail("record %d (query %d, sample %d) does not match arrival %d", i, r.QueryID, r.SampleID, i)
		case r.Missed:
		case int(r.Subset) >= len(d.maxMean) || r.Subset == 0:
			rep.fail("record %d served by invalid subset %v", i, r.Subset)
		case r.Agreement != d.arts.Scorer.Score(d.expect[smp.ID][r.Subset], d.arts.Refs[smp.ID]):
			rep.fail("record %d: agreement %v differs from the reference output's", i, r.Agreement)
		}
	}
}

// sameRecords checks that a replay repeated the first one exactly: the
// simulator is deterministic in its configuration and trace.
func sameRecords(rep *report, want, got []metrics.Record) {
	rep.result.Attempted += int64(len(got))
	if len(got) != len(want) {
		rep.fail("replay produced %d records, the first replay %d", len(got), len(want))
		return
	}
	for i := range got {
		if got[i] != want[i] {
			rep.fail("replay record %d differs from the first replay", i)
		}
	}
}

// runReplay drives the simulator workload.
func runReplay(o options, rep *report) error {
	if !o.trace {
		rg, setupS, err := timedSetups(o.setups, func() (replayRig, error) {
			a := fit(o.size)
			return replayRig{a, replayTrace(a, o.seed, o.size.hourSeconds)}, nil
		}, func(replayRig) {})
		if err != nil {
			return err
		}
		d := newDeployment(rg.arts)
		p, _ := replays(o, d, rg, nil, rep)
		rep.replayEndToEnd(setupS, d, rg.tr, p)
		return nil
	}
	a := fit(o.size)
	rg := replayRig{a, replayTrace(a, o.seed, o.size.hourSeconds)}
	d := newDeployment(a)
	l := newLayers(a, true)
	plain, traced := replays(o, d, rg, l, rep)
	sameRecords(rep, plain.first, traced.first)

	n := float64(len(rg.tr.Arrivals) * len(traced.walls))
	var wall float64
	for _, w := range traced.walls {
		wall += w
	}
	l.record(rep, n, time.Duration(wall*float64(time.Second)), 0)
	rep.layer("sim.self_cpu_us_per_req", traced.cpuPerQuery(rg.tr.N())-per(us(l.layerBusy()), n))
	rep.layer("trace.overhead_share", traced.cpuPerQuery(rg.tr.N())/plain.cpuPerQuery(rg.tr.N())-1)
	return nil
}

// replayEndToEnd records the replay's end-to-end metrics. Throughput,
// CPU and allocation counts are those of the median replay. The simulator has no wall-clock request latency, so
// the latency metrics here are the simulated (virtual) response times of
// the records, deterministic in the seed.
func (r *report) replayEndToEnd(setupS float64, d *deployment, tr *trace.Trace, p *replayPhase) {
	n := float64(tr.N())
	var served, scoreSum float64
	var lats, adds []float64
	for _, rec := range p.first {
		scoreSum += rec.Agreement
		if rec.Missed {
			continue
		}
		served++
		lat := rec.Latency()
		lats = append(lats, ms(lat))
		adds = append(adds, ms(added(d, lat, rec.Subset, false, rec.Cached, 1)))
	}
	r.set("setup_s", "s", setupS)
	r.set("throughput_rps", "1/s", n/median(p.walls))
	r.set("latency_p50_ms", "ms", quantile(lats, 0.5))
	r.set("latency_p99_ms", "ms", quantile(lats, 0.99))
	r.set("added_p50_ms", "ms", quantile(adds, 0.5))
	r.set("cpu_us_per_req", "us", p.cpuPerQuery(tr.N()))
	r.set("allocs_per_req", "count", median(p.allocs)/n)
	r.set("bytes_per_req", "B", median(p.bytes)/n)
	r.set("max_rss_mb", "MiB", maxRSSMB())
	r.set("served_rate", "ratio", served/n)
	r.set("accuracy", "ratio", scoreSum/n)
	r.info.Counts["queries_per_replay"] = int64(tr.N())
	r.info.Counts["latency_samples"] = int64(len(lats))
}
