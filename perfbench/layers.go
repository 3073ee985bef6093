package main

import (
	"sync/atomic"
	"time"

	"schemble/internal/core"
	"schemble/internal/dataset"
	"schemble/internal/discrepancy"
	"schemble/internal/ensemble"
	"schemble/internal/model"
	"schemble/internal/pipeline"
	"schemble/internal/rng"
)

// The traced run wraps every layer the runtime takes as an interface. Each
// decorator is a pointer type built once per run and handed to the
// runtime in place of the layer, so the runtime sees one stable,
// comparable value for the whole run: core.DP reuses its frontier only
// when it gets back the same Rewarder (sameRewarder), and a value-typed
// wrapper would silently turn that reuse off.

// tracedScheduler times every planning pass. The runtime calls Schedule
// from one goroutine (serve's coordinator, or the simulator's event loop)
// and the fields are read only after that goroutine has stopped.
type tracedScheduler struct {
	inner core.Scheduler
	// passes counts Schedule calls and queries the buffered queries they
	// were given; busy sums pass durations and passNS keeps each one.
	passes, queries uint64
	busy            time.Duration
	passNS          []float64
}

func (t *tracedScheduler) Name() string { return t.inner.Name() }

func (t *tracedScheduler) Schedule(now time.Duration, qs []core.QueryInfo, avail core.Capacity, exec []time.Duration, r core.Rewarder) core.Plan {
	start := time.Now()
	p := t.inner.Schedule(now, qs, avail, exec, r)
	d := time.Since(start)
	t.passes++
	t.queries += uint64(len(qs))
	t.busy += d
	t.passNS = append(t.passNS, float64(d))
	return p
}

// tracedRewarder counts Reward calls. It reads no clock: Reward is a
// table lookup called many times per pass, and timing it would cost more
// than the call.
type tracedRewarder struct {
	inner core.Rewarder
	calls atomic.Uint64
}

func (t *tracedRewarder) Reward(score float64, s ensemble.Subset) float64 {
	t.calls.Add(1)
	return t.inner.Reward(score, s)
}

// busyCounter counts calls into a layer and the wall time spent inside
// them; several goroutines may call the layer at once.
type busyCounter struct {
	calls atomic.Uint64
	busy  atomic.Int64
}

func (c *busyCounter) since(start time.Time) {
	c.busy.Add(int64(time.Since(start)))
	c.calls.Add(1)
}

func (c *busyCounter) busyTime() time.Duration { return time.Duration(c.busy.Load()) }

// tracedEstimator times difficulty scoring.
type tracedEstimator struct {
	inner discrepancy.ScoreEstimator
	busyCounter
}

func (t *tracedEstimator) Predict(s *dataset.Sample) float64 {
	start := time.Now()
	v := t.inner.Predict(s)
	t.since(start)
	return v
}

// tracedModel times model inference and sums the latencies the runtime
// draws for it; all models of a run share one counter set.
type tracedModel struct {
	model.Model
	c *modelCounters
}

// modelCounters aggregates every traced model of one run.
type modelCounters struct {
	busyCounter
	// drawn sums the latencies SampleLatency returned.
	drawn atomic.Int64
}

func (t *tracedModel) Predict(s *dataset.Sample) model.Output {
	start := time.Now()
	out := t.Model.Predict(s)
	t.c.since(start)
	return out
}

func (t *tracedModel) SampleLatency(src *rng.Source) time.Duration {
	d := t.Model.SampleLatency(src)
	t.c.drawn.Add(int64(d))
	return d
}

// tracedAggregator times aggregation of base-model outputs.
type tracedAggregator struct {
	inner ensemble.Aggregator
	busyCounter
}

func (t *tracedAggregator) Name() string { return t.inner.Name() }

func (t *tracedAggregator) Aggregate(task dataset.Task, outs []model.Output, present ensemble.Subset) model.Output {
	start := time.Now()
	out := t.inner.Aggregate(task, outs, present)
	t.since(start)
	return out
}

// layers is one run's set of layer implementations: the fitted ones, or
// their traced decorators.
type layers struct {
	ensemble  *ensemble.Ensemble
	scheduler core.Scheduler
	rewarder  core.Rewarder
	estimator discrepancy.ScoreEstimator

	// The decorators, nil in an untraced run.
	sched  *tracedScheduler
	reward *tracedRewarder
	est    *tracedEstimator
	models *modelCounters
	agg    *tracedAggregator
}

// newLayers builds a fresh scheduler over the deployment's fitted layers,
// wrapped when traced is set.
func newLayers(a *pipeline.Artifacts, traced bool) *layers {
	l := &layers{
		ensemble:  a.Ensemble,
		scheduler: &core.DP{Delta: 0.01},
		rewarder:  a.Profile,
		estimator: a.Predictor,
	}
	if !traced {
		return l
	}
	l.sched = &tracedScheduler{inner: l.scheduler}
	l.reward = &tracedRewarder{inner: l.rewarder}
	l.est = &tracedEstimator{inner: l.estimator}
	l.models = &modelCounters{}
	l.agg = &tracedAggregator{inner: a.Ensemble.Agg}
	ms := make([]model.Model, a.Ensemble.M())
	for k, m := range a.Ensemble.Models {
		ms[k] = &tracedModel{Model: m, c: l.models}
	}
	l.ensemble = ensemble.New(a.Ensemble.Task, ms, l.agg, a.Ensemble.Weights)
	l.scheduler, l.rewarder, l.estimator = l.sched, l.reward, l.est
	return l
}

// layerBusy is the wall time spent inside the traced layers.
func (l *layers) layerBusy() time.Duration {
	return l.sched.busy + l.est.busyTime() + l.models.busyTime() + l.agg.busyTime()
}

// record emits the layer metrics the decorators measured, per request
// (n requests, wall the measured interval).
func (l *layers) record(r *report, n float64, wall time.Duration, sleepScale float64) {
	s := l.sched
	r.layer("core.passes_per_req", per(float64(s.passes), n))
	r.layer("core.queries_per_pass", per(float64(s.queries), float64(s.passes)))
	r.layer("core.query_plans_per_req", per(float64(s.queries), n))
	r.layer("core.pass_us_p50", quantile(s.passNS, 0.5)/1e3)
	r.layer("core.pass_us_p99", quantile(s.passNS, 0.99)/1e3)
	r.layer("core.busy_us_per_req", per(us(s.busy), n))
	r.layer("core.wall_share", per(float64(s.busy), float64(wall)))
	r.layer("core.reward_calls_per_pass", per(float64(l.reward.calls.Load()), float64(s.passes)))
	r.layer("discrepancy.calls_per_req", per(float64(l.est.calls.Load()), n))
	r.layer("discrepancy.busy_us_per_req", per(us(l.est.busyTime()), n))
	r.layer("model.tasks_per_req", per(float64(l.models.calls.Load()), n))
	r.layer("model.busy_us_per_req", per(us(l.models.busyTime()), n))
	r.layer("model.sleep_us_per_req", per(us(time.Duration(l.models.drawn.Load()))*sleepScale, n))
	r.layer("ensemble.calls_per_req", per(float64(l.agg.calls.Load()), n))
	r.layer("ensemble.busy_us_per_req", per(us(l.agg.busyTime()), n))
	r.info.Counts["core_passes"] = int64(s.passes)
}
