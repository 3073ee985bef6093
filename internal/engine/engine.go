// Package engine is the request lifecycle both executors drive: the
// concurrent serving runtime (internal/serve) and the discrete-event
// simulator (internal/sim). It owns every decision the paper's serving
// loop makes — admission, difficulty scoring, the result-cache gate, the
// classed planning pass with its commit walk, and settlement — while the
// executors own time, concurrency and model execution behind the small
// Executor seam.
//
// The package is engine-pure: no goroutines, channels, wall-clock reads
// or ambient randomness. Time arrives as the caller's virtual clock, so
// the simulator's event heap and the runtime's wall-anchored clock feed
// the same code. The admission front (Open, Admit, Score) is safe to call
// concurrently — qos, rcache and adapt lock internally and the ticket it
// writes is the caller's own — while the planning pass and settlement
// belong to one goroutine (serve's coordinator, the simulator's loop).
package engine

import (
	"time"

	"schemble/internal/adapt"
	"schemble/internal/core"
	"schemble/internal/dataset"
	"schemble/internal/discrepancy"
	"schemble/internal/ensemble"
	"schemble/internal/model"
	"schemble/internal/obsv"
	"schemble/internal/qos"
	"schemble/internal/rcache"
)

// defaultScore is the difficulty score of every query when no estimator
// is configured: the middle of [0,1], committing to neither easy nor hard.
const defaultScore = 0.5

// Ticket is one request's engine state. Executors embed it by value in
// their request type, so it costs no allocation of its own.
type Ticket struct {
	// ID is the stable per-request identifier the scheduler keys its plan
	// on; the executor assigns it, unique and increasing in arrival order.
	ID int
	// Class is the request's class index (-1 when the engine is
	// classless); Level is the ladder service level it was committed at.
	Class int
	Level qos.Level
	// Arrival and Deadline are absolute virtual times.
	Arrival, Deadline time.Duration
	// Score is the planning score; RawScore is the predictor's
	// uncalibrated output (equal to Score when adaptation is off), which
	// the recalibration reservoir pairs with observed discrepancies.
	Score, RawScore float64
	// Cache is the rcache outcome label ("" when caching is off);
	// Cacheable marks a miss whose clean settlement fills CacheKey.
	Cache     string
	Cacheable bool
	CacheKey  int

	// taken marks a request a planning pass committed or rejected.
	taken bool
}

// Request is an executor's request type: anything that carries a Ticket.
type Request interface {
	Ticket() *Ticket
}

// Executor is what the planning pass needs from the side that runs
// tasks. The engine calls it only from the pass, on the pass's goroutine.
type Executor[R Request] interface {
	// Backlog counts the tasks the executor holds outside the engine's
	// buffer: queued, forming or running.
	Backlog() int
	// Capacity is the per-replica availability view the scheduler plans
	// against. The engine reads it but never writes it.
	Capacity() core.Capacity
	// Blocked is the mask of models no plan may use at now (open
	// breakers, crashed replicas).
	Blocked(now time.Duration) ensemble.Subset
	// Idle reports whether some replica of model k is free at now.
	Idle(now time.Duration, k int) bool
	// Dispatch commits r to sub and enqueues its tasks, or refuses and
	// returns false (a full task queue, or r resolved meanwhile).
	Dispatch(r R, sub ensemble.Subset) bool
	// Reject resolves a refused request as an explicit rejection.
	Reject(r R)
}

// Config configures an Engine.
type Config struct {
	Ensemble *ensemble.Ensemble
	// Scheduler and Rewarder drive the planning pass; an executor that
	// never plans (the simulator's immediate mode) leaves Scheduler nil.
	Scheduler core.Scheduler
	Rewarder  core.Rewarder
	// Estimator scores difficulty; nil scores everything defaultScore.
	Estimator discrepancy.ScoreEstimator
	// Replicas[k] is model k's resolved pool size and Exec[k] its frozen
	// per-task planning cost; both have one entry per model.
	Replicas []int
	Exec     []time.Duration
	// Classes and Admission configure the qos controller; a zero
	// Admission.Capacity defaults to the fleet's bottleneck capacity.
	Classes   []qos.Class
	Admission qos.Tuning
	Cache     rcache.Config
	Adapt     adapt.Config
	// ForgiveLate settles late completions as served instead of missed
	// (the simulator's ForceProcess mode).
	ForgiveLate bool
}

// Engine owns the lifecycle decisions and the query buffer.
type Engine[R Request] struct {
	ens         *ensemble.Ensemble
	sched       core.Scheduler
	rew         core.Rewarder
	est         discrepancy.ScoreEstimator
	forgiveLate bool

	// qos is the overload controller: always non-nil, estimator-only when
	// classless. greedy plans LevelGreedy classes (nil when classless);
	// it is a dedicated instance because scheduler scratch is not
	// shareable with sched.
	qos    *qos.Controller
	greedy *core.Greedy
	// cache and adapt are nil when their configs are off.
	cache *rcache.Cache
	adapt *adapt.Engine
	// exec is the working planning cost vector, refreshed from adapt at
	// every pass.
	exec []time.Duration

	buffer []R
	// slack is the fraction of the previous pass's buffer left unplaced.
	slack float64
	// Scratch reused across passes.
	main, deg []member[R]
	infos     []core.QueryInfo
	avail     core.Capacity
	pushed    [][]time.Duration
}

// New builds an engine.
func New[R Request](cfg Config) *Engine[R] {
	m := cfg.Ensemble.M()
	profiled := make([]time.Duration, m)
	for k, md := range cfg.Ensemble.Models {
		profiled[k] = md.MeanLatency()
	}
	adm := cfg.Admission
	if adm.Capacity <= 0 {
		adm.Capacity = bottleneckCapacity(profiled, cfg.Replicas)
	}
	e := &Engine[R]{
		ens:         cfg.Ensemble,
		sched:       cfg.Scheduler,
		rew:         cfg.Rewarder,
		est:         cfg.Estimator,
		forgiveLate: cfg.ForgiveLate,
		qos:         qos.New(qos.Config{Classes: cfg.Classes, Tuning: adm}),
		cache:       rcache.New(cfg.Cache),
		adapt:       adapt.New(cfg.Adapt, profiled, cfg.Exec, cfg.Replicas),
		exec:        append([]time.Duration(nil), cfg.Exec...),
	}
	if len(cfg.Classes) > 0 {
		e.greedy = &core.Greedy{Order: core.EDF}
	}
	return e
}

// bottleneckCapacity estimates the fleet's sustainable full-ensemble
// service rate in requests per virtual second: the slowest model's pool
// throughput, min over k of replicas[k] / meanLatency[k]. Zero-latency
// models are skipped; a fleet with no positive latency falls back to 1.
func bottleneckCapacity(meanLatency []time.Duration, replicas []int) float64 {
	capacity := 0.0
	for k, lat := range meanLatency {
		if lat <= 0 {
			continue
		}
		c := float64(replicas[k]) / lat.Seconds()
		if capacity <= 0 || c < capacity {
			capacity = c
		}
	}
	if capacity <= 0 {
		capacity = 1
	}
	return capacity
}

// QoS returns the overload controller (for snapshots and Retry-After).
func (e *Engine[R]) QoS() *qos.Controller { return e.qos }

// Cache returns the result cache, nil when caching is off.
func (e *Engine[R]) Cache() *rcache.Cache { return e.cache }

// Adapt returns the online-adaptation engine, nil when adaptation is off.
func (e *Engine[R]) Adapt() *adapt.Engine { return e.adapt }

// Exec returns the working planning cost vector. Executors read it for
// their backlog estimates; only the planning pass writes it.
func (e *Engine[R]) Exec() []time.Duration { return e.exec }

// Open initialises t for a request of the named class arriving at now
// with the relative deadline budget. A classed request with a
// non-positive budget inherits its class's default deadline; unknown or
// empty class names map to the lowest-priority class.
func (e *Engine[R]) Open(t *Ticket, id int, class string, now, budget time.Duration) {
	t.ID = id
	t.Class = e.qos.ClassIndex(class)
	if t.Class >= 0 && budget <= 0 {
		budget = e.qos.Class(t.Class).Deadline
	}
	t.Arrival, t.Deadline = now, now+budget
}

// Admit is the overload gate, consulted before any scoring work: false
// means the admission controller sheds the request.
func (e *Engine[R]) Admit(now time.Duration, t *Ticket) bool {
	return t.Class < 0 || e.qos.Admit(now, t.Class)
}

// Score attaches the difficulty score — predicted, fed to the drift
// detector and recalibrated — and consults the result cache. On a hit it
// returns the cached answer and true: the request is settled with no
// planning or dispatch at all.
func (e *Engine[R]) Score(now time.Duration, t *Ticket, sample *dataset.Sample) (rcache.Value, bool) {
	t.Score = defaultScore
	if e.est != nil {
		t.Score = e.est.Predict(sample)
	}
	t.RawScore = t.Score
	if e.adapt != nil {
		e.adapt.ObserveScore(now, t.RawScore)
		t.Score = e.adapt.Calibrate(t.RawScore)
	}
	if e.cache == nil {
		return rcache.Value{}, false
	}
	v, key, outcome := e.cache.Lookup(now, sample.Features, t.Score)
	t.Cache = outcome
	// Exhaustive over the cache taxonomy (enforced by the
	// exhaustiveoutcome analyzer): a new cache outcome must decide its
	// scheduling consequence here.
	switch outcome {
	case obsv.CacheOutcomeHit:
		// Zero-cost plan: the cached answer settles the request.
		return v, true
	case obsv.CacheOutcomeMiss:
		// Cacheable: fill the entry when the request settles cleanly.
		t.Cacheable, t.CacheKey = true, key
	case obsv.CacheOutcomeBypass:
		// Too hard (or unkeyable): the ensemble always runs.
	}
	return rcache.Value{}, false
}

// Verdict is a settled request's outcome.
type Verdict struct {
	// Output aggregates the successful models' outputs; Subset names
	// them (the committed subset when nothing succeeded).
	Output model.Output
	Subset ensemble.Subset
	// Missed and Degraded classify the outcome; neither set is served.
	Missed, Degraded bool
}

// Settle decides a committed request's outcome from the models that
// succeeded (ok) out of its committed subset (sub), their outputs, and
// whether it finished after its deadline. One rule covers every executor:
//
//   - nothing succeeded, or late without ForgiveLate: missed;
//   - otherwise degraded when a committed model failed (ok != sub) or the
//     ladder capped the plan (Level above full), else served;
//   - only an on-time served result is clean: it fills the request's
//     cache entry, and — when the whole ensemble ran — feeds the
//     recalibration reservoir its observed discrepancy.
func (e *Engine[R]) Settle(now time.Duration, t *Ticket, sub, ok ensemble.Subset, outs []model.Output, late bool) Verdict {
	if ok == ensemble.Empty {
		return Verdict{Subset: sub, Missed: true}
	}
	v := Verdict{
		Output: e.ens.Predict(outs, ok),
		Subset: ok,
		Missed: late && !e.forgiveLate,
	}
	v.Degraded = !v.Missed && (ok != sub || t.Level > qos.LevelFull)
	if late || v.Degraded {
		return v
	}
	if e.adapt != nil && ok == ensemble.Full(e.ens.M()) {
		e.adapt.ObserveOutcome(now, t.RawScore, outs, v.Output)
	}
	if e.cache != nil && t.Cacheable {
		e.cache.Fill(now, t.CacheKey, rcache.Value{Output: v.Output, Subset: ok})
	}
	return v
}
