// Package sim is the discrete-event serving simulator: virtual clock, one
// serial task queue per deployed model instance, a central query buffer for
// the Schemble family, deadline tracking, and per-query outcome records.
//
// Two selection modes cover every baseline in the paper:
//
//   - immediate mode (Original, Static, DES, Gating): a Select function
//     picks the model subset the moment a query arrives; tasks are enqueued
//     to the chosen servers' FIFO queues right away. With rejection enabled
//     the query is rejected up front when its estimated completion exceeds
//     its deadline.
//
//   - buffered mode (Schemble, Schemble(ea), Schemble(t), scheduler
//     ablations): arriving queries wait in the query buffer; a core.Scheduler
//     re-plans whenever a query becomes ready or a model goes idle, and
//     tasks are dispatched to idle models per plan in EDF order. The
//     discrepancy predictor's latency and the scheduler's own compute cost
//     are charged in virtual time.
//
// Admission, scoring, the cache gate, the planning pass and settlement
// are internal/engine's; the simulator is its event-heap executor.
//
// Determinism: all latency jitter comes from a seeded rng.Source and the
// event heap breaks time ties by sequence number, so a (Config, Trace) pair
// always produces identical records.
package sim

import (
	"container/heap"
	"time"

	"schemble/internal/adapt"
	"schemble/internal/core"
	"schemble/internal/dataset"
	"schemble/internal/discrepancy"
	"schemble/internal/engine"
	"schemble/internal/ensemble"
	"schemble/internal/metrics"
	"schemble/internal/model"
	"schemble/internal/qos"
	"schemble/internal/rcache"
	"schemble/internal/rng"
	"schemble/internal/trace"
)

// Config configures one simulation run.
type Config struct {
	// Ensemble supplies the model types and the aggregator.
	Ensemble *ensemble.Ensemble
	// Replicas[j] is how many server instances of model type j are
	// deployed; nil means one each (the standard deployment). The static
	// baseline uses replicas to harness memory freed by dropped models;
	// buffered mode exposes every replica's backlog to the scheduler as a
	// core.Capacity and enqueues each committed task on the
	// least-backlogged replica of its type.
	Replicas []int
	// Refs[sampleID] is the full ensemble's output per sample — the
	// ground-truth reference.
	Refs []model.Output
	// Scorer measures agreement of served outputs against Refs.
	Scorer *ensemble.Scorer

	// Select enables immediate mode: it maps an arriving sample to the
	// model-type subset to execute. Exactly one of Select / Scheduler must
	// be set.
	Select func(s *dataset.Sample) ensemble.Subset

	// Scheduler + Rewarder + Estimator enable buffered mode.
	Scheduler core.Scheduler
	Rewarder  core.Rewarder
	Estimator discrepancy.ScoreEstimator
	// ScoreDelay is the predictor's inference latency: a buffered query
	// becomes schedulable only ScoreDelay after arrival.
	ScoreDelay time.Duration
	// SchedOverhead maps the buffer length at a planning event to the
	// scheduler's own compute time, charged before dispatch (Exp-4/Exp-8:
	// small delta makes planning itself slow). nil means free.
	SchedOverhead func(buffered int) time.Duration

	// ForceProcess disables rejection (Exp-2): immediate mode enqueues
	// unconditionally; buffered queries that the scheduler keeps skipping
	// fall back to the fastest single model once their deadline passes,
	// and late completions are not counted as misses.
	ForceProcess bool

	// EstimateMargin pads the execution-time estimates used for admission
	// and scheduling feasibility (0.1 = plan with 10% headroom), so
	// latency jitter does not turn feasible-looking plans into misses.
	// Negative disables; zero means the 0.1 default.
	EstimateMargin float64

	// FastFirst enables the paper's Exp-5 optimization: when a query
	// arrives to an empty buffer and an idle fastest model, it bypasses
	// the predictor and the scheduler entirely and runs on the fastest
	// model immediately — eliminating the extra waiting time at the cost
	// of single-model accuracy on those queries.
	FastFirst bool

	// BatchSize lets each model execute up to this many queued tasks as
	// one batch (1 or 0 disables). Batch latency follows model.BatchCurve:
	// base * (1 + (n-1)*BatchMarginal) — throughput rises, per-item
	// latency rises with it — the classic serving alternative to
	// per-query scheduling that the abl-batch study contrasts with
	// Schemble under deadlines.
	BatchSize int
	// BatchMarginal is the per-extra-item latency fraction (default
	// model.DefaultBatchMarginal).
	BatchMarginal float64

	// Classes declares request classes with priorities, default
	// deadlines and admission weights. Arrivals are mapped to classes by
	// trace.Arrival.Class (unknown/empty names land in the lowest-priority
	// class); under overload the engine's qos controller sheds and
	// degrades the lowest classes first. Classed mode requires buffered
	// mode.
	Classes []qos.Class
	// Admission tunes the overload controller (zero capacity: derived
	// from mean latencies and replica counts).
	Admission qos.Tuning

	// Cache enables the difficulty-gated result cache (internal/rcache):
	// a hit finishes the query at arrival without dispatch, a cacheable
	// miss fills the entry on a clean on-time completion. The zero value
	// disables caching. Cached mode requires buffered mode.
	Cache rcache.Config

	// Adapt enables the online-adaptation layer (internal/adapt): live
	// latency quantile profiles feeding the scheduler's cost vector,
	// drift detection, and incremental recalibration of the discrepancy
	// predictor. The zero value disables adaptation and keeps runs
	// bit-identical. Requires buffered mode.
	Adapt adapt.Config

	// Drift injects a deterministic service-time drift schedule
	// (test/soak infrastructure, like fault injection in serve): each
	// task's drawn latency is multiplied by Drift(model, now) at start.
	// nil means no drift.
	Drift trace.LatencyDrift

	Seed uint64
}

// event kinds.
type evKind int

const (
	evArrival evKind = iota
	evReady
	evTaskDone
	evDeadline
	evPlan
)

type event struct {
	at   time.Duration
	seq  int
	kind evKind
	// payload
	arrIdx int
	q      *query
	server int
	// dur is the task's effective (drifted, batched) service time, fed
	// to the adaptation layer when the task completes.
	dur time.Duration
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// query is one arrival. Its ticket ID is the arrival index, which is also
// its record's index.
type query struct {
	tk     engine.Ticket
	sample *dataset.Sample

	committed bool
	subset    ensemble.Subset
	remaining int
	outs      []model.Output
	finished  bool
}

// Ticket implements engine.Request.
func (q *query) Ticket() *engine.Ticket { return &q.tk }

type task struct {
	q       *query
	typeIdx int
}

type server struct {
	typeIdx int
	// replica is this server's index within its model type's pool.
	replica int
	// busyUntil is when the in-flight task (if any) finishes.
	busyUntil time.Duration
	running   bool
	queue     []*task
	// backlogEnd estimates when everything currently queued finishes
	// (mean latencies); used for admission estimates and as the
	// scheduler's availability signal.
	backlogEnd time.Duration
}

// sim is one run's mutable state. It is the engine's executor: the
// planning pass reads its replica backlogs and commits through it.
type sim struct {
	cfg     Config
	samples []*dataset.Sample
	events  eventHeap
	seq     int
	now     time.Duration

	servers []*server
	// byType[j] lists server indices of model type j.
	byType [][]int
	// exec is the engine's working cost vector (mean exec per model type
	// plus the estimate margin, refreshed by adaptation); avail is the
	// capacity view's reused storage.
	exec  []time.Duration
	avail core.Capacity

	eng         *engine.Engine[*query]
	planPending bool
	batch       model.BatchCurve

	src     *rng.Source
	records []metrics.Record
	tr      *trace.Trace
}

// Run simulates the trace against the configured pipeline and returns one
// record per arrival, ordered by query ID (= trace order).
func Run(cfg Config, tr *trace.Trace, samples []*dataset.Sample) []metrics.Record {
	records, _ := RunStats(cfg, tr, samples)
	return records
}

// RunStats is Run plus the result cache's counter snapshot (zero when
// caching is off) so soaks and tests can report hit rates without
// re-deriving them from records.
func RunStats(cfg Config, tr *trace.Trace, samples []*dataset.Sample) ([]metrics.Record, rcache.Snapshot) {
	records, cacheSnap, _ := RunAdapt(cfg, tr, samples)
	return records, cacheSnap
}

// RunAdapt is RunStats plus the online-adaptation engine's final
// snapshot (nil when adaptation is off) so the drift soak can report
// inflation factors, drift events and recalibration counters.
func RunAdapt(cfg Config, tr *trace.Trace, samples []*dataset.Sample) ([]metrics.Record, rcache.Snapshot, *adapt.Snapshot) {
	if (cfg.Select == nil) == (cfg.Scheduler == nil) {
		panic("sim: exactly one of Select / Scheduler must be set")
	}
	if cfg.Scheduler != nil && cfg.Rewarder == nil {
		panic("sim: buffered mode needs a Rewarder")
	}
	if len(cfg.Classes) > 0 && cfg.Scheduler == nil {
		panic("sim: Classes require buffered mode")
	}
	if cfg.Cache.Enabled() && cfg.Scheduler == nil {
		panic("sim: Cache requires buffered mode")
	}
	if cfg.Adapt.Enabled() && cfg.Scheduler == nil {
		panic("sim: Adapt requires buffered mode")
	}
	s := &sim{
		cfg:     cfg,
		samples: samples,
		src:     rng.New(cfg.Seed ^ 0x51ba),
		tr:      tr,
		records: make([]metrics.Record, tr.N()),
		batch:   model.BatchCurve{Marginal: cfg.BatchMarginal},
	}
	m := cfg.Ensemble.M()
	replicas := cfg.Replicas
	if replicas == nil {
		replicas = make([]int, m)
		for j := range replicas {
			replicas[j] = 1
		}
	}
	margin := cfg.EstimateMargin
	//schemble:floateq-ok zero-value config sentinel: the field is set verbatim by callers, never computed
	if margin == 0 {
		margin = 0.1
	}
	if margin < 0 {
		margin = 0
	}
	s.byType = make([][]int, m)
	s.avail = make(core.Capacity, m)
	exec := make([]time.Duration, m)
	for j := 0; j < m; j++ {
		exec[j] = time.Duration(float64(cfg.Ensemble.Models[j].MeanLatency()) * (1 + margin))
		for r := 0; r < replicas[j]; r++ {
			s.byType[j] = append(s.byType[j], len(s.servers))
			s.servers = append(s.servers, &server{typeIdx: j, replica: r})
		}
		s.avail[j] = make([]time.Duration, replicas[j])
	}
	s.eng = engine.New[*query](engine.Config{
		Ensemble:    cfg.Ensemble,
		Scheduler:   cfg.Scheduler,
		Rewarder:    cfg.Rewarder,
		Estimator:   cfg.Estimator,
		Replicas:    replicas,
		Exec:        exec,
		Classes:     cfg.Classes,
		Admission:   cfg.Admission,
		Cache:       cfg.Cache,
		Adapt:       cfg.Adapt,
		ForgiveLate: cfg.ForceProcess,
	})
	s.exec = s.eng.Exec()
	for i := range tr.Arrivals {
		s.push(&event{at: tr.Arrivals[i].At, kind: evArrival, arrIdx: i})
	}
	for len(s.events) > 0 {
		e := heap.Pop(&s.events).(*event)
		s.now = e.at
		s.handle(e)
	}
	var snap rcache.Snapshot
	if c := s.eng.Cache(); c != nil {
		snap = c.Snapshot()
	}
	var asnap *adapt.Snapshot
	if a := s.eng.Adapt(); a != nil {
		asnap = a.Snapshot()
	}
	return s.records, snap, asnap
}

func (s *sim) push(e *event) {
	e.seq = s.seq
	s.seq++
	heap.Push(&s.events, e)
}

func (s *sim) handle(e *event) {
	switch e.kind {
	case evArrival:
		s.onArrival(e.arrIdx)
	case evReady:
		// Guard against double commitment: when a query's deadline falls
		// before arrival+ScoreDelay, onDeadline has already handled it
		// (ForceProcess commits it to the fastest model); re-buffering it
		// here would let the scheduler commit it a second time,
		// re-enqueueing tasks and resetting remaining/outs. A query whose
		// deadline already passed without ForceProcess can only miss, so
		// it never enters the buffer either.
		if e.q.committed || e.q.finished {
			break
		}
		if !s.cfg.ForceProcess && e.q.tk.Deadline <= s.now {
			break
		}
		s.eng.Buffer(e.q)
		s.schedulePlan()
	case evTaskDone:
		if a := s.eng.Adapt(); a != nil {
			// Observe before settling: the completion's latency is part
			// of the state the settlement (and a refit at an epoch
			// boundary) sees.
			sv := s.servers[e.server]
			a.ObserveLatency(s.now, sv.typeIdx, sv.replica, e.dur)
		}
		s.finishTask(e.q)
		s.onTaskDone(e.server)
	case evDeadline:
		s.onDeadline(e.q)
	case evPlan:
		s.planPending = false
		if s.eng.Plan(s.now, s) > 0 {
			// Committing may have left other planned queries adjacent to
			// idle servers; re-plan cheaply at the same instant.
			s.schedulePlan()
		}
	}
}

// onArrival admits a new query in the appropriate mode.
func (s *sim) onArrival(arrIdx int) {
	a := s.tr.Arrivals[arrIdx]
	q := &query{sample: s.samples[a.SampleIdx]}
	s.eng.Open(&q.tk, arrIdx, a.Class, a.At, a.Deadline-a.At)
	var className string
	if q.tk.Class >= 0 {
		className = s.eng.QoS().Class(q.tk.Class).Name
	}
	rec := &s.records[arrIdx]
	*rec = metrics.Record{
		QueryID:  arrIdx,
		SampleID: q.sample.ID,
		CameraID: q.sample.CameraID,
		Arrival:  q.tk.Arrival,
		Deadline: q.tk.Deadline,
		Missed:   true, // flipped on successful completion
		Class:    className,
	}
	if s.cfg.Select != nil {
		s.immediateAdmit(q)
		return
	}
	if !s.eng.Admit(s.now, &q.tk) {
		rec.Rejected = true
		return
	}
	// Fast path (Exp-5): empty buffer + an idle replica of the fastest
	// model -> bypass scoring and scheduling, dispatch now.
	if s.cfg.FastFirst && s.eng.Len() == 0 {
		if f := s.fastest(); s.Idle(s.now, f) {
			s.commit(q, ensemble.Single(f))
			return
		}
	}
	if v, hit := s.eng.Score(s.now, &q.tk, q.sample); hit {
		// The query finishes at arrival from the cached answer; no
		// ready/deadline events are ever pushed.
		q.finished = true
		rec.Done = s.now
		rec.Subset = v.Subset
		rec.Missed = false
		rec.Cached = true
		rec.Agreement = s.cfg.Scorer.Score(v.Output, s.cfg.Refs[q.sample.ID])
		return
	}
	// The query becomes schedulable once the discrepancy predictor has
	// scored it.
	s.push(&event{at: s.now + s.cfg.ScoreDelay, kind: evReady, q: q})
	s.push(&event{at: q.tk.Deadline, kind: evDeadline, q: q})
}

// immediateAdmit implements the arrival path of the immediate-selection
// baselines.
func (s *sim) immediateAdmit(q *query) {
	sub := s.cfg.Select(q.sample)
	if sub == ensemble.Empty {
		return // policy rejected outright; record stays missed
	}
	// Estimate completion on the least-backlogged replica of each
	// selected type — where commit will enqueue the tasks.
	var est time.Duration
	for _, j := range sub.Models() {
		sv := s.servers[s.leastBacklogged(j)]
		est = max(est, max(sv.backlogEnd, s.now)+s.exec[j])
	}
	if !s.cfg.ForceProcess && est > q.tk.Deadline {
		return // rejected: estimated completion exceeds the deadline
	}
	s.commit(q, sub)
}

// enqueue appends a task to a server's FIFO queue and starts it if idle.
// With batching enabled the backlog estimate uses the amortized per-item
// cost, so admission does not over-reject.
func (s *sim) enqueue(si int, t *task) {
	sv := s.servers[si]
	start := sv.backlogEnd
	if start < s.now {
		start = s.now
	}
	cost := s.exec[sv.typeIdx]
	if b := s.cfg.BatchSize; b > 1 {
		cost = s.batch.Amortized(cost, b)
	}
	sv.backlogEnd = start + cost
	sv.queue = append(sv.queue, t)
	s.maybeStart(si)
}

// maybeStart begins the next queued task (or batch) when the server is
// idle.
func (s *sim) maybeStart(si int) {
	sv := s.servers[si]
	if sv.running || len(sv.queue) == 0 {
		return
	}
	n := 1
	if s.cfg.BatchSize > 1 {
		n = s.cfg.BatchSize
		if n > len(sv.queue) {
			n = len(sv.queue)
		}
	}
	batch := sv.queue[:n]
	sv.queue = sv.queue[n:]
	dur := s.cfg.Ensemble.Models[sv.typeIdx].SampleLatency(s.src)
	if s.cfg.Drift != nil {
		dur = time.Duration(float64(dur) * s.cfg.Drift(sv.typeIdx, s.now))
	}
	dur = s.batch.Latency(dur, n)
	sv.running = true
	sv.busyUntil = s.now + dur
	for _, t := range batch {
		// The model's output is materialized when the batch completes.
		t.q.outs[sv.typeIdx] = s.cfg.Ensemble.Models[sv.typeIdx].Predict(t.q.sample)
		s.push(&event{at: sv.busyUntil, kind: evTaskDone, server: si, q: t.q, dur: dur})
	}
}

// onTaskDone advances the server's queue after its in-flight task finished.
func (s *sim) onTaskDone(si int) {
	sv := s.servers[si]
	sv.running = false
	// Re-anchor the backlog estimate on the actual completion time so
	// latency jitter cannot accumulate drift.
	sv.backlogEnd = s.now + time.Duration(len(sv.queue))*s.exec[sv.typeIdx]
	s.maybeStart(si)
	if s.cfg.Scheduler != nil {
		s.schedulePlan()
	}
}

// finishTask is invoked from handle for evTaskDone before queue advance;
// the query's last task settles it. Simulated models never fail, so the
// succeeded mask is the committed subset.
func (s *sim) finishTask(q *query) {
	q.remaining--
	if q.remaining > 0 || q.finished {
		return
	}
	q.finished = true
	v := s.eng.Settle(s.now, &q.tk, q.subset, q.subset, q.outs, s.now > q.tk.Deadline)
	rec := &s.records[q.tk.ID]
	rec.Done = s.now
	rec.Subset = v.Subset
	if v.Missed {
		return
	}
	rec.Missed = false
	rec.Degraded = v.Degraded
	rec.Agreement = s.cfg.Scorer.Score(v.Output, s.cfg.Refs[q.sample.ID])
}

// schedulePlan coalesces planning requests: at most one pending evPlan.
func (s *sim) schedulePlan() {
	if s.planPending || s.eng.Len() == 0 {
		return
	}
	var overhead time.Duration
	if s.cfg.SchedOverhead != nil {
		overhead = s.cfg.SchedOverhead(s.eng.Len())
	}
	s.planPending = true
	s.push(&event{at: s.now + overhead, kind: evPlan})
}

// Backlog implements engine.Executor: queued plus running tasks.
func (s *sim) Backlog() int {
	n := 0
	for _, sv := range s.servers {
		n += len(sv.queue)
		if sv.running {
			n++
		}
	}
	return n
}

// Capacity implements engine.Executor: every replica's backlog end.
func (s *sim) Capacity() core.Capacity {
	for j, sis := range s.byType {
		for i, si := range sis {
			s.avail[j][i] = s.servers[si].backlogEnd
		}
	}
	return s.avail
}

// Blocked implements engine.Executor: simulated models never fail.
func (s *sim) Blocked(time.Duration) ensemble.Subset { return ensemble.Empty }

// Idle implements engine.Executor: some replica of model type j is idle
// with an empty queue.
func (s *sim) Idle(_ time.Duration, j int) bool {
	for _, si := range s.byType[j] {
		sv := s.servers[si]
		if !sv.running && len(sv.queue) == 0 {
			return true
		}
	}
	return false
}

// Dispatch implements engine.Executor; the simulator never refuses.
func (s *sim) Dispatch(q *query, sub ensemble.Subset) bool {
	s.commit(q, sub)
	return true
}

// Reject implements engine.Executor; unreachable, Dispatch never refuses.
func (s *sim) Reject(*query) {}

// commit locks a query onto a subset and enqueues its tasks. Committing
// is idempotent-by-refusal: a second commit would re-enqueue tasks and
// reset remaining/outs, so it is rejected outright.
func (s *sim) commit(q *query, sub ensemble.Subset) {
	if q.committed {
		return
	}
	q.committed = true
	q.subset = sub
	q.remaining = sub.Size()
	q.outs = make([]model.Output, s.cfg.Ensemble.M())
	for _, j := range sub.Models() {
		s.enqueue(s.leastBacklogged(j), &task{q: q, typeIdx: j})
	}
}

// leastBacklogged returns the replica of model type j whose backlog ends
// earliest, ties broken by deployment order (the replica-pool analogue of
// "the model's queue").
func (s *sim) leastBacklogged(j int) int {
	best := -1
	for _, si := range s.byType[j] {
		if best < 0 || s.servers[si].backlogEnd < s.servers[best].backlogEnd {
			best = si
		}
	}
	return best
}

// fastest returns the model type with the smallest planning cost, ties
// broken by index.
func (s *sim) fastest() int {
	f := 0
	for j := 1; j < len(s.exec); j++ {
		if s.exec[j] < s.exec[f] {
			f = j
		}
	}
	return f
}

// onDeadline handles a buffered query's deadline passing uncommitted.
func (s *sim) onDeadline(q *query) {
	if q.committed || q.finished {
		return
	}
	s.eng.Remove(q)
	if s.cfg.ForceProcess {
		// Fall back to the fastest single model; latency is recorded,
		// the query is not counted as missed.
		s.commit(q, ensemble.Single(s.fastest()))
	}
	// Otherwise the record simply stays missed.
}
