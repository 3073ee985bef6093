package engine

import (
	"slices"
	"testing"
	"time"

	"schemble/internal/adapt"
	"schemble/internal/core"
	"schemble/internal/dataset"
	"schemble/internal/ensemble"
	"schemble/internal/model"
	"schemble/internal/obsv"
	"schemble/internal/qos"
	"schemble/internal/rcache"
)

// req is the test request type.
type req struct{ tk Ticket }

func (r *req) Ticket() *Ticket { return &r.tk }

// fakeExec is a scripted Executor: no goroutines, no clock.
type fakeExec struct {
	backlog int
	avail   core.Capacity
	blocked ensemble.Subset
	// idle is the set of models with a free replica.
	idle ensemble.Subset
	// refuse lists request IDs whose dispatch is refused.
	refuse map[int]bool

	dispatched []int // request IDs in commit order
	subsets    map[int]ensemble.Subset
	rejected   []int
}

func (f *fakeExec) Backlog() int                          { return f.backlog }
func (f *fakeExec) Capacity() core.Capacity               { return f.avail }
func (f *fakeExec) Blocked(time.Duration) ensemble.Subset { return f.blocked }
func (f *fakeExec) Idle(_ time.Duration, k int) bool      { return f.idle.Contains(k) }
func (f *fakeExec) Reject(r *req)                         { f.rejected = append(f.rejected, r.tk.ID) }

func (f *fakeExec) Dispatch(r *req, sub ensemble.Subset) bool {
	if f.refuse[r.tk.ID] {
		return false
	}
	f.dispatched = append(f.dispatched, r.tk.ID)
	if f.subsets == nil {
		f.subsets = map[int]ensemble.Subset{}
	}
	f.subsets[r.tk.ID] = sub
	return true
}

// scriptSched returns a fixed plan and records what it was asked.
type scriptSched struct {
	plan  map[int]ensemble.Subset
	ids   []int
	avail core.Capacity
}

func (s *scriptSched) Name() string { return "script" }

func (s *scriptSched) Schedule(_ time.Duration, qs []core.QueryInfo, avail core.Capacity, _ []time.Duration, _ core.Rewarder) core.Plan {
	s.ids = s.ids[:0]
	for _, q := range qs {
		s.ids = append(s.ids, q.ID)
	}
	s.avail = avail
	return core.Plan{Assignments: s.plan}
}

type flatRewarder struct{}

func (flatRewarder) Reward(float64, ensemble.Subset) float64 { return 1 }

// testEnsemble has three classification models at 10, 20 and 40ms.
func testEnsemble() *ensemble.Ensemble {
	var ms []model.Model
	for i, lat := range []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond} {
		ms = append(ms, model.NewSynthetic(model.SyntheticConfig{
			Name: string(rune('a' + i)), Task: dataset.Classification, Latency: lat,
		}))
	}
	return ensemble.New(dataset.Classification, ms, &ensemble.Average{}, nil)
}

var testExec = []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond}

func newTestEngine(t *testing.T, sched core.Scheduler, classes []qos.Class) *Engine[*req] {
	t.Helper()
	return New[*req](Config{
		Ensemble:  testEnsemble(),
		Scheduler: sched,
		Rewarder:  flatRewarder{},
		Replicas:  []int{1, 1, 1},
		Exec:      testExec,
		Classes:   classes,
	})
}

func oneSlotEach() core.Capacity {
	return core.Capacity{{0}, {0}, {0}}
}

// buffered opens and buffers one request per (id, budget) pair, all
// arriving at 0.
func buffered(e *Engine[*req], class string, ids []int, budgets []time.Duration) []*req {
	var out []*req
	for i, id := range ids {
		r := &req{}
		e.Open(&r.tk, id, class, 0, budgets[i])
		e.Buffer(r)
		out = append(out, r)
	}
	return out
}

func TestBottleneckCapacity(t *testing.T) {
	for _, tc := range []struct {
		name     string
		lat      []time.Duration
		replicas []int
		want     float64
	}{
		{"single model", []time.Duration{100 * time.Millisecond}, []int{1}, 10},
		{"slowest pool bounds", []time.Duration{10 * time.Millisecond, 50 * time.Millisecond}, []int{1, 1}, 20},
		{"replicas widen a pool", []time.Duration{10 * time.Millisecond, 50 * time.Millisecond}, []int{1, 4}, 80},
		{"mixed replica counts", []time.Duration{20 * time.Millisecond, 50 * time.Millisecond, 25 * time.Millisecond}, []int{2, 3, 1}, 40},
		{"zero-latency model skipped", []time.Duration{0, 50 * time.Millisecond}, []int{1, 1}, 20},
		{"all-zero fleet falls back to 1", []time.Duration{0, 0}, []int{3, 3}, 1},
	} {
		if got := bottleneckCapacity(tc.lat, tc.replicas); got < tc.want*(1-1e-9) || got > tc.want*(1+1e-9) {
			t.Errorf("%s: bottleneckCapacity = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestOpenResolvesClassAndDeadline(t *testing.T) {
	classes := []qos.Class{
		{Name: "gold", Priority: 1, Deadline: 300 * time.Millisecond},
		{Name: "bronze", Priority: 0, Deadline: 80 * time.Millisecond},
	}
	e := newTestEngine(t, &scriptSched{}, classes)
	for _, tc := range []struct {
		class     string
		budget    time.Duration
		wantClass int
		wantDL    time.Duration
	}{
		{"gold", 50 * time.Millisecond, 0, 1050 * time.Millisecond},
		{"gold", 0, 0, 1300 * time.Millisecond},
		{"", -time.Millisecond, 1, 1080 * time.Millisecond},
		{"unknown", 0, 1, 1080 * time.Millisecond},
	} {
		var tk Ticket
		e.Open(&tk, 9, tc.class, time.Second, tc.budget)
		if tk.ID != 9 || tk.Class != tc.wantClass || tk.Arrival != time.Second || tk.Deadline != tc.wantDL {
			t.Errorf("Open(%q, %v) = %+v, want class %d deadline %v", tc.class, tc.budget, tk, tc.wantClass, tc.wantDL)
		}
		if !e.Admit(time.Second, &tk) {
			t.Errorf("idle engine shed class %q", tc.class)
		}
	}
	classless := newTestEngine(t, &scriptSched{}, nil)
	var tk Ticket
	classless.Open(&tk, 1, "gold", 0, -time.Millisecond)
	if tk.Class != -1 || tk.Deadline != -time.Millisecond || !classless.Admit(0, &tk) {
		t.Errorf("classless Open/Admit = %+v", tk)
	}
}

type constEstimator float64

func (c constEstimator) Predict(*dataset.Sample) float64 { return float64(c) }

// firstFeatureKeyer keys a query by its first feature; an empty vector is
// unkeyable.
type firstFeatureKeyer struct{}

func (firstFeatureKeyer) Key(f []float64) (int, bool) {
	if len(f) == 0 {
		return 0, false
	}
	return int(f[0]), true
}

func TestScoreAndCacheGate(t *testing.T) {
	e := newTestEngine(t, &scriptSched{}, nil)
	var tk Ticket
	if _, hit := e.Score(0, &tk, &dataset.Sample{}); hit || tk.Score != defaultScore || tk.RawScore != defaultScore || tk.Cache != "" {
		t.Fatalf("estimator-less, cache-less Score: hit=%v ticket %+v", hit, tk)
	}

	e = New[*req](Config{
		Ensemble:  testEnsemble(),
		Scheduler: &scriptSched{},
		Rewarder:  flatRewarder{},
		Estimator: constEstimator(0.2),
		Replicas:  []int{1, 1, 1},
		Exec:      testExec,
		Cache:     rcache.Config{Keyer: firstFeatureKeyer{}, DifficultyMax: 0.5},
	})
	e.Cache().Fill(0, 3, rcache.Value{Subset: ensemble.Single(1)})
	for _, tc := range []struct {
		name      string
		features  []float64
		est       float64
		outcome   string
		hit       bool
		cacheable bool
	}{
		{"hit", []float64{3}, 0.2, obsv.CacheOutcomeHit, true, false},
		{"miss", []float64{4}, 0.2, obsv.CacheOutcomeMiss, false, true},
		{"unkeyable bypass", nil, 0.2, obsv.CacheOutcomeBypass, false, false},
		{"too hard bypass", []float64{3}, 0.9, obsv.CacheOutcomeBypass, false, false},
	} {
		e.est = constEstimator(tc.est)
		var tk Ticket
		v, hit := e.Score(time.Millisecond, &tk, &dataset.Sample{Features: tc.features})
		if hit != tc.hit || tk.Cache != tc.outcome || tk.Cacheable != tc.cacheable || tk.Score != tc.est {
			t.Errorf("%s: hit=%v ticket %+v", tc.name, hit, tk)
		}
		if hit && v.Subset != ensemble.Single(1) {
			t.Errorf("%s: hit value %+v", tc.name, v)
		}
		if tc.cacheable && tk.CacheKey != 4 {
			t.Errorf("%s: cache key %d, want 4", tc.name, tk.CacheKey)
		}
	}
}

// TestScoreCalibratesWithAdapt pins that the raw score survives on the
// ticket while the planning score passes through the calibration map.
func TestScoreCalibratesWithAdapt(t *testing.T) {
	e := New[*req](Config{
		Ensemble:  testEnsemble(),
		Scheduler: &scriptSched{},
		Rewarder:  flatRewarder{},
		Estimator: constEstimator(0.3),
		Replicas:  []int{1, 1, 1},
		Exec:      testExec,
		Adapt:     adapt.Config{Enable: true},
	})
	var tk Ticket
	e.Score(0, &tk, &dataset.Sample{})
	if tk.RawScore != 0.3 || tk.Score != e.Adapt().Calibrate(0.3) {
		t.Errorf("ticket scores raw %v planned %v", tk.RawScore, tk.Score)
	}
}

// TestPlanCommitOrderAndRefusal walks a classless pass: commits follow
// EDF order (deadline, then ID) even when buffer order and budgets
// disagree, unplanned and blocked-only subsets stay buffered, blocked
// models are stripped and pushed out of the capacity view, and a refused
// dispatch leaves the buffer as a rejection.
func TestPlanCommitOrderAndRefusal(t *testing.T) {
	a, b, c := ensemble.Single(0), ensemble.Single(1), ensemble.Single(2)
	for _, tc := range []struct {
		name    string
		ids     []int
		budgets []time.Duration
		plan    map[int]ensemble.Subset
		blocked ensemble.Subset
		idle    ensemble.Subset
		refuse  map[int]bool

		wantOrder    []int
		wantSubsets  map[int]ensemble.Subset
		wantRejected []int
		wantLeft     []int
	}{
		{
			name:    "mixed budgets commit earliest deadline first",
			ids:     []int{1, 2, 3, 4},
			budgets: []time.Duration{300 * time.Millisecond, 50 * time.Millisecond, 120 * time.Millisecond, 50 * time.Millisecond},
			plan:    map[int]ensemble.Subset{1: a, 2: b, 3: c, 4: a.With(1)},
			idle:    ensemble.Full(3),

			wantOrder:   []int{2, 4, 3, 1},
			wantSubsets: map[int]ensemble.Subset{1: a, 2: b, 3: c, 4: a.With(1)},
			wantLeft:    []int{},
		},
		{
			name:    "unplanned and busy stay buffered",
			ids:     []int{1, 2, 3},
			budgets: []time.Duration{100 * time.Millisecond, 100 * time.Millisecond, 100 * time.Millisecond},
			plan:    map[int]ensemble.Subset{1: a, 3: c},
			idle:    a,

			wantOrder:   []int{1},
			wantSubsets: map[int]ensemble.Subset{1: a},
			wantLeft:    []int{2, 3},
		},
		{
			name:    "blocked models stripped",
			ids:     []int{1, 2},
			budgets: []time.Duration{100 * time.Millisecond, 100 * time.Millisecond},
			plan:    map[int]ensemble.Subset{1: a.With(2), 2: c},
			blocked: c,
			idle:    ensemble.Full(3),

			wantOrder:   []int{1},
			wantSubsets: map[int]ensemble.Subset{1: a},
			wantLeft:    []int{2},
		},
		{
			name:    "refused dispatch becomes a rejection",
			ids:     []int{1, 2},
			budgets: []time.Duration{100 * time.Millisecond, 200 * time.Millisecond},
			plan:    map[int]ensemble.Subset{1: a, 2: b},
			idle:    ensemble.Full(3),
			refuse:  map[int]bool{1: true},

			wantOrder:    []int{2},
			wantSubsets:  map[int]ensemble.Subset{2: b},
			wantRejected: []int{1},
			wantLeft:     []int{},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sched := &scriptSched{plan: tc.plan}
			e := newTestEngine(t, sched, nil)
			buffered(e, "", tc.ids, tc.budgets)
			ex := &fakeExec{avail: oneSlotEach(), blocked: tc.blocked, idle: tc.idle, refuse: tc.refuse}
			left := len(tc.ids) - e.Plan(time.Millisecond, ex)
			if !slices.Equal(ex.dispatched, tc.wantOrder) {
				t.Errorf("commit order %v, want %v", ex.dispatched, tc.wantOrder)
			}
			for id, want := range tc.wantSubsets {
				if ex.subsets[id] != want {
					t.Errorf("request %d committed to %v, want %v", id, ex.subsets[id].Models(), want.Models())
				}
			}
			if !slices.Equal(ex.rejected, tc.wantRejected) {
				t.Errorf("rejected %v, want %v", ex.rejected, tc.wantRejected)
			}
			var gotLeft []int
			e.Flush(func(r *req) { gotLeft = append(gotLeft, r.tk.ID) })
			if left != len(tc.wantLeft) || !slices.Equal(gotLeft, tc.wantLeft) {
				t.Errorf("buffer after pass %v (%d), want %v", gotLeft, left, tc.wantLeft)
			}
			if !slices.Equal(sched.ids, tc.ids) {
				t.Errorf("scheduler saw IDs %v, want the stable IDs %v", sched.ids, tc.ids)
			}
			for k, slots := range sched.avail {
				if tc.blocked.Contains(k) != (slots[0] == time.Millisecond+blockHorizon) {
					t.Errorf("model %d capacity %v with blocked mask %v", k, slots, tc.blocked.Models())
				}
			}
			if ex.avail[2][0] != 0 {
				t.Error("the capacity push wrote through to the executor's view")
			}
		})
	}
}

// TestPlanSlack pins the controller's slack signal: the fraction of the
// planned buffer left unplaced, fed to the next pass.
func TestPlanSlack(t *testing.T) {
	for _, tc := range []struct {
		name   string
		planOK int
		n      int
		want   float64
	}{
		{"all placed", 4, 4, 0},
		{"quarter placed", 1, 4, 0.75},
		{"none placed", 0, 4, 1},
	} {
		plan := map[int]ensemble.Subset{}
		ids := make([]int, tc.n)
		budgets := make([]time.Duration, tc.n)
		for i := range ids {
			ids[i] = i + 1
			budgets[i] = 100 * time.Millisecond
			if i < tc.planOK {
				plan[i+1] = ensemble.Single(0)
			}
		}
		e := newTestEngine(t, &scriptSched{plan: plan}, nil)
		buffered(e, "", ids, budgets)
		ex := &fakeExec{avail: oneSlotEach(), idle: ensemble.Full(3)}
		if got := e.Plan(0, ex); got != tc.planOK {
			t.Errorf("%s: %d left the buffer, want %d", tc.name, got, tc.planOK)
		}
		if e.slack != tc.want || e.Len() != tc.n-tc.planOK {
			t.Errorf("%s: slack %v (buffer %d), want %v", tc.name, e.slack, e.Len(), tc.want)
		}
		// An empty-buffer pass only observes: slack and buffer unchanged.
		e.Flush(func(*req) {})
		if e.Plan(time.Millisecond, ex) != 0 || e.slack != tc.want {
			t.Errorf("%s: empty pass moved slack to %v", tc.name, e.slack)
		}
	}
}

// TestPlanClassPartition drives the ladder to rung 3 over four classes, so
// they sit at full, capped, greedy and shed. The configured scheduler
// plans only the full and capped classes; greedy and shed (clamped to
// greedy) go to the greedy planner; the capped class's subset is
// truncated to the cheapest half of the ensemble.
func TestPlanClassPartition(t *testing.T) {
	classes := []qos.Class{
		{Name: "gold", Priority: 3, Deadline: time.Second},
		{Name: "silver", Priority: 2, Deadline: time.Second},
		{Name: "bronze", Priority: 1, Deadline: time.Second},
		{Name: "tin", Priority: 0, Deadline: time.Second},
	}
	full := ensemble.Full(3)
	sched := &scriptSched{plan: map[int]ensemble.Subset{1: full, 2: full, 3: full, 4: full}}
	e := newTestEngine(t, sched, classes)
	ex := &fakeExec{avail: oneSlotEach(), idle: full, backlog: 1 << 20}
	now := time.Duration(0)
	for e.QoS().Ladder() < 3 {
		now += time.Second
		e.Plan(now, ex)
	}
	wantLevel := map[string]qos.Level{"gold": qos.LevelFull, "silver": qos.LevelCapped, "bronze": qos.LevelGreedy, "tin": qos.LevelGreedy}
	var reqs []*req
	for i, cl := range classes {
		r := &req{}
		e.Open(&r.tk, i+1, cl.Name, now, 0)
		e.Buffer(r)
		reqs = append(reqs, r)
	}
	if got := e.QoS().Level(3); got != qos.LevelShed {
		t.Fatalf("tin at %v, want shed", got)
	}
	if e.Plan(now, ex) != 4 {
		t.Fatalf("pass committed %v, want all four", ex.dispatched)
	}
	if !slices.Equal(sched.ids, []int{1, 2}) {
		t.Errorf("configured scheduler planned %v, want gold and silver only", sched.ids)
	}
	for i, r := range reqs {
		name := classes[i].Name
		if r.tk.Level != wantLevel[name] {
			t.Errorf("%s committed at level %v, want %v", name, r.tk.Level, wantLevel[name])
		}
	}
	if got := ex.subsets[1]; got != full {
		t.Errorf("gold subset %v, want full", got.Models())
	}
	if got := ex.subsets[2]; got != ensemble.Single(0).With(1) {
		t.Errorf("capped silver subset %v, want the two cheapest models", got.Models())
	}
	for _, id := range []int{3, 4} {
		if got := ex.subsets[id]; got.Size() != 1 {
			t.Errorf("greedy request %d committed to %v, want one model", id, got.Models())
		}
	}
}

func TestBufferRemove(t *testing.T) {
	e := newTestEngine(t, &scriptSched{}, nil)
	rs := buffered(e, "", []int{1, 2, 3}, []time.Duration{1, 1, 1})
	if !e.Remove(rs[1]) || e.Remove(rs[1]) || e.Len() != 2 {
		t.Fatalf("Remove: buffer len %d", e.Len())
	}
	var ids []int
	e.Flush(func(r *req) { ids = append(ids, r.tk.ID) })
	if !slices.Equal(ids, []int{1, 3}) || e.Len() != 0 {
		t.Errorf("Flush handed %v, left %d", ids, e.Len())
	}
}

// countScorer counts recalibration feeds.
type countScorer struct{ n int }

func (c *countScorer) Score([]model.Output, model.Output) float64 { c.n++; return 0.5 }

// TestSettleTable is the full settlement rule: succeeded mask × failures
// × ladder level × lateness × late forgiveness → outcome, recalibration
// feed and cache fill.
func TestSettleTable(t *testing.T) {
	full := ensemble.Full(3)
	two := ensemble.Single(0).With(1)
	type want struct{ missed, degraded, fed, filled bool }
	for _, tc := range []struct {
		name    string
		sub, ok ensemble.Subset
		level   qos.Level
		late    bool
		forgive bool
		want    want
	}{
		{"full on time", full, full, qos.LevelFull, false, false, want{fed: true, filled: true}},
		{"partial plan on time", two, two, qos.LevelFull, false, false, want{filled: true}},
		{"a model failed", full, two, qos.LevelFull, false, false, want{degraded: true}},
		{"ladder-capped plan", two, two, qos.LevelCapped, false, false, want{degraded: true}},
		{"greedy plan", ensemble.Single(0), ensemble.Single(0), qos.LevelGreedy, false, false, want{degraded: true}},
		{"late", full, full, qos.LevelFull, true, false, want{missed: true}},
		{"late and failed", full, two, qos.LevelFull, true, false, want{missed: true}},
		{"nothing succeeded", full, ensemble.Empty, qos.LevelFull, false, false, want{missed: true}},
		{"nothing succeeded, forgiven", full, ensemble.Empty, qos.LevelFull, true, true, want{missed: true}},
		{"late, forgiven", full, full, qos.LevelFull, true, true, want{}},
		{"late capped, forgiven", two, two, qos.LevelCapped, true, true, want{degraded: true}},
	} {
		scorer := &countScorer{}
		e := New[*req](Config{
			Ensemble:    testEnsemble(),
			Scheduler:   &scriptSched{},
			Rewarder:    flatRewarder{},
			Replicas:    []int{1, 1, 1},
			Exec:        testExec,
			Cache:       rcache.Config{Keyer: firstFeatureKeyer{}, DifficultyMax: 1},
			Adapt:       adapt.Config{Enable: true, Scorer: scorer},
			ForgiveLate: tc.forgive,
		})
		tk := Ticket{Level: tc.level, Cacheable: true, CacheKey: 5, RawScore: 0.4}
		outs := make([]model.Output, 3)
		for k := range outs {
			if tc.ok.Contains(k) {
				outs[k] = model.Output{Probs: []float64{0.25, 0.75}}
			}
		}
		v := e.Settle(time.Second, &tk, tc.sub, tc.ok, outs, tc.late)
		got := want{missed: v.Missed, degraded: v.Degraded, fed: scorer.n > 0, filled: e.Cache().Snapshot().Fills > 0}
		if got != tc.want {
			t.Errorf("%s: got %+v, want %+v", tc.name, got, tc.want)
		}
		wantSubset := tc.ok
		if tc.ok == ensemble.Empty {
			wantSubset = tc.sub
		}
		if v.Subset != wantSubset {
			t.Errorf("%s: verdict subset %v, want %v", tc.name, v.Subset.Models(), wantSubset.Models())
		}
		if tc.ok != ensemble.Empty && len(v.Output.Probs) != 2 {
			t.Errorf("%s: no aggregated output", tc.name)
		}
	}
}

// TestPlanAllocatesNothing pins the pass's scratch reuse: a steady pass
// over a buffer that cannot commit, with a blocked model, allocates
// nothing once the scratch has grown.
func TestPlanAllocatesNothing(t *testing.T) {
	e := newTestEngine(t, &scriptSched{plan: map[int]ensemble.Subset{}}, nil)
	ids := make([]int, 32)
	budgets := make([]time.Duration, 32)
	for i := range ids {
		ids[i], budgets[i] = i+1, time.Duration(32-i)*time.Millisecond
	}
	buffered(e, "", ids, budgets)
	ex := &fakeExec{avail: oneSlotEach(), blocked: ensemble.Single(2)}
	e.Plan(0, ex)
	if n := testing.AllocsPerRun(50, func() { e.Plan(time.Millisecond, ex) }); n != 0 {
		t.Errorf("planning pass allocates %v times", n)
	}
}
