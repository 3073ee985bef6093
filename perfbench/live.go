package main

import (
	"context"
	"time"

	"schemble/internal/dataset"
	"schemble/internal/ensemble"
	"schemble/internal/model"
	"schemble/internal/pipeline"
	"schemble/internal/serve"
	"schemble/internal/trace"
)

// liveShape is one closed-loop workload: a single generator goroutine
// keeps window requests outstanding through serve.Server.Submit.
type liveShape struct {
	replicas int
	window   int
	// deadline is the relative (virtual) deadline of every request: more
	// than 100 times the loop's p99 latency, so none expires. The runtime
	// keeps each request reachable from its deadline timer until the
	// timer fires, so the deadline also sets the live heap: a deadline
	// longer than the run would grow it with every request sent.
	deadline time.Duration
}

var (
	// handoffShape makes the runtime itself the bottleneck: with 16
	// replicas per model and near-zero model time, the coordinator's
	// wake-ups, channel hops and per-request allocations set the rate.
	// Its deadline is 0.5 s of wall time against a p99 of about 4 ms.
	handoffShape = liveShape{replicas: 16, window: 64, deadline: 1000 * time.Second}
	// planShape puts the live loop in the DP re-solve regime: one replica
	// per model and a deep buffer, so planning passes dominate. Its
	// deadline is 2 s of wall time against a p99 of about 1 s.
	planShape = liveShape{replicas: 1, window: 256, deadline: 4000 * time.Second}
)

// closedScale is the closed loops' TimeScale: model time shrinks to
// 10–45 µs of wall time per task, so the runtime's own overhead shows.
const closedScale = 0.0005

// stallAfter is how long the closed loop waits for a single result before
// it reports the runtime as stuck.
const stallAfter = 30 * time.Second

// closedWarmup outlasts every shape's deadline in wall time, so deadline
// timers are already firing when the window opens, and gives the heap and
// the GC pacer time to settle: the first seconds of a handoff loop run up
// to 20% faster than the steady state.
const closedWarmup = 2500 * time.Millisecond

// warmup is the unmeasured lead-in of a phase measuring seconds: a
// quarter of the measured time, at most limit.
func warmup(seconds float64, limit time.Duration) time.Duration {
	w := time.Duration(seconds / 4 * float64(time.Second))
	if w > limit {
		w = limit
	}
	return w
}

// phase is one complete run of a workload against one runtime instance:
// the measured window inside it, plus whole-phase totals for the traced
// per-layer ratios.
type phase struct {
	w          *window
	begin, end usage
	// requests counts every request of the phase, warm-up and drain
	// included.
	requests int64
}

func (p *phase) wall() time.Duration { return p.end.at.Sub(p.begin.at) }

func (p *phase) cpuPerReq() float64 { return per(us(p.end.cpu-p.begin.cpu), float64(p.requests)) }

// newServer builds the closed-loop runtime over the given layers: DP
// scheduler, no cache, observability, classes, adaptation or faults.
func newServer(l *layers, sh liveShape, seed uint64) *serve.Server {
	replicas := make([]int, l.ensemble.M())
	for k := range replicas {
		replicas[k] = sh.replicas
	}
	return serve.New(serve.Config{
		Ensemble:  l.ensemble,
		Scheduler: l.scheduler,
		Rewarder:  l.rewarder,
		Estimator: l.estimator,
		TimeScale: closedScale,
		Replicas:  replicas,
		Seed:      seed,
	})
}

// runClosed drives a closed-loop workload.
func runClosed(o options, sh liveShape, rep *report) error {
	type rig struct {
		arts *pipeline.Artifacts
		srv  *serve.Server
	}
	if !o.trace {
		rg, setupS, err := timedSetups(o.setups, func() (rig, error) {
			a := fit(o.size)
			srv := newServer(newLayers(a, false), sh, o.seed)
			srv.Start(context.Background())
			return rig{a, srv}, nil
		}, func(r rig) { r.srv.Stop() })
		if err != nil {
			return err
		}
		p := closedLoop(o, sh, newDeployment(rg.arts), rg.srv, rep)
		rep.endToEnd(setupS, p.w)
		return nil
	}
	a := fit(o.size)
	d := newDeployment(a)
	base := newServer(newLayers(a, false), sh, o.seed)
	base.Start(context.Background())
	plain := closedLoop(o, sh, d, base, rep)
	l := newLayers(a, true)
	srv := newServer(l, sh, o.seed)
	srv.Start(context.Background())
	stop := pollStats(srv)
	traced := closedLoop(o, sh, d, srv, rep)
	polled := stop()
	rep.serveLayers(l, traced, polled, closedScale)
	rep.layer("trace.overhead_share", per(traced.cpuPerReq(), plain.cpuPerReq())-1)
	return nil
}

// closedLoop runs one closed-loop phase against a started server and
// stops the server when the phase has drained. Requests cycle through a
// seeded permutation of the serving pool; each ring slot holds one
// outstanding request, and the generator waits on the oldest. Latency is
// timed from just before Submit until the generator receives the result.
func closedLoop(o options, sh liveShape, d *deployment, srv *serve.Server, rep *report) *phase {
	pool := d.arts.Serve
	order := trace.Stream(o.seed, "closed-loop order").Perm(len(pool))
	type slot struct {
		ch   <-chan serve.Result
		smp  *dataset.Sample
		sent time.Time
	}
	ring := make([]slot, sh.window)
	// retired[i] is the channel ring[i] held before its last reuse; it is
	// checked for a second result when the slot comes round again.
	retired := make([]<-chan serve.Result, sh.window)
	p := &phase{w: newWindow(o.seconds)}
	next := 0
	submit := func(i int) {
		smp := pool[order[next%len(order)]]
		next++
		p.requests++
		ring[i] = slot{smp: smp, sent: time.Now()}
		ring[i].ch = srv.Submit(smp, sh.deadline)
	}
	stall := time.NewTimer(stallAfter)
	defer stall.Stop()

	p.begin = snapshot()
	warmEnd := p.begin.at.Add(warmup(o.seconds, closedWarmup))
	for i := range ring {
		submit(i)
	}
	for outstanding, head := len(ring), 0; outstanding > 0; head = (head + 1) % len(ring) {
		sl := &ring[head]
		var res serve.Result
		select {
		case res = <-sl.ch:
		case <-stall.C:
			rep.fail("no result within %v: %d requests never resolved", stallAfter, outstanding)
			srv.Stop()
			p.end = snapshot()
			return p
		}
		now := time.Now()
		stall.Reset(stallAfter)
		outstanding--
		if (len(p.w.cuts) == 0 && !now.Before(warmEnd)) || p.w.due(now) {
			p.w.cut()
		}
		rep.result.Attempted++
		score, served := d.check(rep, sl.smp, res.Output, res.Subset, res.Missed, res.Cached, res.Degraded)
		if p.w.open() {
			lat := now.Sub(sl.sent)
			p.w.record(len(p.w.cuts)-1, lat, added(d, lat, res.Subset, res.Missed, res.Cached, closedScale), score, served, res.Missed)
		}
		if old := retired[head]; old != nil {
			select {
			case <-old:
				rep.fail("a request yielded a second result")
			default:
			}
		}
		retired[head] = sl.ch
		if !p.w.complete() {
			submit(head)
			outstanding++
		}
	}
	srv.Stop()
	p.end = snapshot()
	for i := range ring {
		for _, ch := range []<-chan serve.Result{ring[i].ch, retired[i]} {
			select {
			case <-ch:
				rep.fail("a request yielded a second result after shutdown")
			default:
			}
		}
	}
	rep.conserved(srv.Stats(), p.requests)
	return p
}

// added is a result's wall latency above the model time it could not
// avoid: TimeScale × the largest profiled mean latency in its subset. A
// cache hit has no model time. Misses have none to subtract either.
func added(d *deployment, lat time.Duration, sub ensemble.Subset, missed, cached bool, scale float64) time.Duration {
	if missed || cached || int(sub) >= len(d.maxMean) {
		return lat
	}
	return lat - time.Duration(scale*float64(d.maxMean[sub]))
}

// check verifies one result against the reference answers, counting any
// violation as a failed operation, and returns its agreement with the full
// ensemble (0 for a miss) and whether it was answered.
func (d *deployment) check(rep *report, smp *dataset.Sample, out model.Output, sub ensemble.Subset, missed, cached, degraded bool) (score float64, served bool) {
	if missed {
		return 0, false
	}
	row := d.expect[smp.ID]
	switch {
	case row == nil:
		rep.fail("sample %d is not in the serving pool", smp.ID)
	case sub == ensemble.Empty || int(sub) >= len(row):
		rep.fail("sample %d served by invalid subset %v", smp.ID, sub)
	case !cached && !degraded && !sameOutput(out, row[sub]):
		rep.fail("sample %d subset %v: output differs from Ensemble.PredictSubset", smp.ID, sub)
	}
	if len(out.Probs) == 0 {
		rep.fail("sample %d served without an output", smp.ID)
		return 0, true
	}
	return d.arts.Scorer.Score(out, d.arts.Refs[smp.ID]), true
}

// conserved checks the runtime's counters once a phase has drained: every
// submitted request resolved exactly once, and the runtime saw exactly the
// requests the benchmark sent.
func (r *report) conserved(st serve.Stats, sent int64) {
	sum := st.Served + st.Degraded + st.Missed + st.Rejected
	if st.Submitted != sum {
		r.fail("stats not conserved: submitted %d != served %d + degraded %d + missed %d + rejected %d",
			st.Submitted, st.Served, st.Degraded, st.Missed, st.Rejected)
	}
	if st.Submitted != uint64(sent) {
		r.fail("runtime counted %d submitted requests, benchmark sent %d", st.Submitted, sent)
	}
}
