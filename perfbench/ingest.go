package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"sync"
	"time"

	"schemble/internal/cluster"
	"schemble/internal/dataset"
	"schemble/internal/ensemble"
	"schemble/internal/httpserve"
	"schemble/internal/model"
	"schemble/internal/obsv"
	"schemble/internal/pipeline"
	"schemble/internal/rcache"
	"schemble/internal/rng"
	"schemble/internal/serve"
	"schemble/internal/trace"
)

const (
	// ingestScale is the open loop's TimeScale: model time is 1–4.5 ms of
	// wall time per task, and a 150 ms virtual deadline is 7.5 ms of wall
	// time, short enough to expire under load.
	ingestScale    = 0.05
	ingestDeadline = 150 * time.Millisecond
	// ingestLoad is the offered rate as a multiple of the bottleneck
	// model's capacity. Near 2× the generator keeps up; at 6× its lag
	// dominates the tail.
	ingestLoad = 2.0
	// zipfS skews sample popularity so the result cache has a hot head.
	// zipfV offsets the ranks so that head is some hundred samples wide:
	// with the default offset of 1 the single hottest sample takes 22% of
	// the traffic, and whether the seed happens to make it a hard
	// (cache-bypassing) sample swings the bypass share by ±12 points from
	// seed to seed. At 20 the hottest takes 1.7% and the swing is ±3.
	zipfS = 1.2
	zipfV = 20
	// The cache is configured as cmd/schemble-cache configures it.
	cacheRegions = 64
	cacheSize    = 1024
	// traceRing turns observability on with the server command's default
	// ring size.
	traceRing = 512
	// ingestWarmup lets the result cache fill before the window opens.
	ingestWarmup = time.Second
	// drainAfter bounds the wait for in-flight requests after the last
	// send; every request resolves by its 7.5 ms deadline long before.
	drainAfter = 30 * time.Second
)

// ingestCache builds the result-cache configuration: a k-means centroid
// keyer over the pool's features and a difficulty threshold at the pool's
// 75th-percentile predicted score, so the hardest quartile always runs
// the ensemble.
func ingestCache(a *pipeline.Artifacts) (rcache.Config, error) {
	points := make([][]float64, len(a.Serve))
	scores := make([]float64, len(a.Serve))
	for i, s := range a.Serve {
		points[i] = s.Features
		scores[i] = a.Predictor.Predict(s)
	}
	sort.Float64s(scores)
	km, err := cluster.Fit(points, cacheRegions, 30, rng.New(deploySeed^0xcac4e))
	if err != nil {
		return rcache.Config{}, err
	}
	return rcache.Config{
		Keyer:         rcache.CentroidKeyer{KM: km},
		Capacity:      cacheSize,
		DifficultyMax: scores[len(scores)*3/4],
	}, nil
}

// ingestRate is the offered wall-clock request rate: ingestLoad times the
// slowest model's single-replica throughput.
func ingestRate(a *pipeline.Artifacts) float64 {
	capacity := 0.0
	for _, m := range a.Ensemble.Models {
		if c := 1 / m.MeanLatency().Seconds(); capacity == 0 || c < capacity {
			capacity = c
		}
	}
	return ingestLoad * capacity / ingestScale
}

// ingestRig is a started HTTP handler over its runtime.
type ingestRig struct {
	arts *pipeline.Artifacts
	srv  *serve.Server
	h    *httpserve.Handler
}

// newIngest builds and starts the handler over a cached, observed runtime.
func newIngest(a *pipeline.Artifacts, l *layers, cache rcache.Config, seed uint64) ingestRig {
	srv := serve.New(serve.Config{
		Ensemble:  l.ensemble,
		Scheduler: l.scheduler,
		Rewarder:  l.rewarder,
		Estimator: l.estimator,
		TimeScale: ingestScale,
		Cache:     cache,
		Obs:       obsv.Config{TraceBuffer: traceRing},
		Seed:      seed,
	})
	h := httpserve.New(httpserve.Config{Server: srv, Estimator: l.estimator, Pool: a.Serve})
	return ingestRig{arts: a, srv: srv, h: h}
}

// runIngest drives the open-loop HTTP workload.
func runIngest(o options, rep *report) error {
	if !o.trace {
		rg, setupS, err := timedSetups(o.setups, func() (ingestRig, error) {
			a := fit(o.size)
			cache, err := ingestCache(a)
			if err != nil {
				return ingestRig{}, err
			}
			return newIngest(a, newLayers(a, false), cache, o.seed), nil
		}, func(r ingestRig) { r.h.Close() })
		if err != nil {
			return err
		}
		p, _ := openLoop(o, newDeployment(rg.arts), rg, rep)
		rep.endToEnd(setupS, p.w)
		return nil
	}
	a := fit(o.size)
	d := newDeployment(a)
	cache, err := ingestCache(a)
	if err != nil {
		return err
	}
	plain, _ := openLoop(o, d, newIngest(a, newLayers(a, false), cache, o.seed), rep)
	l := newLayers(a, true)
	rg := newIngest(a, l, cache, o.seed)
	stop := pollStats(rg.srv)
	traced, calls := openLoop(o, d, rg, rep)
	rep.serveLayers(l, traced, stop(), ingestScale)
	rep.layer("trace.overhead_share", per(traced.cpuPerReq(), plain.cpuPerReq())-1)

	st := rg.srv.Stats()
	if c := st.Cache; c != nil {
		lookups := float64(c.Hits + c.Misses + c.Bypasses)
		rep.layer("rcache.hit_ratio", per(float64(c.Hits), lookups))
		rep.layer("rcache.bypass_ratio", per(float64(c.Bypasses), lookups))
		rep.layer("rcache.fills", float64(c.Fills))
		rep.layer("rcache.evictions", float64(c.Evictions))
	}
	rep.layer("obsv.traces_per_req", per(float64(rg.srv.Observer().Snapshot().TracesTotal), float64(traced.requests)))
	var span, self, lag []float64
	for _, c := range calls {
		span = append(span, us(c.end.Sub(c.start)))
		self = append(self, us(c.end.Sub(c.start))-c.resp.LatencyMS*1e3*ingestScale)
		if c.inWindow {
			lag = append(lag, ms(c.lag))
		}
	}
	rep.layer("httpserve.span_us_p50", quantile(span, 0.5))
	rep.layer("httpserve.span_us_p99", quantile(span, 0.99))
	rep.layer("httpserve.self_us_p50", quantile(self, 0.5))
	rep.layer("loadgen.lag_p99_ms", quantile(lag, 0.99))
	return nil
}

// call is one HTTP request of the open loop.
type call struct {
	smp *dataset.Sample
	// due is when the request was scheduled to be sent and lag how late
	// the generator sent it; start/end bracket the ServeHTTP call.
	due, start, end time.Time
	lag             time.Duration
	inWindow        bool
	code            int
	retryAfter      string
	body            []byte
	resp            httpserve.PredictResponse
}

// openLoop runs one open-loop phase: a single generator goroutine sends
// Poisson arrivals with Zipf popularity, each request on its own goroutine
// as net/http would run it, through ServeHTTP in process with JSON in and
// out and no sockets. Latency is timed from each request's due time. The
// handler is closed, draining its runtime, when every request has
// returned. Responses are decoded and checked after the phase, outside the
// measured window.
func openLoop(o options, d *deployment, rg ingestRig, rep *report) (*phase, []call) {
	pool := d.arts.Serve
	rate := ingestRate(d.arts)
	warm := warmup(o.seconds, ingestWarmup)
	// Generate a fifth more arrivals than the phase needs; the generator
	// stops at the end of the window.
	arrivals := trace.Zipfian(trace.ZipfianConfig{
		RatePerSec: rate, N: int(rate*(warm.Seconds()+o.seconds)*1.2) + 16, Samples: pool,
		Deadline: trace.ConstantDeadline(ingestDeadline),
		S:        zipfS, V: zipfV, Seed: o.seed,
	}).Arrivals
	// calls is never grown, so the pointers handed to request goroutines
	// stay valid.
	calls := make([]call, len(arrivals))
	sent := 0
	var wg sync.WaitGroup
	p := &phase{w: newWindow(o.seconds)}
	p.begin = snapshot()
	winBegin := p.begin.at.Add(warm)
	// cutDue cuts every window boundary due by t, sleeping until each.
	cutDue := func(t time.Time) {
		for !p.w.complete() {
			at := p.w.cutAt(winBegin, len(p.w.cuts))
			if t.Before(at) {
				return
			}
			time.Sleep(time.Until(at))
			p.w.cut()
		}
	}
	for _, arr := range arrivals {
		due := p.begin.at.Add(arr.At)
		if cutDue(due); p.w.complete() {
			break
		}
		time.Sleep(time.Until(due))
		c := &calls[sent]
		sent++
		*c = call{smp: pool[arr.SampleIdx], due: due, lag: time.Since(due)}
		wg.Add(1)
		go func() {
			defer wg.Done()
			send(rg.h, c)
		}()
	}
	cutDue(p.w.cutAt(winBegin, slices))
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(drainAfter):
		// Stopping the runtime resolves every stuck request as missed.
		rep.fail("open loop: requests still in flight %v after the last send", drainAfter)
	}
	rg.h.Close()
	<-done
	p.end = snapshot()
	calls = calls[:sent]
	p.requests = int64(sent)
	rep.conserved(rg.srv.Stats(), p.requests)

	for i := range calls {
		c := &calls[i]
		rep.result.Attempted++
		lat := c.end.Sub(c.due)
		missed, score, served, sub, ok := checkCall(rep, d, c)
		c.inWindow = !c.due.Before(winBegin)
		if sl := p.w.slice(c.end); ok && sl >= 0 {
			p.w.record(sl, lat, added(d, lat, sub, missed, c.resp.Cached, ingestScale), score, served, missed)
		}
	}
	return p, calls
}

// send issues one predict request through the handler.
func send(h http.Handler, c *call) {
	body := strconv.AppendInt([]byte(`{"sample_id":`), int64(c.smp.ID), 10)
	body = append(body, `,"deadline_ms":`...)
	body = strconv.AppendFloat(body, float64(ingestDeadline)/float64(time.Millisecond), 'g', -1, 64)
	body = append(body, '}')
	req := httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	c.start = time.Now()
	h.ServeHTTP(rec, req)
	c.end = time.Now()
	c.code = rec.Code
	c.retryAfter = rec.Header().Get("Retry-After")
	c.body = rec.Body.Bytes()
}

// checkCall decodes and verifies one HTTP response: status 200, or 503
// carrying Retry-After for a refusal, and an output equal to the
// reference when served in full. ok is false when the response is
// unusable.
func checkCall(rep *report, d *deployment, c *call) (missed bool, score float64, served bool, sub ensemble.Subset, ok bool) {
	id := c.smp.ID
	if err := json.Unmarshal(c.body, &c.resp); err != nil {
		rep.fail("sample %d: status %d with undecodable body: %v", id, c.code, err)
		return true, 0, false, 0, false
	}
	r := c.resp
	switch {
	case c.code == http.StatusServiceUnavailable:
		if r.Rejected && c.retryAfter != "" {
			return true, 0, false, 0, true
		}
		rep.fail("sample %d: 503 without a rejection and Retry-After", id)
		return true, 0, false, 0, false
	case c.code != http.StatusOK:
		rep.fail("sample %d: unexpected status %d", id, c.code)
		return true, 0, false, 0, false
	case r.Rejected:
		rep.fail("sample %d: rejection answered with status 200", id)
		return true, 0, false, 0, false
	}
	for _, k := range r.Subset {
		if k < 0 || k >= ensemble.MaxModels {
			rep.fail("sample %d: subset names model %d", id, k)
			return true, 0, false, 0, false
		}
		sub = sub.With(k)
	}
	score, served = d.check(rep, c.smp, model.Output{Probs: r.Probs, Value: r.Value}, sub, r.Missed, r.Cached, r.Degraded)
	return r.Missed, score, served, sub, true
}
