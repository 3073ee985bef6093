package main

import (
	"math"
	"runtime"
	"syscall"
	"time"
)

// usage is a process resource snapshot.
type usage struct {
	at  time.Time
	cpu time.Duration
	mem runtime.MemStats
}

// snapshot reads process CPU time (user+sys) and the allocator counters.
func snapshot() usage {
	var u usage
	runtime.ReadMemStats(&u.mem)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		u.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	u.at = time.Now()
	return u
}

// maxRSSMB is the process's peak resident set in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// slices is how many equal parts a measured window is cut into. Rates,
// costs and latency percentiles are computed per slice and reported as
// the median slice, so a burst of contention on a shared host moves one
// slice rather than the result.
const slices = 5

// window is the measured interval of a live phase and the requests
// completed inside it.
type window struct {
	// length is the measured time; cuts are the snapshots at its
	// boundaries, slices+1 once the window is complete.
	length time.Duration
	cuts   []usage
	// done counts requests completed in the window; served counts those
	// answered (served, degraded or cached), and scoreSum sums their
	// agreement with the full ensemble (misses score 0).
	done, served int64
	scoreSum     float64
	// Per slice: completed requests, their wall latencies (ms) and their
	// latencies above unavoidable model time (ms).
	count          []int64
	latency, added []*hist
}

func newWindow(seconds float64) *window {
	return &window{
		length:  time.Duration(seconds * float64(time.Second)),
		count:   make([]int64, slices),
		latency: newHists(slices),
		added:   newHists(slices),
	}
}

// cut snapshots the next slice boundary; the first cut opens the window.
func (w *window) cut() { w.cuts = append(w.cuts, snapshot()) }

// open reports whether the window has opened and not yet completed.
func (w *window) open() bool { return len(w.cuts) > 0 && len(w.cuts) <= slices }

// complete reports whether every boundary has been cut.
func (w *window) complete() bool { return len(w.cuts) > slices }

// cutAt is when boundary i falls, given the opening time.
func (w *window) cutAt(begin time.Time, i int) time.Time {
	return begin.Add(w.length * time.Duration(i) / slices)
}

// due reports whether the next boundary has been reached at now.
func (w *window) due(now time.Time) bool {
	return w.open() && !now.Before(w.cutAt(w.cuts[0].at, len(w.cuts)))
}

// slice returns the index of the slice containing t, or -1 when t lies
// outside the cut part of the window.
func (w *window) slice(t time.Time) int {
	for i := 0; i+1 < len(w.cuts); i++ {
		if !t.Before(w.cuts[i].at) && t.Before(w.cuts[i+1].at) {
			return i
		}
	}
	return -1
}

// record folds one request completed in slice i into the window.
func (w *window) record(i int, lat, add time.Duration, score float64, served, missed bool) {
	w.done++
	w.count[i]++
	w.scoreSum += score
	w.latency[i].add(ms(lat))
	if served {
		w.served++
	}
	if !missed {
		w.added[i].add(ms(add))
	}
}

// endToEnd records the end-to-end metrics of an untraced window: rates,
// costs and latency percentiles of the median slice, and answer quality
// over the whole window.
func (r *report) endToEnd(setupS float64, w *window) {
	var thr, cpu, allocs, bytes, p50, p99, a50 []float64
	for i := 0; i+1 < len(w.cuts); i++ {
		n := float64(w.count[i])
		if n == 0 {
			continue
		}
		b, e := w.cuts[i], w.cuts[i+1]
		thr = append(thr, n/e.at.Sub(b.at).Seconds())
		cpu = append(cpu, us(e.cpu-b.cpu)/n)
		allocs = append(allocs, float64(e.mem.Mallocs-b.mem.Mallocs)/n)
		bytes = append(bytes, float64(e.mem.TotalAlloc-b.mem.TotalAlloc)/n)
		p50 = append(p50, w.latency[i].quantile(0.5))
		p99 = append(p99, w.latency[i].quantile(0.99))
		a50 = append(a50, w.added[i].quantile(0.5))
	}
	r.set("setup_s", "s", setupS)
	r.set("throughput_rps", "1/s", median(thr))
	r.set("latency_p50_ms", "ms", median(p50))
	r.set("latency_p99_ms", "ms", median(p99))
	r.set("added_p50_ms", "ms", median(a50))
	r.set("cpu_us_per_req", "us", median(cpu))
	r.set("allocs_per_req", "count", median(allocs))
	r.set("bytes_per_req", "B", median(bytes))
	r.set("max_rss_mb", "MiB", maxRSSMB())
	r.set("served_rate", "ratio", per(float64(w.served), float64(w.done)))
	r.set("accuracy", "ratio", per(w.scoreSum, float64(w.done)))
	r.info.Counts["requests_in_window"] = w.done
	r.info.Counts["latency_samples_per_slice_min"] = minCount(w.count)
}

// minCount is the smallest per-slice sample count: the count behind the
// least-sampled percentile.
func minCount(c []int64) int64 {
	m := int64(-1)
	for _, v := range c {
		if m < 0 || v < m {
			m = v
		}
	}
	return m
}

// hist counts latencies in milliseconds in log-spaced buckets a fifth of
// a percent wide, so a window takes a fixed few hundred kilobytes however
// many requests it sees. Keeping every sample instead grows the heap with
// the run, and a larger heap spaces out the runtime's garbage
// collections: the per-slice p99 of a two-minute handoff run fell from
// 4.6 to 2.5 ms as its sample slices grew, at a steady throughput.
type hist struct {
	n int64
	// pos and neg count values by the bucket of their magnitude; neg is
	// allocated on the first negative value (added latency can be below
	// zero when a model runs faster than its profiled mean).
	pos, neg []uint32
}

const (
	// histMin is the upper edge of bucket 0, which holds magnitudes below
	// it; bucket i > 0 holds [histMin·histGrowth^(i-1), histMin·histGrowth^i).
	histMin    = 1e-3
	histGrowth = 1.002
	// histBuckets reaches past 10^6 ms; larger magnitudes land in the last
	// bucket.
	histBuckets = 10500
)

func newHists(n int) []*hist {
	hs := make([]*hist, n)
	for i := range hs {
		hs[i] = &hist{pos: make([]uint32, histBuckets)}
	}
	return hs
}

// histBucket is the bucket of magnitude a.
func histBucket(a float64) int {
	if a < histMin {
		return 0
	}
	i := 1 + int(math.Log(a/histMin)/math.Log(histGrowth))
	if i >= histBuckets {
		i = histBuckets - 1
	}
	return i
}

// histBounds is the range of bucket i.
func histBounds(i int) (lo, hi float64) {
	if i == 0 {
		return 0, histMin
	}
	lo = histMin * math.Pow(histGrowth, float64(i-1))
	return lo, lo * histGrowth
}

func (h *hist) add(v float64) {
	h.n++
	if v >= 0 {
		h.pos[histBucket(v)]++
		return
	}
	if h.neg == nil {
		h.neg = make([]uint32, histBuckets)
	}
	h.neg[histBucket(-v)]++
}

// quantile returns the q-quantile by the same rank rule as the package's
// quantile, q·(n-1), placing the rank linearly inside its bucket (0 for
// an empty histogram).
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	r := q * float64(h.n-1)
	var cum float64
	for i := len(h.neg) - 1; i >= 0; i-- {
		if c := float64(h.neg[i]); c > 0 && r < cum+c {
			lo, hi := histBounds(i)
			return -hi + (r-cum+0.5)/c*(hi-lo)
		}
		cum += float64(h.neg[i])
	}
	for i, n := range h.pos {
		if c := float64(n); c > 0 && r < cum+c {
			lo, hi := histBounds(i)
			return lo + (r-cum+0.5)/c*(hi-lo)
		}
		cum += float64(n)
	}
	lo, hi := histBounds(histBuckets - 1)
	return lo + (hi-lo)/2 // unreachable: r < n
}
