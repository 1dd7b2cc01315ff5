package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"
)

// tailBeyond is how many samples must lie beyond a reported tail.
const tailBeyond = 10

// sample is one completed job (or fleet unit) as its client saw it.
type sample struct {
	latency time.Duration // submit to result
	ttfp    time.Duration // submit to first progress
}

// runData is what one workload run hands back for reporting.
type runData struct {
	setups    []float64 // seconds per set-up; the median is reported
	samples   []sample
	timed     time.Duration // the measured region
	rates     []float64     // jobs per second in each window (fleet: round) of it
	attempted int
	failed    int // failed, refused or lost jobs

	allocBytes    uint64 // TotalAlloc delta over the measured region
	retainedBytes int64  // heap after forced GC at the end minus after set-up
	gflops        []float64

	digest   string   // hash of every result, in job order
	problems []string // failed output checks
	notes    []string // report lines that are not failures

	layers map[string]metric // per-layer metrics not derived from spans
}

func (rd *runData) jobs() int { return len(rd.samples) }

// jobsPerSecond is the median of the per-window rates, so a stall that
// covers less than half the run (another tenant of the machine, a slow
// disk) does not move it; a run too short for windows reports its mean.
func (rd *runData) jobsPerSecond() float64 {
	if len(rd.rates) > 0 {
		return median(rd.rates)
	}
	if rd.timed <= 0 {
		return 0
	}
	return float64(rd.jobs()) / rd.timed.Seconds()
}

// windowJobs is the fewest completions a rate window may hold, so that
// one job more or less moves a window's rate by at most 2%.
const windowJobs = 50

// windowRates splits a timed region into up to ten equal windows of at
// least windowJobs completions each and returns each window's rate.
func windowRates(ends []time.Duration, timed time.Duration) []float64 {
	k := len(ends) / windowJobs
	if k > 10 {
		k = 10
	}
	if k < 2 || timed <= 0 {
		return nil
	}
	w := timed / time.Duration(k)
	counts := make([]int, k)
	for _, e := range ends {
		i := int(e / w)
		if i >= k {
			i = k - 1
		}
		counts[i]++
	}
	rates := make([]float64, k)
	for i, c := range counts {
		rates[i] = float64(c) / w.Seconds()
	}
	return rates
}

func (rd *runData) latencyMS() []float64 {
	out := make([]float64, len(rd.samples))
	for i, s := range rd.samples {
		out[i] = ms(s.latency)
	}
	return out
}

func (rd *runData) ttfpMS() []float64 {
	out := make([]float64, len(rd.samples))
	for i, s := range rd.samples {
		out[i] = ms(s.ttfp)
	}
	return out
}

// endToEnd computes the untraced metrics. Every metric is defined on
// every workload; an empty run is an error rather than a zero.
func endToEnd(rd *runData) (map[string]metric, error) {
	n := rd.jobs()
	if n == 0 || len(rd.setups) == 0 {
		return nil, fmt.Errorf("run completed no jobs")
	}
	for _, s := range []struct {
		name string
		xs   []float64
	}{{"job", rd.latencyMS()}, {"ttfp", rd.ttfpMS()}} {
		if err := checkTail(s.name, s.xs); err != nil {
			return nil, err
		}
	}
	return map[string]metric{
		"setup_s":             {median(rd.setups), "s"},
		"jobs_per_s":          {rd.jobsPerSecond(), "1/s"},
		"job_p50_ms":          {median(rd.latencyMS()), "ms"},
		"ttfp_p50_ms":         {median(rd.ttfpMS()), "ms"},
		"best_gflops_geomean": {geomean(rd.gflops), "GFLOPS"},
		"alloc_mb_per_job":    {float64(rd.allocBytes) / (1 << 20) / float64(n), "MB"},
		"retained_kb_per_job": {float64(rd.retainedBytes) / (1 << 10) / float64(n), "KB"},
	}, nil
}

// checkTail enforces the tail rule on runs large enough to have a tail:
// a run with at least 2·tailBeyond+1 samples must have a tail at or
// above its median. Smaller runs (serve_cold) report no tail.
func checkTail(name string, xs []float64) error {
	if len(xs) <= 2*tailBeyond {
		return nil
	}
	t, ok := tail(xs)
	if !ok {
		return fmt.Errorf("%s: %d samples leave no tail", name, len(xs))
	}
	if p50 := median(xs); t.value < p50 {
		return fmt.Errorf("%s tail %.3f ms (p%d) is below its p50 %.3f ms", name, t.value, t.percentile, p50)
	}
	return nil
}

type tailValue struct {
	value      float64
	percentile int
}

// tail is the highest percentile of the raw samples with at least
// tailBeyond samples beyond it: the (n-tailBeyond)-th smallest sample.
func tail(xs []float64) (tailValue, bool) {
	n := len(xs)
	if n <= tailBeyond {
		return tailValue{}, false
	}
	s := sortedCopy(xs)
	rank := n - tailBeyond // 1-based rank of the tail sample
	return tailValue{value: s[rank-1], percentile: 100 * rank / n}, true
}

// median of the raw samples (mean of the middle two for even counts).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// memMark brackets a measured region: TotalAlloc is read when the
// region ends, the retained heap after a forced collection.
type memMark struct {
	totalAlloc uint64
	heap       uint64
}

// markAfterGC forces a collection and records the heap it leaves.
func markAfterGC() memMark {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memMark{totalAlloc: m.TotalAlloc, heap: m.HeapAlloc}
}

// totalAlloc reads the cumulative allocation counter without collecting.
func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// endRegion fills the memory figures for a region that started at start
// and whose allocations were counted up to allocEnd.
func (rd *runData) endRegion(start memMark, allocEnd uint64) {
	rd.allocBytes = allocEnd - start.totalAlloc
	end := markAfterGC()
	rd.retainedBytes = int64(end.heap) - int64(start.heap)
}

// digester hashes results in job order.
type digester struct{ h []byte }

func (d *digester) add(b []byte) {
	sum := sha256.Sum256(append(append([]byte(nil), d.h...), b...))
	d.h = sum[:]
}

func (d *digester) String() string { return hex.EncodeToString(d.h) }
