package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

const (
	// binWidth splits a window into equal time bins for the heap
	// sampler, which reports the median of the per-bin peaks.
	binWidth = 500 * time.Millisecond
	// blockSize splits a window's completions, in completion order, into
	// blocks: p50 and p99 are the medians of the per-block p50s and p99s.
	// A block of 1000 leaves ten samples beyond its p99.
	blockSize = 1000
)

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of sorted
// ascending samples: the smallest sample with at least p of the samples
// at or below it. It returns 0 for no samples.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return sorted[i]
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), leaving xs sorted.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return ratio(sum, float64(len(xs)))
}

// window is the measurement interval of a closed-loop run. Clients
// issue requests only while the window is open; a request counts toward
// throughput and latency only if it completes before the window closes,
// so requests still in flight at the close neither inflate the rate nor
// bias the percentiles. Late completions are still tallied: they are
// real work the correctness checks account for.
type window struct {
	open, close time.Time
}

// bins is the number of binWidth bins in the window (at least one).
func (w window) bins() int {
	return max(1, int((w.close.Sub(w.open)+binWidth-1)/binWidth))
}

// bin returns the bin t falls in, clamped to the window's bins.
func (w window) bin(t time.Time) int {
	return min(max(0, int(t.Sub(w.open)/binWidth)), w.bins()-1)
}

// recorder accumulates the outcomes of one class of requests (queries or
// writes) against a window. It keeps the latencies of the current block
// only, so its memory stays constant however long the window. It is safe
// for concurrent use.
type recorder struct {
	w window

	mu        sync.Mutex
	block     []float64 // latencies (µs) of the current block
	p50s      []float64 // per full block
	p99s      []float64
	done      int // completions inside the window
	attempted int // every request issued, late ones included
	failed    int // requests that returned an error
}

func newRecorder(w window) *recorder {
	return &recorder{w: w, block: make([]float64, 0, blockSize)}
}

// observe records one request issued at start that completed at end.
// Observations arrive in completion order, which is what blocks follow.
func (r *recorder) observe(start, end time.Time, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	switch {
	case err != nil:
		r.failed++
	case end.After(r.w.close):
		// Late: acknowledged, but outside the measurement.
	default:
		r.done++
		r.block = append(r.block, float64(end.Sub(start).Nanoseconds())/1e3)
		if len(r.block) == blockSize {
			sort.Float64s(r.block)
			r.p50s = append(r.p50s, percentile(r.block, 0.50))
			r.p99s = append(r.p99s, percentile(r.block, 0.99))
			r.block = r.block[:0]
		}
	}
}

// classResult summarizes a recorder once its requests have all finished.
type classResult struct {
	done      int // successful completions inside the window
	attempted int
	failed    int
	perSec    float64 // completions inside the window per second
	p50US     float64 // median of the per-block p50s
	p99US     float64 // median of the per-block p99s
}

func (r *recorder) result() classResult {
	r.mu.Lock()
	defer r.mu.Unlock()
	// The plain rate over the whole window: a closed-loop client completes
	// requests in waves (a write window is acked a group commit at a
	// time), so per-bin counts are coarse and their median jumps between
	// multiples of the wave size.
	res := classResult{done: r.done, attempted: r.attempted, failed: r.failed,
		perSec: float64(r.done) / r.w.close.Sub(r.w.open).Seconds()}
	if len(r.p50s) > 0 {
		// A trailing partial block is left out: it is not a full sample.
		res.p50US = median(append([]float64(nil), r.p50s...))
		res.p99US = median(append([]float64(nil), r.p99s...))
		return res
	}
	block := append([]float64(nil), r.block...)
	sort.Float64s(block)
	res.p50US = percentile(block, 0.50)
	res.p99US = percentile(block, 0.99)
	return res
}
