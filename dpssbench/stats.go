package main

import (
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// percentile returns the q-quantile (0 ≤ q ≤ 1) of vals, interpolating
// linearly between the two closest ranks: position q·(n−1) in the sorted
// sample. vals is not modified. An empty sample has no quantile (NaN).
func percentile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// median is the 0.5-quantile.
func median(vals []float64) float64 { return percentile(vals, 0.5) }

// orZero maps an empty-sample NaN to 0, the value a per-layer metric
// takes on a workload that never calls into the layer.
func orZero(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	return v
}

// openLoop times one request of an open-loop schedule: latency runs
// from when the request was due, so a stall also charges the requests
// queued behind it, and lateness is how far the generator itself ran
// behind the schedule when it sent the request.
func openLoop(due, start, end time.Time) (latency, late time.Duration) {
	latency = end.Sub(due)
	late = start.Sub(due)
	if late < 0 {
		late = 0
	}
	return latency, late
}

// dueTime is the k-th send time of a schedule of period p starting at t0.
func dueTime(t0 time.Time, p time.Duration, k int) time.Time {
	return t0.Add(time.Duration(k) * p)
}

// sampler keeps up to cap(vals) values. The buffer is allocated and
// touched up front, so recording inside a timed phase neither allocates
// nor grows the resident set with the number of samples.
type sampler struct {
	vals []float64
	seen int
}

func newSampler(capacity int) *sampler {
	buf := make([]float64, capacity)
	for i := range buf {
		buf[i] = 0
	}
	return &sampler{vals: buf[:0]}
}

func (s *sampler) add(v float64) {
	s.seen++
	if len(s.vals) < cap(s.vals) {
		s.vals = append(s.vals, v)
	}
}

// heapAllocs reads the runtime's cumulative heap allocation counters.
func heapAllocs() (bytes, objects uint64) {
	samples := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
	}
	metrics.Read(samples)
	return samples[0].Value.Uint64(), samples[1].Value.Uint64()
}

// measured is one timed call: its wall time and the heap it allocated.
type measured struct {
	wall        time.Duration
	allocBytes  uint64
	allocObject uint64
}

// measure times fn and counts the heap bytes and objects it allocates.
func measure(fn func() error) (measured, error) {
	b0, o0 := heapAllocs()
	t0 := time.Now()
	err := fn()
	wall := time.Since(t0)
	b1, o1 := heapAllocs()
	return measured{wall: wall, allocBytes: b1 - b0, allocObject: o1 - o0}, err
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, os.ErrNotExist
}
