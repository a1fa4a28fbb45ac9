package main

import (
	"math"
	"runtime/metrics"
	"slices"
)

// failedLatency is the latency recorded for a failed or refused
// request: it counts as missing every latency limit, so it sorts above
// every real sample and pulls the percentiles up instead of vanishing.
const failedLatency = math.MaxUint32

// recorder collects one caller's requests in one measured window. Only
// the caller's goroutine writes it; the run reads it after the caller
// has returned.
type recorder struct {
	t0               int64    // measured-window start (ns)
	lat              []uint32 // per-request latency in ns, measured requests only
	ops, reqs, fails uint64   // ops of completed requests, requests attempted, requests failed or refused
	// grown is the bytes add allocated growing lat past its initial
	// capacity; the allocation metric leaves them out.
	grown uint64
}

func newRecorder(t0 int64, capHint int) *recorder {
	return &recorder{t0: t0, lat: make([]uint32, 0, capHint)}
}

// add records one request that started at start and ended at end. A
// request that started before the measured window is warm-up and is
// dropped.
func (r *recorder) add(start, end int64, ops uint64, failed bool) {
	if start < r.t0 {
		return
	}
	r.reqs++
	lat := uint32(failedLatency)
	if failed {
		r.fails++
	} else {
		r.ops += ops
		if d := end - start; d < failedLatency {
			lat = uint32(d)
		}
	}
	if len(r.lat) == cap(r.lat) {
		r.lat = append(r.lat, lat)
		r.grown += uint64(cap(r.lat)) * 4
		return
	}
	r.lat = append(r.lat, lat)
}

// classStats is one caller class's figures: per window rates and
// percentiles, whose medians are reported, and totals over all windows.
type classStats struct {
	rates, p50s, p99s []float64 // per window; rates in ops/s, latencies in us
	samples           int       // latency samples behind the percentiles
	ops, reqs, fails  uint64    // ops completed, requests attempted, requests failed
}

func (c *classStats) merge(o classStats) {
	c.rates = append(c.rates, o.rates...)
	c.p50s = append(c.p50s, o.p50s...)
	c.p99s = append(c.p99s, o.p99s...)
	c.samples += o.samples
	c.ops += o.ops
	c.reqs += o.reqs
	c.fails += o.fails
}

// summarize is the figures of one window of winNs nanoseconds.
func summarize(r *recorder, winNs int64) classStats {
	cs := classStats{ops: r.ops, reqs: r.reqs, fails: r.fails, samples: len(r.lat)}
	cs.rates = []float64{float64(r.ops) / (float64(winNs) / 1e9)}
	if len(r.lat) > 0 {
		w := slices.Clone(r.lat)
		slices.Sort(w)
		cs.p50s = []float64{latencyUs(percentile(w, 50))}
		cs.p99s = []float64{latencyUs(percentile(w, 99))}
	}
	return cs
}

// latencyUs converts a sample to microseconds. A failed request reads
// as failedLatency (about 4.3 s): over any limit, and still a number
// the JSON result can carry.
func latencyUs(ns uint32) float64 { return float64(ns) / 1e3 }

// percentile is the nearest-rank percentile of sorted samples.
func percentile[T int64 | uint32 | float64](sorted []T, p float64) T {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	rank = max(0, min(rank, len(sorted)-1))
	return sorted[rank]
}

// median of xs (the mean of the middle two for an even count); xs is
// not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// runtimeSample is one read of the runtime/metrics the benchmark
// reports deltas of.
type runtimeSample struct {
	allocBytes  uint64
	allocObjs   uint64
	gcCPU       float64
	totalCPU    float64
	heapLive    uint64
	schedCounts []uint64
	schedBounds []float64
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/live:bytes",
	"/sched/latencies:seconds",
}

func readRuntime() runtimeSample {
	ms := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		ms[i].Name = n
	}
	metrics.Read(ms)
	var s runtimeSample
	s.allocBytes = ms[0].Value.Uint64()
	s.allocObjs = ms[1].Value.Uint64()
	s.gcCPU = ms[2].Value.Float64()
	s.totalCPU = ms[3].Value.Float64()
	s.heapLive = ms[4].Value.Uint64()
	h := ms[5].Value.Float64Histogram()
	s.schedCounts = slices.Clone(h.Counts)
	s.schedBounds = slices.Clone(h.Buckets)
	return s
}

// runtimeDelta is what the runtime did between two samples.
type runtimeDelta struct {
	allocBytes, allocObjs uint64
	gcCPUShare            float64
	schedP99us            float64
	heapLiveMB            float64
}

func diffRuntime(a, b runtimeSample) runtimeDelta {
	d := runtimeDelta{
		allocBytes: b.allocBytes - a.allocBytes,
		allocObjs:  b.allocObjs - a.allocObjs,
		heapLiveMB: float64(b.heapLive) / (1 << 20),
	}
	if cpu := b.totalCPU - a.totalCPU; cpu > 0 {
		d.gcCPUShare = (b.gcCPU - a.gcCPU) / cpu
	}
	// p99 of the scheduling-latency histogram delta, reported at the
	// upper bound of the bucket holding the 99th percentile.
	var total uint64
	counts := make([]uint64, len(b.schedCounts))
	for i := range counts {
		counts[i] = b.schedCounts[i] - a.schedCounts[i]
		total += counts[i]
	}
	if total > 0 {
		target := uint64(math.Ceil(0.99 * float64(total)))
		var acc uint64
		for i, c := range counts {
			acc += c
			if acc >= target {
				hi := b.schedBounds[i+1]
				if math.IsInf(hi, 1) {
					hi = b.schedBounds[i]
				}
				d.schedP99us = hi * 1e6
				break
			}
		}
	}
	return d
}
