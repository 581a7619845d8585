// Package loadgen is the load-generation subsystem: it drives a
// micropnp.Deployment with configurable open- or closed-loop workloads over
// the public SDK surface (reads, writes, discoveries, subscription streams,
// hot-swap churn, manager driver discovery) and reports per-operation
// latency percentiles, throughput and error counters as machine-readable
// JSON — the harness behind cmd/upnp-load and the CI latency gate.
//
// Two execution models match the deployment's two clock modes:
//
//   - Virtual (deterministic): operations are issued from cooperative
//     strands under Deployment.Conduct (one per zone lane group for an open
//     loop, one for a closed loop; a fleet run's single arrival loop steps
//     its member clocks through a conductor), so ops on different lanes
//     overlap in flight but interleave only by strand index and virtual
//     time. Latencies are exact virtual-time spans, and the whole run — op
//     schedule, histograms, percentiles — is a pure function of (scenario,
//     seed). This is what CI gates on.
//   - Realtime (concurrent): a dispatcher (open loop) or a worker pool
//     (closed loop) issues genuinely overlapping requests against the
//     wall-clock runtime; the op schedule stays seed-deterministic but
//     latencies carry real scheduling noise.
//
// Open-loop latencies are measured from each operation's intended arrival
// time, so backlog (queueing delay) is charged to the operations that caused
// it rather than silently dropped — the standard correction for coordinated
// omission. Closed-loop latencies are measured from actual issue time.
package loadgen

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// Histogram bucket geometry: values 0..subCount-1 ns are recorded exactly;
// above that each power-of-two segment splits into subCount/2 linear
// sub-buckets, bounding the relative quantization error by 2/subCount
// (~3.1%) while keeping the whole histogram a fixed flat array — recording
// is one atomic add, no allocation, no locks, so samplers on the
// zero-allocation message hot path are not perturbed.
const (
	histSubBits  = 6
	histSubCount = 1 << histSubBits // values below this index exactly
	histHalf     = histSubCount / 2
	// 63-bit values above histSubCount land in one of (63-histSubBits)
	// segments of histHalf linear sub-buckets each.
	histBuckets = histSubCount + (63-histSubBits)*histHalf
)

// Histogram is a fixed-bucket log-linear latency histogram safe for
// concurrent recording: Record is a single atomic increment (plus count,
// sum and max maintenance), making it cheap enough to call from the timed
// path itself. Values are non-negative nanoseconds; negative samples clamp
// to zero, astronomically large ones to the top bucket.
type Histogram struct {
	counts [histBuckets]atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64
	max    atomic.Int64
}

// bucketIdx maps a value to its bucket.
func bucketIdx(v int64) int {
	if v < histSubCount {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	k := bits.Len64(uint64(v)) // ≥ histSubBits+1
	seg := k - histSubBits     // ≥ 1
	idx := histSubCount + (seg-1)*histHalf + int(uint64(v)>>uint(seg)) - histHalf
	if idx >= histBuckets {
		return histBuckets - 1
	}
	return idx
}

// bucketBounds returns a bucket's value range [lo, hi).
func bucketBounds(idx int) (lo, hi int64) {
	if idx < histSubCount {
		return int64(idx), int64(idx) + 1
	}
	r := idx - histSubCount
	seg := r/histHalf + 1
	sub := int64(r%histHalf) + histHalf
	return sub << uint(seg), (sub + 1) << uint(seg)
}

// Record adds one sample (nanoseconds).
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[bucketIdx(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(uint64(v))
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Max returns the largest recorded sample.
func (h *Histogram) Max() int64 { return h.max.Load() }

// Mean returns the arithmetic mean of the recorded samples (exact, from the
// running sum rather than the buckets).
func (h *Histogram) Mean() float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// Quantile returns the q-quantile (q in [0, 1]) with linear interpolation
// inside the bucket holding the target rank: the r-th of c samples in a
// bucket spanning [lo, hi) is estimated at lo + (hi-lo)·(r-½)/c. Exact for
// sub-histSubCount values (their buckets are single-valued); within the
// bucket's ~3% width above that. Returns 0 on an empty histogram.
func (h *Histogram) Quantile(q float64) int64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for idx := 0; idx < histBuckets; idx++ {
		c := h.counts[idx].Load()
		if c == 0 {
			continue
		}
		if cum+c >= rank {
			lo, hi := bucketBounds(idx)
			pos := float64(rank-cum) - 0.5
			return lo + int64(float64(hi-lo)*pos/float64(c))
		}
		cum += c
	}
	return h.max.Load()
}

// equal reports whether two histograms hold identical bucket counts — the
// determinism tests' comparison.
func (h *Histogram) equal(o *Histogram) bool {
	if h.count.Load() != o.count.Load() || h.sum.Load() != o.sum.Load() || h.max.Load() != o.max.Load() {
		return false
	}
	for i := range h.counts {
		if h.counts[i].Load() != o.counts[i].Load() {
			return false
		}
	}
	return true
}
