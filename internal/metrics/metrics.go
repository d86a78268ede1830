// Package metrics provides small statistics helpers shared by the
// experiment runners and the roll-up: percentiles (exact and
// histogram-streamed), ratios, and balance and fairness indices.
package metrics

import (
	"math"
	"math/bits"
	"sort"
	"time"
)

// histBuckets is the DurationHist bucket count: values below 16ns get
// an exact bucket each; above that, 16 sub-buckets per power of two
// (≈4.4% relative width) up to the full int64 nanosecond range.
const histBuckets = 16 * 61

// DurationHist is a log-bucketed duration histogram for streamed
// percentile accounting: million-request runs can't keep a duration
// per request, so terminal events fold into fixed-size buckets and
// percentiles are read back with ≤ ~3% relative error (exact min and
// max are tracked separately). The bucket function is pure integer
// math, so histograms are deterministic and Merge-able across shards.
type DurationHist struct {
	counts   [histBuckets]int64
	n        int64
	min, max int64
}

// histBucket maps a non-negative nanosecond count to its bucket.
func histBucket(ns int64) int {
	if ns < 16 {
		return int(ns)
	}
	e := bits.Len64(uint64(ns)) - 1 // 4..62
	sub := int((uint64(ns) >> (e - 4)) & 15)
	return 16*(e-3) + sub
}

// histValue returns the midpoint of bucket idx's value range.
func histValue(idx int) int64 {
	if idx < 16 {
		return int64(idx)
	}
	e := idx/16 + 3
	lo := int64(16+idx%16) << (e - 4)
	return lo + int64(1)<<(e-4)/2
}

// Observe adds one duration (negatives clamp to zero).
func (h *DurationHist) Observe(d time.Duration) {
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	if h.n == 0 || ns < h.min {
		h.min = ns
	}
	if ns > h.max {
		h.max = ns
	}
	h.counts[histBucket(ns)]++
	h.n++
}

// Merge folds o into h (shard-local histograms into the fleet one).
func (h *DurationHist) Merge(o *DurationHist) {
	if o.n == 0 {
		return
	}
	if h.n == 0 || o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// Percentile returns the nearest-rank p-th percentile, matching
// Percentile's rank rule (⌈n·p/100⌉) at bucket resolution; rank 1 and
// rank n return the exact min and max.
func (h *DurationHist) Percentile(p float64) time.Duration {
	if h.n == 0 {
		return 0
	}
	k := int64(math.Ceil(float64(h.n) * p / 100.0))
	if k < 1 {
		k = 1
	}
	if k > h.n {
		k = h.n
	}
	if k == 1 {
		return time.Duration(h.min)
	}
	if k == h.n {
		return time.Duration(h.max)
	}
	var cum int64
	for i, c := range h.counts {
		cum += c
		if cum >= k {
			return time.Duration(histValue(i))
		}
	}
	return time.Duration(h.max)
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) using
// nearest-rank on a sorted copy.
func Percentile(xs []time.Duration, p float64) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	cp := append([]time.Duration(nil), xs...)
	sort.Slice(cp, func(i, j int) bool { return cp[i] < cp[j] })
	return percentileSorted(cp, p)
}

// Percentiles returns the requested percentiles of xs, sorting one
// copy once — the multi-percentile form report paths use so a p50/p99
// pair doesn't sort the same latency sample twice. Values match
// Percentile exactly (same nearest-rank rule).
func Percentiles(xs []time.Duration, ps ...float64) []time.Duration {
	out := make([]time.Duration, len(ps))
	if len(xs) == 0 {
		return out
	}
	cp := append([]time.Duration(nil), xs...)
	sort.Slice(cp, func(i, j int) bool { return cp[i] < cp[j] })
	for i, p := range ps {
		out[i] = percentileSorted(cp, p)
	}
	return out
}

// percentileSorted is the nearest-rank rule over a sorted sample:
// rank ⌈n·p/100⌉, 1-indexed. (A round-half-up variant shipped here
// once disagreed with nearest rank on small samples — n=6, p=20
// picked rank 1 instead of 2 — and understated p99 by one rank for
// most sample sizes.)
func percentileSorted(cp []time.Duration, p float64) time.Duration {
	if p <= 0 {
		return cp[0]
	}
	if p >= 100 {
		return cp[len(cp)-1]
	}
	idx := int(math.Ceil(float64(len(cp))*p/100)) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(cp) {
		idx = len(cp) - 1
	}
	return cp[idx]
}

// Goodput returns useful completions per second of d: finishes that
// met their deadline, over the serving duration. Zero duration is
// zero goodput.
func Goodput(metDeadline int, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(metDeadline) / d.Seconds()
}

// Fraction returns part/whole, 0 when whole is 0 — shed rate, failure
// rate and similar count ratios.
func Fraction(part, whole int) float64 {
	if whole == 0 {
		return 0
	}
	return float64(part) / float64(whole)
}

// Speedup returns a/b, guarding against division by zero.
func Speedup(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// Imbalance returns the load-imbalance factor of a share vector:
// max(xs)/mean(xs). 1.0 is perfect balance; it returns 0 for empty or
// all-zero input.
func Imbalance(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	maxV, sum := xs[0], 0.0
	for _, x := range xs {
		if x > maxV {
			maxV = x
		}
		sum += x
	}
	if sum == 0 {
		return 0
	}
	return maxV / (sum / float64(len(xs)))
}

// Jain returns Jain's fairness index of a share vector:
// (Σx)² / (n·Σx²). 1.0 means perfectly even shares, 1/n means one
// participant received everything. Empty or all-zero input returns 1
// (nothing was served, so nobody was treated unfairly).
func Jain(xs []float64) float64 {
	if len(xs) == 0 {
		return 1
	}
	var sum, sq float64
	for _, x := range xs {
		sum += x
		sq += x * x
	}
	if sq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sq)
}
