package metrics

import (
	"math/rand"
	"testing"
	"time"
)

// TestPercentilesMatchesPercentile pins the sort-once helper to the
// per-call form across sizes and edge ranks, including the empty and
// out-of-range cases.
func TestPercentilesMatchesPercentile(t *testing.T) {
	ps := []float64{-1, 0, 25, 50, 90, 99, 100, 150}
	for _, n := range []int{0, 1, 2, 7, 100, 999} {
		rng := rand.New(rand.NewSource(int64(n)))
		xs := make([]time.Duration, n)
		for i := range xs {
			xs[i] = time.Duration(rng.Intn(1_000_000))
		}
		got := Percentiles(xs, ps...)
		if len(got) != len(ps) {
			t.Fatalf("n=%d: got %d values, want %d", n, len(got), len(ps))
		}
		for i, p := range ps {
			if want := Percentile(xs, p); got[i] != want {
				t.Errorf("n=%d p=%v: Percentiles = %v, Percentile = %v", n, p, got[i], want)
			}
		}
	}
	// The input must not be reordered (callers keep their samples).
	xs := []time.Duration{5, 1, 4, 2, 3}
	Percentiles(xs, 50, 99)
	for i, want := range []time.Duration{5, 1, 4, 2, 3} {
		if xs[i] != want {
			t.Fatalf("input mutated: %v", xs)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []time.Duration{5, 1, 4, 2, 3} // unsorted on purpose
	if Percentile(nil, 50) != 0 {
		t.Error("empty percentile should be 0")
	}
	if got := Percentile(xs, 0); got != 1 {
		t.Errorf("p0 = %v, want 1", got)
	}
	if got := Percentile(xs, 100); got != 5 {
		t.Errorf("p100 = %v, want 5", got)
	}
	if got := Percentile(xs, 50); got != 3 {
		t.Errorf("p50 = %v, want 3", got)
	}
	// Input must not be mutated.
	if xs[0] != 5 {
		t.Error("percentile mutated its input")
	}
}

// TestPercentileNearestRank pins the ceil-based nearest-rank rule on
// small samples: rank ⌈n·p/100⌉ of the sorted sample, 1-indexed. The
// previous round-half-up implementation disagreed on several of these
// (n=6 p=20 picked rank 1 instead of 2; p99 understated by one rank
// for most n), so each row is a regression anchor.
func TestPercentileNearestRank(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		rank int // 1-indexed nearest rank: ⌈n·p/100⌉
	}{
		{n: 6, p: 20, rank: 2},   // ⌈1.2⌉ — the motivating bug: half-up gave rank 1
		{n: 6, p: 50, rank: 3},   // ⌈3.0⌉
		{n: 6, p: 99, rank: 6},   // ⌈5.94⌉
		{n: 4, p: 50, rank: 2},   // ⌈2.0⌉
		{n: 5, p: 50, rank: 3},   // ⌈2.5⌉
		{n: 5, p: 30, rank: 2},   // ⌈1.5⌉ — half-up also gave 2; agreement case
		{n: 1, p: 99, rank: 1},   // single sample
		{n: 2, p: 99, rank: 2},   // ⌈1.98⌉
		{n: 10, p: 99, rank: 10}, // ⌈9.9⌉ — half-up gave rank 9
		{n: 10, p: 90, rank: 9},  // ⌈9.0⌉
		{n: 100, p: 99, rank: 99},
		{n: 101, p: 99, rank: 100}, // ⌈99.99⌉
		{n: 180, p: 99, rank: 179}, // ⌈178.2⌉ — half-up gave 178 (cluster goldens)
		{n: 180, p: 50, rank: 90},  // unchanged by the fix
		{n: 460, p: 99, rank: 456}, // ⌈455.4⌉ (BENCH_serving population)
		{n: 1000, p: 99.9, rank: 999},
	}
	for _, c := range cases {
		// Sorted sample 1ns..n ns, so value == rank.
		xs := make([]time.Duration, c.n)
		for i := range xs {
			xs[i] = time.Duration(i + 1)
		}
		if got := Percentile(xs, c.p); got != time.Duration(c.rank) {
			t.Errorf("n=%d p=%v: rank %d, want %d", c.n, c.p, int64(got), c.rank)
		}
	}
}

func TestSpeedup(t *testing.T) {
	if Speedup(4, 2) != 2 {
		t.Error("4/2 should be 2")
	}
	if Speedup(1, 0) != 0 {
		t.Error("division by zero should yield 0")
	}
}
