package metrics

import (
	"math/rand"
	"testing"
	"time"
)

func TestDurationHistExactEdges(t *testing.T) {
	var h DurationHist
	if h.Percentile(50) != 0 || h.n != 0 {
		t.Fatal("empty histogram must read as zero")
	}
	xs := []time.Duration{5 * time.Millisecond, 80 * time.Microsecond, 3 * time.Second, 80 * time.Microsecond}
	for _, x := range xs {
		h.Observe(x)
	}
	if h.n != 4 {
		t.Fatalf("count = %d, want 4", h.n)
	}
	// Rank 1 and rank n are served from the tracked exact min and max.
	if got := h.Percentile(0.1); got != 80*time.Microsecond {
		t.Fatalf("p0.1 = %v, want exact min", got)
	}
	if got := h.Percentile(100); got != 3*time.Second {
		t.Fatalf("p100 = %v, want exact max", got)
	}
}

func TestDurationHistNegativeClamps(t *testing.T) {
	var h DurationHist
	h.Observe(-time.Second)
	if got := h.Percentile(50); got != 0 {
		t.Fatalf("negative observation must clamp to 0, got %v", got)
	}
}

// Histogram percentiles must track the exact nearest-rank percentiles
// within the bucket resolution (≤ ~4.5% relative error above 16ns).
func TestDurationHistMatchesExactPercentiles(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var h DurationHist
	xs := make([]time.Duration, 0, 5000)
	for i := 0; i < 5000; i++ {
		// Log-uniform over ~6 decades: exercises many bucket scales.
		x := time.Duration(float64(time.Microsecond) * (1 + rng.ExpFloat64()*float64(int64(1)<<uint(rng.Intn(20)))))
		xs = append(xs, x)
		h.Observe(x)
	}
	for _, p := range []float64{25, 50, 90, 99, 99.9} {
		exact := Percentile(xs, p)
		got := h.Percentile(p)
		if relErr(got, exact) > 0.045 {
			t.Fatalf("p%v = %v, exact %v (rel err %.3f)", p, got, exact, relErr(got, exact))
		}
	}
}

func TestDurationHistMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var whole, a, b DurationHist
	for i := 0; i < 2000; i++ {
		x := time.Duration(rng.Int63n(int64(10 * time.Millisecond)))
		whole.Observe(x)
		if i%2 == 0 {
			a.Observe(x)
		} else {
			b.Observe(x)
		}
	}
	a.Merge(&b)
	var empty DurationHist
	a.Merge(&empty) // merging an empty histogram is a no-op
	if a != whole {
		t.Fatalf("merge lost observations: count %d/%d", a.n, whole.n)
	}
	for _, p := range []float64{1, 50, 99, 100} {
		if a.Percentile(p) != whole.Percentile(p) {
			t.Fatalf("p%v differs after merge: %v vs %v", p, a.Percentile(p), whole.Percentile(p))
		}
	}
}

func relErr(got, want time.Duration) float64 {
	if want == 0 {
		if got == 0 {
			return 0
		}
		return 1
	}
	d := float64(got - want)
	if d < 0 {
		d = -d
	}
	return d / float64(want)
}
