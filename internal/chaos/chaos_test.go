package chaos

import (
	"testing"
	"time"
)

func samplePlan(seed int64) *Plan {
	p := NewPlan(seed).
		Restart(2, 5*time.Second).
		Crash(2, 3*time.Second).
		Crash(0, 3*time.Second)
	p.FetchFailRate = 0.2
	p.MigrateFailRate = 0.1
	return p
}

// Same seed, same construction → bit-identical decision stream: equal
// event replay, equal failure draws; another seed draws another
// failure stream. This is the contract the cluster's chaos determinism
// rests on.
func TestPlanDeterminism(t *testing.T) {
	a, b := samplePlan(42), samplePlan(42)
	ca, cb := a.Start(), b.Start()
	for {
		ea, oka := ca.Peek()
		eb, okb := cb.Peek()
		if oka != okb || ea != eb {
			t.Fatalf("point-event streams diverge: %v/%v vs %v/%v", ea, oka, eb, okb)
		}
		if !oka {
			break
		}
		ca.Pop()
		cb.Pop()
	}
	other, same := samplePlan(43).Start(), true
	for i := 0; i < 10_000; i++ {
		fa, ma := ca.FailFetch(), ca.FailMigration()
		if fa != cb.FailFetch() || ma != cb.FailMigration() {
			t.Fatalf("failure streams diverge at draw %d", i)
		}
		same = same && fa == other.FailFetch() && ma == other.FailMigration()
	}
	if same {
		t.Fatal("different seeds drew the same failure stream")
	}
}

// The cursor replays events in At order, regardless of builder
// insertion order.
func TestCursorPointEventOrder(t *testing.T) {
	p := NewPlan(1).
		Restart(0, 4*time.Second).
		Crash(1, 3*time.Second).
		Crash(0, time.Second)
	c := p.Start()
	want := []struct {
		kind    Kind
		replica int
		at      time.Duration
	}{
		{KindCrash, 0, time.Second},
		{KindCrash, 1, 3 * time.Second},
		{KindRestart, 0, 4 * time.Second},
	}
	for _, w := range want {
		ev, ok := c.Peek()
		if !ok || ev.Kind != w.kind || ev.Replica != w.replica || ev.At != w.at {
			t.Fatalf("Peek = %+v/%v, want %+v", ev, ok, w)
		}
		c.Pop()
	}
	if _, ok := c.Peek(); ok {
		t.Fatal("cursor not exhausted after all events")
	}
}

// Zero rates never fail; rate 1 always fails.
func TestFailureRates(t *testing.T) {
	p := NewPlan(7)
	c := p.Start()
	for i := 0; i < 1000; i++ {
		if c.FailFetch() || c.FailMigration() {
			t.Fatal("zero-rate plan produced a failure")
		}
	}
	p2 := NewPlan(7)
	p2.FetchFailRate = 1
	c2 := p2.Start()
	for i := 0; i < 1000; i++ {
		if !c2.FailFetch() {
			t.Fatal("rate-1 plan produced a success")
		}
	}
	// A 20% rate lands loosely near 20% over a long stream.
	p3 := NewPlan(7)
	p3.FetchFailRate = 0.2
	c3 := p3.Start()
	fails := 0
	const n = 100_000
	for i := 0; i < n; i++ {
		if c3.FailFetch() {
			fails++
		}
	}
	if got := float64(fails) / n; got < 0.18 || got > 0.22 {
		t.Fatalf("fail fraction = %v, want ≈ 0.2", got)
	}
}
