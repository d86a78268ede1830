package main

import (
	"fmt"
	"time"

	"jenga/internal/bench"
	"jenga/internal/core"
	"jenga/internal/metrics"
	"jenga/internal/model"
)

// The per-layer micro numbers: internal/bench's hot-path fixtures and
// two DurationHist operations, each timed for a fixed slice of host
// time. They are workload-independent — every traced run reports the
// same fixtures — and sit next to the traced counters so a per-op cost
// can be multiplied by that workload's call count.

// fixtureSlice is how long each fixture is measured.
const fixtureSlice = 60 * time.Millisecond

// fixtures lists the timed fixtures and the per-layer metrics they
// feed; allocs and bytes are reported only where a later issue tracks
// them.
var fixtures = []struct {
	build             func() (*bench.Op, error)
	ns, allocs, bytes string
}{
	{build: allocSmall8k, ns: "core.alloc_small_8k_ns", allocs: "core.alloc_small_8k_allocs"},
	{build: bench.ClaimRelease, ns: "core.claim_release_ns", allocs: "core.claim_release_allocs"},
	{build: bench.LookupWarm, ns: "core.lookup_warm_ns"},
	{build: bench.CommitDecode, ns: "core.commit_decode_ns"},
	{build: bench.RunStepSteadyState, ns: "engine.run_step_ns"},
	{build: bench.ServeOnlineArrival, ns: "cluster.online_arrival_ns", bytes: "cluster.online_arrival_bytes"},
}

// allocSmall8k is the shape of bench.AllocSmall on a pool a sixteenth
// the size: one small-page allocation plus release from a nearly full
// pool whose free pages are scattered across half-used large pages (the
// §5.4 step-4 any-free pop). The original interleaves two 131072-page
// sequences page by page, which takes 100 s to set up — more than a
// whole benchmark run may — and has no size parameter; this PR may not
// add one to internal/bench. Same model, same steps, 8192 pages each:
// the number is NOT comparable with BENCH_core.json's alloc_small, hence
// the metric's own name (core.alloc_small_8k_*).
func allocSmall8k() (*bench.Op, error) {
	spec := &model.Spec{
		Name: "bench-hiutil", Params: 1_000_000, WeightBytes: 2, HiddenSize: 64,
		Groups: []model.KVGroup{
			{Name: "kv", Kind: model.FullAttention, Layers: 1, BytesPerToken: 256, Scope: model.ScopeText},
			{Name: "pad", Kind: model.FullAttention, Layers: 1, BytesPerToken: 512, Scope: model.ScopeImage},
		},
	}
	mgr, err := core.New(core.Config{Spec: spec, CapacityBytes: 1 << 26, TokensPerPage: 16})
	if err != nil {
		return nil, err
	}
	const pages = 8192 // per interleaved sequence: half the kv pool
	fill := func(id core.RequestID, n int) *core.Sequence {
		seq := &core.Sequence{ID: id, Tokens: make([]core.Token, n*16)}
		for i := range seq.Tokens {
			seq.Tokens[i] = core.Token{ID: int32(i%50_000 + 1)}
		}
		return seq
	}
	a, b := fill(1, pages), fill(2, pages)
	for p := 1; p <= pages; p++ {
		if err := mgr.Reserve(a, p*16, 1); err != nil {
			return nil, err
		}
		if err := mgr.Reserve(b, p*16, 1); err != nil {
			return nil, err
		}
	}
	mgr.Release(b, false)
	// Re-occupy all but a few dozen of the scattered free pages.
	c := fill(3, pages-48)
	if err := mgr.Reserve(c, len(c.Tokens), 1); err != nil {
		return nil, err
	}
	probe := fill(1000, 1)
	return &bench.Op{Run: func(i int) error {
		probe.ID = core.RequestID(1000 + i)
		if err := mgr.Reserve(probe, 16, core.Tick(i)); err != nil {
			return err
		}
		mgr.Release(probe, false)
		return nil
	}}, nil
}

// stopwatch accumulates measured time and allocations over the
// stretches between start and stop.
type stopwatch struct {
	busy          time.Duration
	allocs, bytes uint64
	t0            time.Duration
	a0, b0        uint64
}

func (w *stopwatch) start() {
	w.a0, w.b0 = mallocCount(), readMetric(metricAllocB)
	w.t0 = now()
}

func (w *stopwatch) stop() {
	w.busy += now() - w.t0
	w.allocs += mallocCount() - w.a0
	w.bytes += readMetric(metricAllocB) - w.b0
}

// timeOp runs op for about fixtureSlice of measured time, keeping the
// steady-state recycles outside it (as bench.Loop does).
func timeOp(op *bench.Op) (nsPerOp, allocsPerOp, bytesPerOp float64, err error) {
	var w stopwatch
	iters := 0
	for w.busy < fixtureSlice {
		w.start()
		for k := 0; k < 256; k++ {
			if op.Recycle != nil && op.RecycleEvery > 0 && iters > 0 && iters%op.RecycleEvery == 0 {
				w.stop()
				if err := op.Recycle(iters); err != nil {
					return 0, 0, 0, err
				}
				w.start()
			}
			if err := op.Run(iters); err != nil {
				return 0, 0, 0, err
			}
			iters++
		}
		w.stop()
	}
	n := float64(iters)
	return float64(w.busy) / n, float64(w.allocs) / n, float64(w.bytes) / n, nil
}

// runFixtures measures every fixture into m.
func runFixtures(m map[string]float64) error {
	for _, fx := range fixtures {
		op, err := fx.build()
		if err != nil {
			return fmt.Errorf("fixture %s: %w", fx.ns, err)
		}
		ns, allocs, bytes, err := timeOp(op)
		if err != nil {
			return fmt.Errorf("fixture %s: %w", fx.ns, err)
		}
		m[fx.ns] = ns
		if fx.allocs != "" {
			m[fx.allocs] = allocs
		}
		if fx.bytes != "" {
			m[fx.bytes] = bytes
		}
	}

	// DurationHist: one Observe, and one Merge of a populated histogram.
	var h, other metrics.DurationHist
	const observes = 1 << 18
	t0 := now()
	for i := 0; i < observes; i++ {
		h.Observe(time.Duration(i%4096+1) * 37 * time.Microsecond)
	}
	m["metrics.hist_observe_ns"] = float64(now()-t0) / observes
	const merges = 1 << 10
	t0 = now()
	for i := 0; i < merges; i++ {
		other.Merge(&h)
	}
	m["metrics.hist_merge_ns"] = float64(now()-t0) / merges
	return nil
}
