package engine

import (
	"testing"
	"time"

	"jenga/internal/core"
	"jenga/internal/model"
	"jenga/internal/workload"
)

// tieredJengaFor builds a prefix-caching Jenga manager with a host
// tier of hostBytes.
func tieredJengaFor(t *testing.T, spec *model.Spec, capacity, hostBytes int64) core.Manager {
	t.Helper()
	m, err := core.New(core.Config{
		Spec: spec, CapacityBytes: capacity, TokensPerPage: 8,
		EnablePrefixCache: true, RequestAware: true,
		HostTierBytes: hostBytes,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestRunGoldenRecomputeZeroTier: PreemptMode=recompute with an
// explicitly zero-byte host tier must be bit-identical to the pinned
// golden engine — the tier plumbing (TierManager capability,
// per-step DrainTransfers, PCIe term) must add exactly nothing when
// the tier is empty. Reuses the pressure golden (the regime where the
// evictor runs hardest, so a behavior change would show first).
func TestRunGoldenRecomputeZeroTier(t *testing.T) {
	spec := miniWindowSpec()
	mgr := tieredJengaFor(t, spec, 2<<20, 0)
	e, err := New(Config{
		Spec: spec, Device: smallDevice(), Manager: mgr,
		MaxBatchTokens: 512, MaxPrefills: 2,
		PreemptMode: PreemptRecompute,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(goldenWorkload())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, res, goldenExpect{
		steps: 405, finished: 72, failed: 0, preemptions: 0,
		duration: 697904698, meanTTFT: 44512645, meanE2E: 109112921, tpot: 1699816,
		cached: 0, computed: 36000, generated: 2737,
		hitRate: "0.000000000", meanKV: "0.887679525", peakKV: "0.984726295",
		decodeBatch: "6.774752475",
	})
	if res.SwapOuts != 0 || res.SwapIns != 0 || res.RestoredTokens != 0 || res.TierHitRate != 0 {
		t.Fatalf("zero-byte tier moved data: %+v", res)
	}
}

// pressureWorkload is a shared-prefix stream whose prefix working set
// (24 groups × 600 tokens) far exceeds the 960 KiB GPU budget: the
// evictor constantly discards one group's prefix to admit another's,
// so without a tier nearly every arrival recomputes its shared prefix
// from scratch, and preemption victims whose blocks were evicted
// recompute their own work too.
func pressureWorkload() []workload.Request {
	g := workload.NewGen(42)
	reqs := g.PrefixGroups(24, 8, 600, 64)
	g.PoissonArrivals(reqs, 400)
	return reqs
}

// runPressure executes the pressure scenario under one preempt mode
// and tier size.
func runPressure(t *testing.T, mode PreemptMode, hostBytes int64) *Result {
	t.Helper()
	spec := miniWindowSpec()
	mgr := tieredJengaFor(t, spec, 960<<10, hostBytes)
	e, err := New(Config{
		Spec: spec, Device: smallDevice(), Manager: mgr,
		MaxBatchTokens: 512, MaxPrefills: 2, MaxRunning: 16,
		PreemptMode: mode,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(pressureWorkload())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// p99TTFT is the nearest-rank p99 over a result's finished requests.
func p99TTFT(res *Result) time.Duration {
	ts := make([]time.Duration, 0, len(res.PerRequest))
	for _, rm := range res.PerRequest {
		ts = append(ts, rm.TTFT)
	}
	if len(ts) == 0 {
		return 0
	}
	for i := 1; i < len(ts); i++ {
		for j := i; j > 0 && ts[j] < ts[j-1]; j-- {
			ts[j], ts[j-1] = ts[j-1], ts[j]
		}
	}
	idx := (len(ts)*99 + 99) / 100
	if idx > len(ts) {
		idx = len(ts)
	}
	return ts[idx-1]
}

// TestSwapBeatsRecomputeUnderPressure is the tier's acceptance
// anchor: with a host tier sized to the working set and swap-based
// preemption, a memory-pressured run must recompute fewer tokens and
// deliver a better p99 TTFT than recompute-mode with no tier, while
// actually moving data through the tier both ways.
func TestSwapBeatsRecomputeUnderPressure(t *testing.T) {
	if testing.Short() {
		t.Skip("pressured serving comparison (seconds of simulation); run without -short")
	}
	recompute := runPressure(t, PreemptRecompute, 0)
	swap := runPressure(t, PreemptSwap, 64<<20)

	if recompute.Preemptions == 0 && recompute.RecomputedTokens == 0 {
		t.Fatalf("scenario not memory-pressured: no preemptions or recompute (finished %d)", recompute.Finished)
	}
	if swap.SwapOuts == 0 || swap.SwapIns == 0 || swap.RestoredTokens == 0 {
		t.Fatalf("swap mode moved nothing through the tier: %+v", swap)
	}
	if swap.TierHitRate <= 0 {
		t.Fatalf("TierHitRate = %v, want > 0", swap.TierHitRate)
	}
	// Fewer recomputed tokens: both the per-request recompute waste
	// and the shared-prefix recompute (computed prompt work overall).
	if swap.RecomputedTokens >= recompute.RecomputedTokens && recompute.RecomputedTokens > 0 {
		t.Errorf("swap recomputed %d tokens, recompute %d — tier did not pay",
			swap.RecomputedTokens, recompute.RecomputedTokens)
	}
	if swap.ComputedPromptTokens >= recompute.ComputedPromptTokens {
		t.Errorf("swap computed %d prompt tokens, recompute %d — spilled prefixes were not restored",
			swap.ComputedPromptTokens, recompute.ComputedPromptTokens)
	}
	if swap.HitRate <= recompute.HitRate {
		t.Errorf("swap hit rate %v not above recompute %v", swap.HitRate, recompute.HitRate)
	}
	if got, want := p99TTFT(swap), p99TTFT(recompute); got >= want {
		t.Errorf("swap p99 TTFT %v not better than recompute %v", got, want)
	}
	if swap.Finished < recompute.Finished {
		t.Errorf("finished: swap %d below recompute %d", swap.Finished, recompute.Finished)
	}
}

// TestSwapModeDegradesOnBaseline: a manager without the TierManager
// capability must serve identically under PreemptSwap and
// PreemptRecompute — swap mode silently degrades, it never breaks a
// baseline comparison.
func TestSwapModeDegradesOnBaseline(t *testing.T) {
	spec := miniWindowSpec()
	run := func(mode PreemptMode) *Result {
		mgr := jengaFor(t, spec, 2<<20, true)
		// Strip the capability by wrapping.
		e, err := New(Config{
			Spec: spec, Device: smallDevice(), Manager: managerOnly{mgr},
			MaxBatchTokens: 512, MaxPrefills: 2, PreemptMode: mode,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run(goldenWorkload())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(PreemptRecompute), run(PreemptSwap)
	if a.Duration != b.Duration || a.Steps != b.Steps || a.Finished != b.Finished ||
		a.Preemptions != b.Preemptions || a.ComputedPromptTokens != b.ComputedPromptTokens {
		t.Fatalf("swap mode diverged on a tierless manager: %+v vs %+v", a, b)
	}
}

// managerOnly hides every extra capability of the wrapped manager.
type managerOnly struct{ core.Manager }
