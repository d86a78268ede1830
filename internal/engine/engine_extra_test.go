package engine

import (
	"testing"

	"jenga/internal/core"
	"jenga/internal/workload"
)

// TestMaxRunningCap: the scheduler never runs more sequences than
// MaxRunning even with abundant memory.
func TestMaxRunningCap(t *testing.T) {
	spec := miniWindowSpec()
	mgr := jengaFor(t, spec, 64<<20, false)
	reqs := textReqs(21, 16, 100, 40)
	res := runEngine(t, Config{Spec: spec, Device: smallDevice(), Manager: mgr,
		MaxBatchTokens: 4096, MaxRunning: 3, MaxPrefills: 3, SampleEvery: 1}, reqs)
	if res.Finished != 16 {
		t.Fatalf("finished %d of 16", res.Finished)
	}
	for step, b := range res.DecodeBatchTimeline {
		if b > 3 {
			t.Fatalf("step %d: decode batch %d exceeds MaxRunning 3", step, b)
		}
	}
}

// TestKernelEfficiencySlowsRun: the GCD-ablation knob must lengthen the
// simulated run without changing the work done.
func TestKernelEfficiencySlowsRun(t *testing.T) {
	spec := miniWindowSpec()
	run := func(eff float64) *Result {
		return runEngine(t, Config{Spec: spec, Device: smallDevice(),
			Manager: jengaFor(t, spec, 8<<20, false), MaxBatchTokens: 512,
			KernelEfficiency: eff}, textReqs(22, 8, 200, 15))
	}
	fast := run(1.0)
	slow := run(0.5)
	if slow.Duration <= fast.Duration {
		t.Errorf("0.5 efficiency should be slower: %v vs %v", slow.Duration, fast.Duration)
	}
	if slow.Finished != fast.Finished {
		t.Error("efficiency must not change completed work")
	}
}

// TestPreemptionWithCachingEnabled: recompute-preemption with the
// prefix cache enabled exercises the Release(cache=true) path; under
// this much memory pressure the preempted blocks are usually evicted
// before re-admission, so only completion is asserted.
func TestPreemptionWithCachingEnabled(t *testing.T) {
	spec := miniWindowSpec()
	mgr := jengaFor(t, spec, 400<<10, true)
	reqs := textReqs(23, 6, 100, 300)
	res := runEngine(t, Config{Spec: spec, Device: smallDevice(), Manager: mgr,
		MaxBatchTokens: 512}, reqs)
	if res.Finished != 6 {
		t.Fatalf("finished %d of 6 (failed %d)", res.Finished, res.Failed)
	}
	if res.Preemptions == 0 {
		t.Skip("no preemptions at this capacity; nothing to check")
	}
	u := mgr.Usage()
	if u.Used != 0 {
		t.Errorf("leaked used memory after run: %+v", u)
	}
}

// TestSampleEveryControlsTimeline: sampling cadence shapes the
// timeline length.
func TestSampleEveryControlsTimeline(t *testing.T) {
	spec := miniWindowSpec()
	run := func(every int) int {
		res := runEngine(t, Config{Spec: spec, Device: smallDevice(),
			Manager: jengaFor(t, spec, 8<<20, false), MaxBatchTokens: 512,
			SampleEvery: every}, textReqs(24, 6, 150, 10))
		return len(res.MemTimeline)
	}
	if run(0) != 0 {
		t.Error("SampleEvery 0 must disable the timeline")
	}
	dense, sparse := run(1), run(8)
	if dense <= sparse {
		t.Errorf("denser sampling should yield more samples: %d vs %d", dense, sparse)
	}
}

// TestArrivalFastForward: a gap between arrivals advances the clock
// rather than spinning steps.
func TestArrivalFastForward(t *testing.T) {
	spec := miniWindowSpec()
	mgr := jengaFor(t, spec, 8<<20, false)
	g := workload.NewGen(25)
	reqs := g.ShareGPT(3)
	for i := range reqs {
		reqs[i].Prompt = reqs[i].Prompt[:50]
		reqs[i].OutputLen = 4
		reqs[i].Arrival = 0
	}
	reqs[2].Arrival = 1e9 * 30 // 30 s after the first two
	res := runEngine(t, Config{Spec: spec, Device: smallDevice(), Manager: mgr,
		MaxBatchTokens: 512}, reqs)
	if res.Finished != 3 {
		t.Fatalf("finished %d of 3", res.Finished)
	}
	if res.Duration.Seconds() < 30 {
		t.Errorf("clock should jump to the late arrival: %v", res.Duration)
	}
	if res.Steps > 200 {
		t.Errorf("fast-forward should not burn steps: %d", res.Steps)
	}
}

// TestVisionAdmissionBlockedByEmbeddings: when the embedding cache
// cannot fit, the request waits rather than deadlocking, and completes
// once memory frees.
func TestVisionAdmissionBlocked(t *testing.T) {
	spec := miniVLMSpec()
	// Capacity fits roughly one request's embeddings + KV at a time.
	mgr := jengaFor(t, spec, 256<<10, false)
	reqs := make([]workload.Request, 3)
	for i := range reqs {
		r := workload.Request{ID: int64(i + 1), OutputLen: 3}
		for j := 0; j < 64; j++ {
			r.Prompt = append(r.Prompt, core.ImageToken(int32(100*i+j)))
		}
		for j := 0; j < 16; j++ {
			r.Prompt = append(r.Prompt, core.Token{ID: int32(j + 1)})
		}
		reqs[i] = r
	}
	workload.AllAtOnce(reqs)
	res := runEngine(t, Config{Spec: spec, Device: smallDevice(), Manager: mgr,
		MaxBatchTokens: 64, Vision: VisionFreeOnDemand}, reqs)
	if res.Finished != 3 {
		t.Fatalf("finished %d of 3 (failed %d)", res.Finished, res.Failed)
	}
	if res.EncoderRuns < 3 {
		t.Errorf("each request needs at least one encoder run, got %d", res.EncoderRuns)
	}
}

func newSeq(n int) *core.Sequence {
	s := &core.Sequence{ID: 1}
	for i := 0; i < n; i++ {
		s.Tokens = append(s.Tokens, core.Token{ID: int32(i + 1)})
	}
	return s
}

// TestGenTokenDeterministic: generated tokens depend only on (request,
// position), keeping prefix caching coherent across identical runs.
func TestGenTokenDeterministic(t *testing.T) {
	spec := miniWindowSpec()
	e1, err := New(Config{Spec: spec, Device: smallDevice(), Manager: jengaFor(t, spec, 8<<20, false)})
	if err != nil {
		t.Fatal(err)
	}
	r := &run{carried: carried{req: workload.Request{ID: 42}}, seq: *newSeq(5)}
	a := e1.genToken(r)
	b := e1.genToken(r)
	if a != b {
		t.Error("genToken must be deterministic for a fixed position")
	}
	if a.Image() || a.Content() < 1 || a.Content() > 50000 {
		t.Errorf("generated token = image %v, content %d; want a text token in [1, 50000]", a.Image(), a.Content())
	}
	r.seq.Out = append(r.seq.Out, a)
	c := e1.genToken(r)
	if c == a {
		t.Error("next position should generally differ")
	}
}

// TestLatencyInvariants: TTFT ≤ E2E, and decode time ≈ TPOT·(out−1)
// accounts for the gap, per finished request aggregates.
func TestLatencyInvariants(t *testing.T) {
	spec := miniWindowSpec()
	mgr := jengaFor(t, spec, 8<<20, false)
	reqs := textReqs(41, 10, 200, 25)
	res := runEngine(t, Config{Spec: spec, Device: smallDevice(), Manager: mgr,
		MaxBatchTokens: 512}, reqs)
	if res.MeanTTFT > res.MeanE2E {
		t.Errorf("TTFT %v exceeds E2E %v", res.MeanTTFT, res.MeanE2E)
	}
	decode := res.MeanE2E - res.MeanTTFT
	approx := res.MeanTPOT * 24 // OutputLen-1
	ratio := float64(decode) / float64(approx)
	if ratio < 0.8 || ratio > 1.2 {
		t.Errorf("decode time %v vs TPOT×(out-1) %v: ratio %.2f", decode, approx, ratio)
	}
	if res.TokensPerSec <= 0 || res.ReqPerSec <= 0 {
		t.Error("throughputs must be positive")
	}
	// Duration is the max finish time.
	if res.Duration < res.MeanE2E {
		t.Error("run duration cannot undercut mean E2E for all-at-once arrivals")
	}
}

// TestBaselineThroughEngineDrains: the Paged baseline leaves no used
// memory behind after a full engine run with caching on.
func TestBaselineThroughEngineDrains(t *testing.T) {
	spec := miniWindowSpec()
	mgr := pagedFor(t, spec, 4<<20, true)
	reqs := textReqs(42, 12, 250, 20)
	res := runEngine(t, Config{Spec: spec, Device: smallDevice(), Manager: mgr,
		MaxBatchTokens: 512}, reqs)
	if res.Finished != 12 {
		t.Fatalf("finished %d of 12", res.Finished)
	}
	u := mgr.Usage()
	if u.Used != 0 || u.Wasted != 0 {
		t.Errorf("baseline retained used/wasted memory: %+v", u)
	}
	if u.Used+u.Cached+u.Wasted+u.Free != mgr.Capacity() {
		t.Error("conservation violated")
	}
}

// TestEmptyRequestList: an empty run terminates immediately.
func TestEmptyRequestList(t *testing.T) {
	spec := miniWindowSpec()
	e, err := New(Config{Spec: spec, Device: smallDevice(), Manager: jengaFor(t, spec, 1<<20, false)})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != 0 || res.Finished != 0 {
		t.Errorf("empty run produced work: %+v", res)
	}
}

// TestMaxStepsGuard: an unservable configuration aborts with an error
// instead of spinning forever.
func TestMaxStepsGuard(t *testing.T) {
	spec := miniWindowSpec()
	e, err := New(Config{Spec: spec, Device: smallDevice(),
		Manager: jengaFor(t, spec, 1<<20, false), MaxSteps: 50})
	if err != nil {
		t.Fatal(err)
	}
	// Enough work to exceed 50 steps.
	reqs := textReqs(43, 20, 300, 50)
	if _, err := e.Run(reqs); err == nil {
		t.Error("expected a MaxSteps error")
	}
}
