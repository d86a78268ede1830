package engine

import (
	"testing"
	"time"

	"jenga/internal/baseline"
	"jenga/internal/core"
	"jenga/internal/gpu"
	"jenga/internal/model"
	"jenga/internal/workload"
)

// miniWindowSpec is a scaled-down Ministral: 1 full + 3 sliding-window
// layers, window 64.
func miniWindowSpec() *model.Spec {
	return &model.Spec{
		Name: "mini-win", Params: 100_000_000, WeightBytes: 2, HiddenSize: 256,
		Groups: []model.KVGroup{
			{Name: "full", Kind: model.FullAttention, Layers: 1, BytesPerToken: 256},
			{Name: "window", Kind: model.SlidingWindow, Layers: 3, BytesPerToken: 256, Window: 64},
		},
	}
}

// miniVLMSpec is a scaled-down LLaVA.
func miniVLMSpec() *model.Spec {
	return &model.Spec{
		Name: "mini-vlm", Params: 100_000_000, WeightBytes: 2, HiddenSize: 256,
		Groups: []model.KVGroup{
			{Name: "self", Kind: model.FullAttention, Layers: 4, BytesPerToken: 256},
			{Name: "vision", Kind: model.VisionEmbedding, Layers: 1, BytesPerToken: 512, Scope: model.ScopeImage},
		},
		Vision: &model.VisionSpec{Params: 10_000_000, TokensPerImage: 16},
	}
}

// smallDevice is a fast simulated GPU so tests finish quickly.
func smallDevice() gpu.Device {
	return gpu.Device{Name: "test-gpu", MemBytes: 1 << 30, FLOPS: 50e12, MemBW: 500e9,
		StepOverhead: time.Millisecond}
}

func jengaFor(t *testing.T, spec *model.Spec, capacity int64, cache bool) core.Manager {
	t.Helper()
	m, err := core.New(core.Config{
		Spec: spec, CapacityBytes: capacity, TokensPerPage: 8,
		EnablePrefixCache: cache, RequestAware: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func pagedFor(t *testing.T, spec *model.Spec, capacity int64, cache bool) core.Manager {
	t.Helper()
	m, err := baseline.NewPaged(baseline.Config{
		Spec: spec, CapacityBytes: capacity, TokensPerPage: 8, EnablePrefixCache: cache,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func textReqs(seed int64, n, promptLen, outLen int) []workload.Request {
	g := workload.NewGen(seed)
	reqs := g.ShareGPT(n)
	for i := range reqs {
		if len(reqs[i].Prompt) > promptLen {
			reqs[i].Prompt = reqs[i].Prompt[:promptLen]
		}
		reqs[i].OutputLen = outLen
	}
	workload.AllAtOnce(reqs)
	return reqs
}

func runEngine(t *testing.T, cfg Config, reqs []workload.Request) *Result {
	t.Helper()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestEngineBasicRun(t *testing.T) {
	spec := miniWindowSpec()
	mgr := jengaFor(t, spec, 8<<20, false)
	reqs := textReqs(1, 10, 300, 20)
	res := runEngine(t, Config{Spec: spec, Device: smallDevice(), Manager: mgr, MaxBatchTokens: 512}, reqs)
	if res.Finished != 10 || res.Failed != 0 {
		t.Fatalf("finished %d failed %d, want 10/0", res.Finished, res.Failed)
	}
	if res.ReqPerSec <= 0 || res.TokensPerSec <= 0 {
		t.Error("throughput must be positive")
	}
	if res.MeanTTFT <= 0 || res.MeanE2E < res.MeanTTFT {
		t.Errorf("latencies inconsistent: ttft %v e2e %v", res.MeanTTFT, res.MeanE2E)
	}
	if res.MeanTPOT <= 0 {
		t.Error("TPOT must be positive with multi-token outputs")
	}
	// Memory fully drains at the end.
	u := mgr.Usage()
	if u.Used != 0 || u.Wasted != 0 {
		t.Errorf("memory leak at end of run: %+v", u)
	}
}

func TestEngineConfigErrors(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("missing spec/manager should error")
	}
	spec := miniWindowSpec()
	e, err := New(Config{Spec: spec, Device: smallDevice(), Manager: jengaFor(t, spec, 8<<20, false)})
	if err != nil {
		t.Fatal(err)
	}
	bad := textReqs(1, 1, 50, 5)
	bad[0].OutputLen = 0
	if _, err := e.Run(bad); err == nil {
		t.Error("zero output length should error")
	}
}

// TestJengaOutbatchesBaseline: under tight memory, Jenga's window
// freeing fits more concurrent decodes → higher throughput and larger
// decode batches (the Fig. 13/15 mechanism at miniature scale).
func TestJengaOutbatchesBaseline(t *testing.T) {
	spec := miniWindowSpec()
	capacity := int64(1 << 20) // tight: forces batch-size differences
	reqs := textReqs(2, 12, 400, 30)

	jr := runEngine(t, Config{Spec: spec, Device: smallDevice(),
		Manager: jengaFor(t, spec, capacity, false), MaxBatchTokens: 512}, reqs)
	reqs2 := textReqs(2, 12, 400, 30)
	br := runEngine(t, Config{Spec: spec, Device: smallDevice(),
		Manager: pagedFor(t, spec, capacity, false), MaxBatchTokens: 512}, reqs2)

	if jr.Finished != 12 || br.Finished != 12 {
		t.Fatalf("finished: jenga %d baseline %d", jr.Finished, br.Finished)
	}
	if jr.ReqPerSec <= br.ReqPerSec {
		t.Errorf("jenga %.3f req/s should beat baseline %.3f req/s",
			jr.ReqPerSec, br.ReqPerSec)
	}
	if jr.MeanDecodeBatch <= br.MeanDecodeBatch {
		t.Errorf("jenga decode batch %.2f should beat baseline %.2f",
			jr.MeanDecodeBatch, br.MeanDecodeBatch)
	}
}

// TestPreemptionRecovers: short prompts admit many requests, then long
// outputs grow decode KV beyond capacity, forcing recompute-preemption;
// everything must still complete.
func TestPreemptionRecovers(t *testing.T) {
	spec := miniWindowSpec()
	capacity := int64(400 << 10)
	mgr := jengaFor(t, spec, capacity, false)
	reqs := textReqs(3, 6, 100, 300)
	res := runEngine(t, Config{Spec: spec, Device: smallDevice(), Manager: mgr, MaxBatchTokens: 512}, reqs)
	if res.Finished != 6 {
		t.Fatalf("finished %d of 6 (failed %d)", res.Finished, res.Failed)
	}
	if res.Preemptions == 0 {
		t.Error("expected preemptions under tight memory")
	}
}

// TestImpossibleRequestFails: a prompt that cannot fit even alone is
// failed rather than looping forever.
func TestImpossibleRequestFails(t *testing.T) {
	spec := miniWindowSpec()
	mgr := jengaFor(t, spec, 256<<10, false)
	reqs := textReqs(4, 2, 100, 5)
	// Request 0: a prompt far beyond capacity.
	reqs[0].Prompt = workload.NewGen(9).LongDocQA(1)[0].Prompt[:20000]
	res := runEngine(t, Config{Spec: spec, Device: smallDevice(), Manager: mgr, MaxBatchTokens: 1024}, reqs)
	if res.Failed != 1 {
		t.Errorf("failed = %d, want 1", res.Failed)
	}
	if res.Finished != 1 {
		t.Errorf("finished = %d, want 1", res.Finished)
	}
}

// TestPrefixCachingImprovesThroughput: repeated questions over the same
// articles hit the cache, skipping prefill compute (Fig. 17 mechanism).
func TestPrefixCachingImprovesThroughput(t *testing.T) {
	spec := miniWindowSpec()
	gen := workload.NewGen(5)
	arts := gen.Articles(2, 400)
	reqs := gen.ArxivQA(arts, 16, 32)
	for i := range reqs {
		reqs[i].OutputLen = 10
	}
	workload.AllAtOnce(reqs)

	on := runEngine(t, Config{Spec: spec, Device: smallDevice(),
		Manager: jengaFor(t, spec, 16<<20, true), MaxBatchTokens: 512}, reqs)

	gen2 := workload.NewGen(5)
	arts2 := gen2.Articles(2, 400)
	reqs2 := gen2.ArxivQA(arts2, 16, 32)
	for i := range reqs2 {
		reqs2[i].OutputLen = 10
	}
	workload.AllAtOnce(reqs2)
	off := runEngine(t, Config{Spec: spec, Device: smallDevice(),
		Manager: jengaFor(t, spec, 16<<20, false), MaxBatchTokens: 512}, reqs2)

	if on.HitRate <= 0.2 {
		t.Errorf("hit rate = %.2f, expected substantial hits", on.HitRate)
	}
	if off.HitRate != 0 {
		t.Errorf("hit rate with caching off = %.2f, want 0", off.HitRate)
	}
	if on.Duration >= off.Duration {
		t.Errorf("caching should shorten the run: on %v vs off %v", on.Duration, off.Duration)
	}
}

// TestVisionEncoderRuns: with the embedding cache the encoder runs once
// per request; without it, once per image-bearing chunk (Fig. 18).
func TestVisionEncoderRuns(t *testing.T) {
	spec := miniVLMSpec()
	gen := workload.NewGen(6)
	reqs := gen.MMMUPro(4, 16)
	for i := range reqs {
		// 4 images ≈ 64 image tokens + text; chunk 32 → several chunks.
		reqs[i].OutputLen = 5
	}
	workload.AllAtOnce(reqs)

	cached := runEngine(t, Config{Spec: spec, Device: smallDevice(),
		Manager: jengaFor(t, spec, 32<<20, false), MaxBatchTokens: 32,
		Vision: VisionFreeOnDemand}, reqs)

	gen2 := workload.NewGen(6)
	reqs2 := gen2.MMMUPro(4, 16)
	for i := range reqs2 {
		reqs2[i].OutputLen = 5
	}
	workload.AllAtOnce(reqs2)
	uncached := runEngine(t, Config{Spec: spec, Device: smallDevice(),
		Manager: pagedFor(t, spec, 32<<20, false), MaxBatchTokens: 32,
		Vision: VisionNone}, reqs2)

	if cached.EncoderRuns != 4 {
		t.Errorf("cached encoder runs = %d, want 4 (once per request)", cached.EncoderRuns)
	}
	if uncached.EncoderRuns <= cached.EncoderRuns {
		t.Errorf("uncached encoder runs = %d, must exceed %d", uncached.EncoderRuns, cached.EncoderRuns)
	}
	if cached.Duration >= uncached.Duration {
		t.Errorf("embedding cache should be faster: %v vs %v", cached.Duration, uncached.Duration)
	}

	// One request, 40 image tokens then 60 text, in chunks of 32: only
	// the two chunks that start with image tokens left to prefill run
	// the encoder; the text-only chunks after them do not.
	req := workload.Request{ID: 1, OutputLen: 3}
	for i := 0; i < 100; i++ {
		tok := core.TextToken(int32(i + 1))
		if i < 40 {
			tok = core.ImageToken(int32(i + 1))
		}
		req.Prompt = append(req.Prompt, tok)
	}
	one := runEngine(t, Config{Spec: spec, Device: smallDevice(),
		Manager: pagedFor(t, spec, 32<<20, false), MaxBatchTokens: 32,
		Vision: VisionNone}, []workload.Request{req})
	if one.EncoderRuns != 2 {
		t.Errorf("uncached encoder runs for 40 image + 60 text tokens in chunks of 32 = %d, want 2", one.EncoderRuns)
	}
}

// TestVisionReuseKVZeroVisionMemory: strategy B keeps vision memory at
// zero while still encoding once.
func TestVisionReuseKVZeroVisionMemory(t *testing.T) {
	spec := miniVLMSpec()
	mgr := jengaFor(t, spec, 32<<20, false)
	gen := workload.NewGen(7)
	reqs := gen.MMMUPro(3, 16)
	for i := range reqs {
		reqs[i].OutputLen = 4
	}
	workload.AllAtOnce(reqs)
	res := runEngine(t, Config{Spec: spec, Device: smallDevice(), Manager: mgr,
		MaxBatchTokens: 32, Vision: VisionReuseKV, SampleEvery: 1}, reqs)
	if res.EncoderRuns != 3 {
		t.Errorf("encoder runs = %d, want 3", res.EncoderRuns)
	}
	for _, s := range res.MemTimeline {
		if v, ok := s.Usage.PerGroup["vision"]; ok && v.Used > 0 {
			t.Fatalf("step %d: vision memory %d under ReuseKV, want 0", s.Step, v.Used)
		}
	}
}

// TestMemTimelineConservation: every sample conserves capacity.
func TestMemTimelineConservation(t *testing.T) {
	spec := miniWindowSpec()
	mgr := jengaFor(t, spec, 4<<20, true)
	reqs := textReqs(8, 8, 300, 15)
	res := runEngine(t, Config{Spec: spec, Device: smallDevice(), Manager: mgr,
		MaxBatchTokens: 256, SampleEvery: 2}, reqs)
	if len(res.MemTimeline) == 0 {
		t.Fatal("expected memory samples")
	}
	for _, s := range res.MemTimeline {
		total := s.Usage.Used + s.Usage.Cached + s.Usage.Wasted + s.Usage.Free
		if total != mgr.Capacity() {
			t.Fatalf("step %d: conservation violated (%d != %d)", s.Step, total, mgr.Capacity())
		}
	}
}

// TestDeterminism: identical configs produce identical results.
func TestDeterminism(t *testing.T) {
	spec := miniWindowSpec()
	run := func() *Result {
		return runEngine(t, Config{Spec: spec, Device: smallDevice(),
			Manager: jengaFor(t, spec, 2<<20, true), MaxBatchTokens: 256},
			textReqs(11, 8, 250, 12))
	}
	a, b := run(), run()
	if a.Duration != b.Duration || a.Steps != b.Steps || a.ReqPerSec != b.ReqPerSec ||
		a.Preemptions != b.Preemptions || a.HitRate != b.HitRate {
		t.Errorf("nondeterministic: %+v vs %+v", a, b)
	}
}

// TestPoissonLatencyGrowsWithRate: higher request rates mean higher
// TTFT (queueing) — the Fig. 14 shape.
func TestPoissonLatencyGrowsWithRate(t *testing.T) {
	spec := miniWindowSpec()
	runAt := func(rate float64) *Result {
		g := workload.NewGen(12)
		reqs := g.ShareGPT(20)
		for i := range reqs {
			if len(reqs[i].Prompt) > 200 {
				reqs[i].Prompt = reqs[i].Prompt[:200]
			}
			reqs[i].OutputLen = 10
		}
		g.PoissonArrivals(reqs, rate)
		return runEngine(t, Config{Spec: spec, Device: smallDevice(),
			Manager: jengaFor(t, spec, 1<<20, false), MaxBatchTokens: 256}, reqs)
	}
	slow := runAt(1)
	fast := runAt(1000)
	if fast.MeanTTFT <= slow.MeanTTFT {
		t.Errorf("TTFT at high rate (%v) should exceed low rate (%v)",
			fast.MeanTTFT, slow.MeanTTFT)
	}
}
