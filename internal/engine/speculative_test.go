package engine

import (
	"strings"
	"testing"

	"jenga/internal/baseline"
	"jenga/internal/core"
	"jenga/internal/gpu"
	"jenga/internal/model"
	"jenga/internal/sched"
	"jenga/internal/workload"
)

// miniDraft is the small model miniWindowSpec is paired with.
func miniDraft() *model.Spec {
	return &model.Spec{
		Name: "mini-draft", Params: 10_000_000, WeightBytes: 2, HiddenSize: 64,
		Groups: []model.KVGroup{
			{Name: "self", Kind: model.FullAttention, Layers: 1, BytesPerToken: 128},
		},
	}
}

func miniPair() *model.Spec { return model.WithDraft(miniWindowSpec(), miniDraft()) }

// specManagers builds the three Fig. 19 memory strategies for miniPair.
func specManagers(t *testing.T, capacity int64) map[string]core.Manager {
	t.Helper()
	vmax, err := baseline.NewVLLMMax(miniWindowSpec(), miniDraft(), capacity, 8, false)
	if err != nil {
		t.Fatal(err)
	}
	manual, err := baseline.NewVLLMManual(miniWindowSpec(), miniDraft(), capacity, 8, false)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]core.Manager{
		"shared": jengaFor(t, miniPair(), capacity, false), "max": vmax, "manual": manual,
	}
}

// verifyPasses is the number of verify passes a run executed (it reads
// the per-step timeline, so the run needs SampleEvery > 0).
func verifyPasses(res *Result) (n int) {
	for _, b := range res.DecodeBatchTimeline {
		n += b
	}
	return n
}

// wantGenerated is what a fully served workload generates: every
// output token but each request's first, which prefill produces.
func wantGenerated(reqs []workload.Request) (n int64) {
	for i := range reqs {
		n += int64(reqs[i].OutputLen - 1)
	}
	return n
}

// TestSpeculativeFinishesUnderEveryManager: a paired spec runs to
// completion through the ordinary engine over the shared Jenga heap,
// vLLM-max and the manual split alike — in bursts, generating exactly
// the requested tokens, and leaving no memory behind.
func TestSpeculativeFinishesUnderEveryManager(t *testing.T) {
	for name, mgr := range specManagers(t, 8<<20) {
		t.Run(name, func(t *testing.T) {
			reqs := textReqs(11, 8, 200, 40)
			res := runEngine(t, Config{Spec: miniPair(), Device: smallDevice(), Manager: mgr, MaxBatchTokens: 512, SampleEvery: 1}, reqs)
			if res.Finished != 8 || res.Failed != 0 {
				t.Fatalf("finished %d failed %d, want 8/0", res.Finished, res.Failed)
			}
			if res.GeneratedTokens != wantGenerated(reqs) {
				t.Errorf("generated %d tokens, want %d", res.GeneratedTokens, wantGenerated(reqs))
			}
			perPass := float64(res.GeneratedTokens) / float64(verifyPasses(res))
			if perPass <= 1 || perPass > SpecK+1 {
				t.Errorf("%.2f tokens per verify pass, want (1, %d]", perPass, SpecK+1)
			}
			if res.ReqPerSec <= 0 {
				t.Error("throughput must be positive")
			}
			if u := mgr.Usage(); u.Used != 0 {
				t.Errorf("leaked memory: %+v", u)
			}
		})
	}
}

// TestSpeculativeSharedBeatsMaxUnderPressure: with tight memory, the
// shared heap batches more requests than vLLM-max (draft tokens in
// target-sized slots, window KV never freed) — the Fig. 19 mechanism.
func TestSpeculativeSharedBeatsMaxUnderPressure(t *testing.T) {
	ms := specManagers(t, 1<<20)
	run := func(name string) *Result {
		res := runEngine(t, Config{Spec: miniPair(), Device: smallDevice(), Manager: ms[name], MaxBatchTokens: 512}, textReqs(11, 10, 200, 40))
		if res.Finished != 10 {
			t.Fatalf("%s finished %d of 10 (failed %d)", name, res.Finished, res.Failed)
		}
		return res
	}
	shared, vmax := run("shared"), run("max")
	if shared.MeanDecodeBatch <= vmax.MeanDecodeBatch || shared.ReqPerSec <= vmax.ReqPerSec {
		t.Errorf("shared heap: batch %.1f at %.3f req/s; vLLM-max: batch %.1f at %.3f req/s — shared should lead both",
			shared.MeanDecodeBatch, shared.ReqPerSec, vmax.MeanDecodeBatch, vmax.ReqPerSec)
	}
}

// burstsByRequest records, per request, the cumulative Generated count
// of every token event — the burst boundaries of its decode.
func burstsByRequest(events []Event) map[int64][]int {
	out := make(map[int64][]int)
	for _, ev := range events {
		if ev.Type == EventToken {
			out[ev.ID] = append(out[ev.ID], ev.Generated)
		}
	}
	return out
}

// TestSpeculativePreemptionUnderPressure: a shared heap too small for
// the whole batch's decode growth forces preemptions; everything still
// completes, nothing leaks, and — acceptance being keyed to sequence
// position, not to how many passes a run has made — every request
// decodes in exactly the bursts it does when never preempted.
func TestSpeculativePreemptionUnderPressure(t *testing.T) {
	run := func(capacity int64) (map[int64][]int, *Result) {
		mgr := jengaFor(t, miniPair(), capacity, false)
		events, res := collectEvents(t, Config{Spec: miniPair(), Device: smallDevice(), Manager: mgr, MaxBatchTokens: 512}, textReqs(31, 8, 100, 200))
		if res.Finished != 8 {
			t.Fatalf("finished %d of 8 (failed %d)", res.Finished, res.Failed)
		}
		if u := mgr.Usage(); u.Used != 0 {
			t.Errorf("leaked memory: %+v", u)
		}
		return burstsByRequest(events), res
	}
	tight, tightRes := run(700 << 10)
	roomy, roomyRes := run(8 << 20)
	if tightRes.Preemptions == 0 || roomyRes.Preemptions != 0 {
		t.Fatalf("preemptions tight/roomy = %d/%d, want >0/0", tightRes.Preemptions, roomyRes.Preemptions)
	}
	for id, want := range roomy {
		got := tight[id]
		// A preempted run repeats no burst: its recompute pass is prefill.
		if len(got) != len(want) {
			t.Fatalf("request %d: %d bursts under pressure, %d without", id, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("request %d burst %d ends at %d generated under pressure, %d without", id, i, got[i], want[i])
			}
		}
	}
}

// TestSpeculativeImpossibleRequestFails: a prompt no configuration can
// hold is failed rather than wedging the requests behind it.
func TestSpeculativeImpossibleRequestFails(t *testing.T) {
	reqs := textReqs(33, 2, 100, 4)
	reqs[0].Prompt = workload.NewGen(9).LongDocQA(1)[0].Prompt[:20000]
	res := runEngine(t, Config{Spec: miniPair(), Device: smallDevice(), Manager: jengaFor(t, miniPair(), 400<<10, false), MaxBatchTokens: 1024}, reqs)
	if res.Failed != 1 || res.Finished != 1 {
		t.Errorf("finished/failed = %d/%d, want 1/1", res.Finished, res.Failed)
	}
}

// TestSpeculativeResultConsistency: sanity relations between the
// reported aggregates, and against the same workload served without a
// draft.
func TestSpeculativeResultConsistency(t *testing.T) {
	reqs := func() []workload.Request { return textReqs(34, 6, 200, 40) }
	res := runEngine(t, Config{Spec: miniPair(), Device: smallDevice(), Manager: specManagers(t, 8<<20)["manual"], MaxBatchTokens: 512, SampleEvery: 1}, reqs())
	if res.MeanDecodeBatch <= 0 || res.MeanDecodeBatch > 6 {
		t.Errorf("mean batch %f out of range", res.MeanDecodeBatch)
	}
	if res.TokensPerSec <= 0 {
		t.Error("token throughput must be positive")
	}
	if len(res.PerRequest) != 6 || res.MeanTPOT <= 0 || res.MeanE2E < res.MeanTTFT {
		t.Errorf("per-request records %d, tpot %v, ttft %v, e2e %v", len(res.PerRequest), res.MeanTPOT, res.MeanTTFT, res.MeanE2E)
	}
	// Leading successes of four Bernoulli(0.7) draws average 1.77; the
	// last pass of a request is cut short by its output length.
	if acc := float64(res.GeneratedTokens)/float64(verifyPasses(res)) - 1; acc < 1.3 || acc > 2.2 {
		t.Errorf("mean accepted proposals per pass %.2f, want ≈ 1.77", acc)
	}
	plain := runEngine(t, Config{Spec: miniWindowSpec(), Device: smallDevice(), Manager: jengaFor(t, miniWindowSpec(), 8<<20, false), MaxBatchTokens: 512}, reqs())
	if res.GeneratedTokens != plain.GeneratedTokens || res.Steps >= plain.Steps {
		t.Errorf("speculative: %d tokens in %d steps; plain: %d tokens in %d steps — want the same tokens in fewer steps",
			res.GeneratedTokens, res.Steps, plain.GeneratedTokens, plain.Steps)
	}
}

// TestAcceptedDraftsDeterministicBoundedPositionKeyed: the acceptance
// draw is a pure function of (request, position) with the distribution
// of leading Bernoulli(specAcceptRate) successes among SpecK.
func TestAcceptedDraftsDeterministicBoundedPositionKeyed(t *testing.T) {
	var hist [SpecK + 1]int
	sum, n := 0, 0
	for id := int64(0); id < 50; id++ {
		for pos := 0; pos < 400; pos++ {
			a := acceptedDrafts(id, pos)
			if a != acceptedDrafts(id, pos) {
				t.Fatal("acceptance must be deterministic per (request, position)")
			}
			if a < 0 || a > SpecK {
				t.Fatalf("acceptance %d out of [0, %d]", a, SpecK)
			}
			hist[a]++
			sum += a
			n++
		}
	}
	// E = 0.7 + 0.7² + 0.7³ + 0.7⁴ = 1.7731; P(0) = 0.3, P(SpecK) = 0.2401.
	if mean := float64(sum) / float64(n); mean < 1.72 || mean > 1.83 {
		t.Errorf("mean acceptance %.3f, want ≈ 1.773", mean)
	}
	if p0, pk := float64(hist[0])/float64(n), float64(hist[SpecK])/float64(n); p0 < 0.28 || p0 > 0.32 || pk < 0.22 || pk > 0.26 {
		t.Errorf("P(0) = %.3f, P(%d) = %.3f, want ≈ 0.300 and 0.240", p0, SpecK, pk)
	}
	// Neither coordinate is ignored: one request sees different draws
	// along its sequence, and two requests differ at the same positions.
	varies := func(f func(i int) int) bool {
		for i := 1; i < 64; i++ {
			if f(i) != f(0) {
				return true
			}
		}
		return false
	}
	if !varies(func(i int) int { return acceptedDrafts(7, i) }) || !varies(func(i int) int { return acceptedDrafts(int64(i), 7) }) {
		t.Error("acceptance must depend on both the request and the position")
	}
}

// TestSpeculativeConfigValidation: nothing is silently defaulted into
// shape. A step budget that cannot hold one verify pass could never
// schedule a decode — every request would stall and fail — so New
// rejects it, and a malformed pair fails model validation.
func TestSpeculativeConfigValidation(t *testing.T) {
	mgr := jengaFor(t, miniPair(), 8<<20, false)
	_, err := New(Config{Spec: miniPair(), Device: smallDevice(), Manager: mgr, MaxBatchTokens: SpecK})
	if err == nil || !strings.Contains(err.Error(), "verify pass") {
		t.Errorf("MaxBatchTokens = SpecK: err = %v, want a verify-pass error", err)
	}
	if _, err := New(Config{Spec: miniPair(), Device: smallDevice(), Manager: mgr, MaxBatchTokens: SpecK + 1}); err != nil {
		t.Errorf("MaxBatchTokens = SpecK+1 must be accepted: %v", err)
	}
	if _, err := New(Config{Spec: miniWindowSpec(), Device: smallDevice(), Manager: mgr, MaxBatchTokens: 1}); err != nil {
		t.Errorf("a draft-less spec has no verify pass to fit: %v", err)
	}
	if err := model.WithDraft(miniWindowSpec(), miniPair()).Validate(); err == nil {
		t.Error("a draft with a draft of its own must not validate")
	}
	if err := model.WithDraft(miniWindowSpec(), &model.Spec{Name: "empty"}).Validate(); err == nil {
		t.Error("an invalid draft must not validate")
	}
}

// TestSpeculativeVerifyPassIsWhole: a verify pass is scheduled whole
// or not at all. With an 8-token step and half of it reserved for
// prefill, the decode share (4) is below one pass (5) for as long as
// prefill work exists, so no run decodes until the last prompt is in —
// and every pass that does run fits its step.
func TestSpeculativeVerifyPassIsWhole(t *testing.T) {
	reqs := make([]workload.Request, 3)
	for i := range reqs {
		reqs[i] = workload.Request{ID: int64(i + 1), OutputLen: 20}
		for j := 0; j < 40; j++ {
			reqs[i].Prompt = append(reqs[i].Prompt, core.Token{ID: int32(100*i + j + 1)})
		}
	}
	res := runEngine(t, Config{
		Spec: miniPair(), Device: smallDevice(), Manager: jengaFor(t, miniPair(), 8<<20, false),
		MaxBatchTokens: 8, Scheduler: sched.WithPrefillReserve(sched.NewFCFS(), 0.5), SampleEvery: 1,
	}, reqs)
	if res.Finished != 3 || res.GeneratedTokens != wantGenerated(reqs) {
		t.Fatalf("finished %d of 3, generated %d of %d", res.Finished, res.GeneratedTokens, wantGenerated(reqs))
	}
	prefillSteps := 3 * 40 / 8
	for step, batch := range res.DecodeBatchTimeline {
		if step < prefillSteps && batch != 0 {
			t.Fatalf("step %d decoded %d runs inside a %d-token decode share", step+1, batch, 4)
		}
		if batch*(SpecK+1) > 8 {
			t.Fatalf("step %d ran %d verify passes in an 8-token budget", step+1, batch)
		}
	}
}

// TestSpeculativeStepPricing replays one request's events against the
// cost models by hand: the prompt goes through both models, and every
// decode step is one target pass over SpecK+1 positions plus SpecK
// sequential draft passes — whatever the burst it commits.
func TestSpeculativeStepPricing(t *testing.T) {
	pair, dev := miniPair(), smallDevice()
	target, draft := gpu.CostModel{Dev: dev, Spec: pair}, gpu.CostModel{Dev: dev, Spec: pair.Draft}
	reqs := textReqs(36, 1, 120, 30)
	events, res := collectEvents(t, Config{Spec: pair, Device: dev, Manager: jengaFor(t, pair, 8<<20, false), MaxBatchTokens: 512}, reqs)
	prompt := len(reqs[0].Prompt)
	clock := target.StepTime(gpu.StepWork{PrefillTokens: prompt}) + draft.StepTime(gpu.StepWork{PrefillTokens: prompt})
	ctx := prompt
	for _, ev := range events {
		switch ev.Type {
		case EventFirstToken:
			if ev.Clock != clock {
				t.Fatalf("first token at %v, want target + draft prefill = %v", ev.Clock, clock)
			}
		case EventToken:
			clock += target.StepTime(gpu.StepWork{DecodeSeqs: SpecK + 1, KVReadBytes: gpu.DecodeKVReadBytesSplit(pair, ctx, 0)}) +
				SpecK*draft.StepTime(gpu.StepWork{DecodeSeqs: 1})
			if ev.Clock != clock {
				t.Fatalf("burst ending at %d generated: clock %v, want %v", ev.Generated, ev.Clock, clock)
			}
			ctx = prompt + ev.Generated - 1
		}
	}
	if res.Duration != clock || res.Finished != 1 {
		t.Errorf("run took %v, want %v", res.Duration, clock)
	}
}
