package gpu

import (
	"testing"
	"time"

	"jenga/internal/model"
)

func TestKVBudget(t *testing.T) {
	spec := model.Llama31_8B()
	b, err := KVBudget(spec, H100(), 0)
	if err != nil {
		t.Fatal(err)
	}
	// 80 GB − ~16 GB weights − 8% reserve → tens of GB.
	if b < 40<<30 || b > 70<<30 {
		t.Errorf("8B on H100 KV budget = %d GiB, expected 40-70 GiB", b>>30)
	}
}

// TestKVBudgetPair: both models of a speculative pair are resident, so
// the draft's weights come out of the KV budget too.
func TestKVBudgetPair(t *testing.T) {
	target, draft := model.Llama31_70B(), model.Llama32_1B()
	alone, err := KVBudget(target, H100(), 0)
	if err != nil {
		t.Fatal(err)
	}
	paired, err := KVBudget(model.WithDraft(target, draft), H100(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if alone-paired != draft.WeightFootprint() {
		t.Errorf("pair budget %d vs target alone %d: want the draft's %d weight bytes less", paired, alone, draft.WeightFootprint())
	}
}

func TestKVBudgetOOM(t *testing.T) {
	// Jamba 52B fp8 (52 GB weights) cannot fit on a 24 GB L4 — the
	// paper skips this combination for the same reason.
	if _, err := KVBudget(model.Jamba52B(), L4(), 0); err == nil {
		t.Error("jamba on L4 should OOM")
	}
}

func TestStepTimeBatchingAmortizesWeights(t *testing.T) {
	spec := model.Llama31_8B()
	cm := &CostModel{Dev: H100(), Spec: spec}
	one := cm.StepTime(StepWork{DecodeSeqs: 1})
	thirtyTwo := cm.StepTime(StepWork{DecodeSeqs: 32})
	// 32 decodes in one step must cost far less than 32 single-decode
	// steps — the whole reason batch size drives throughput.
	if thirtyTwo >= 32*one {
		t.Errorf("batching does not amortize: 1×%v vs 32-batch %v", one, thirtyTwo)
	}
	if thirtyTwo < one {
		t.Error("bigger batches cannot be faster than smaller ones")
	}
}

func TestStepTimePrefillComputeBound(t *testing.T) {
	spec := model.Llama31_70B()
	cm := &CostModel{Dev: H100(), Spec: spec}
	small := cm.StepTime(StepWork{PrefillTokens: 256})
	big := cm.StepTime(StepWork{PrefillTokens: 8192})
	if big <= small {
		t.Error("longer prefill must take longer")
	}
	// 8192 tokens × 2 × 70e9 FLOPs ≈ 1.1e15 → ≈ 2 s at 600 TFLOP/s.
	if big < 500*time.Millisecond || big > 5*time.Second {
		t.Errorf("8k-token 70B prefill = %v, expected O(seconds)", big)
	}
}

func TestStepTimeZeroWork(t *testing.T) {
	cm := &CostModel{Dev: H100(), Spec: model.Llama31_8B()}
	if got := cm.StepTime(StepWork{}); got != 0 {
		t.Errorf("zero work should be free, got %v", got)
	}
}

func TestStepTimeKernelEfficiencyPenalty(t *testing.T) {
	cm := &CostModel{Dev: H100(), Spec: model.Llama31_8B()}
	native := cm.StepTime(StepWork{DecodeSeqs: 8, KVReadBytes: 1 << 30})
	slow := cm.StepTime(StepWork{DecodeSeqs: 8, KVReadBytes: 1 << 30, KernelEfficiency: 0.5})
	if slow <= native {
		t.Error("reduced kernel efficiency must slow the step")
	}
	weird := cm.StepTime(StepWork{DecodeSeqs: 8, KernelEfficiency: 7})
	if weird != cm.StepTime(StepWork{DecodeSeqs: 8}) {
		t.Error("out-of-range efficiency should clamp to 1")
	}
}

func TestEncoderCost(t *testing.T) {
	spec := model.Llama32Vision11B()
	cm := &CostModel{Dev: H100(), Spec: spec}
	without := cm.StepTime(StepWork{PrefillTokens: 1024})
	with := cm.StepTime(StepWork{PrefillTokens: 1024, EncoderTokens: 6193})
	if with <= without {
		t.Error("vision encoder must add time")
	}
}

// TestDecodeKVReadBytes: the per-sequence decode read the engine puts
// into StepWork.KVReadBytes is Spec.KVBytes — full layers the whole
// prefix, window layers min(ctx, window), Mamba its state.
func TestDecodeKVReadBytes(t *testing.T) {
	spec := model.Ministral8B()
	got := spec.KVBytes(90_000, 0)
	want := int64(90_000)*4096*9 + int64(32_768)*4096*27
	if got != want {
		t.Errorf("kv read = %d, want %d", got, want)
	}
	j := model.Jamba52B()
	got = j.KVBytes(1000, 0)
	want = int64(1000)*4096*4 + int64(1344*4096)*28
	if got != want {
		t.Errorf("jamba kv read = %d, want %d", got, want)
	}
}
