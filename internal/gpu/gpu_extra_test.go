package gpu

import (
	"testing"

	"jenga/internal/model"
)

// TestKVBudgetReserveFraction: a larger reserve shrinks the budget by
// exactly the extra reserve.
func TestKVBudgetReserveFraction(t *testing.T) {
	spec := model.Llama31_8B()
	dev := H100()
	small, err := KVBudget(spec, dev, 0.08)
	if err != nil {
		t.Fatal(err)
	}
	big, err := KVBudget(spec, dev, 0.35)
	if err != nil {
		t.Fatal(err)
	}
	wantDiff := int64(float64(dev.MemBytes) * (0.35 - 0.08))
	if diff := small - big; diff < wantDiff-2 || diff > wantDiff+2 {
		t.Errorf("budget diff = %d, want ≈ %d", diff, wantDiff)
	}
}

// TestDecodeKVReadSkipsVision: vision-embedding groups contribute no
// decode-time KV traffic (embeddings are prefill inputs).
func TestDecodeKVReadSkipsVision(t *testing.T) {
	spec := model.LLaVAOneVision7B()
	got := DecodeKVReadBytesSplit(spec, 400, 600)
	want := int64(1000) * int64(spec.Group("self").BytesPerToken) * int64(spec.Group("self").Layers)
	if got != want {
		t.Errorf("kv read = %d, want %d (vision must not count)", got, want)
	}
}

// TestStepTimeExtraWeightBytes: a draft model riding along adds its
// weight traffic to the bandwidth term.
func TestStepTimeExtraWeightBytes(t *testing.T) {
	cm := &CostModel{Dev: H100(), Spec: model.Llama31_70B()}
	plain := cm.StepTime(StepWork{DecodeSeqs: 4})
	withDraft := cm.StepTime(StepWork{DecodeSeqs: 4, ExtraWeightBytes: 10 << 30})
	if withDraft <= plain {
		t.Error("extra weight bytes must slow bandwidth-bound steps")
	}
}

// TestDeviceConstants sanity-checks the two platforms.
func TestDeviceConstants(t *testing.T) {
	h, l := H100(), L4()
	if h.MemBytes != 80<<30 || l.MemBytes != 24<<30 {
		t.Error("device memory sizes wrong")
	}
	if h.FLOPS <= l.FLOPS || h.MemBW <= l.MemBW {
		t.Error("H100 must outclass L4")
	}
}
