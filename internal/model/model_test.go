package model

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestZooSpecsValidate(t *testing.T) {
	specs := All()
	if len(specs) < 15 {
		t.Fatalf("expected at least 15 registered models, got %d", len(specs))
	}
	for _, s := range specs {
		if err := s.Validate(); err != nil {
			t.Errorf("spec %s failed validation: %v", s.Name, err)
		}
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("nope"); err == nil {
		t.Fatal("expected error for unknown model")
	} else if !strings.Contains(err.Error(), "available") {
		t.Errorf("error should list available models, got %v", err)
	}
}

func TestByNameKnown(t *testing.T) {
	s, err := ByName("mllama")
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "Llama-3.2-11B-Vision" {
		t.Errorf("unexpected name %q", s.Name)
	}
	if len(s.Groups) < 2 {
		t.Error("mllama should be heterogeneous")
	}
	if s.Vision == nil {
		t.Error("mllama should have a vision spec")
	}
}

// paperExampleSpec reproduces the Fig. 6 example: per-layer KV 128 bytes,
// 2 cross-attention layers (image page 256) + 3 self-attention layers
// (text page 384), LCM page 768.
func paperExampleSpec() *Spec {
	return &Spec{
		Name: "fig6", Params: 1_000_000, WeightBytes: 2, HiddenSize: 64,
		Groups: []KVGroup{
			{Name: "self", Kind: FullAttention, Layers: 3, BytesPerToken: 128, Scope: ScopeText},
			{Name: "cross", Kind: CrossAttention, Layers: 2, BytesPerToken: 128, Scope: ScopeImage},
		},
	}
}

func TestGeometryPaperExample(t *testing.T) {
	s := paperExampleSpec()
	g, err := s.Geometry(1)
	if err != nil {
		t.Fatal(err)
	}
	if g.SmallPageBytes["self"] != 384 {
		t.Errorf("self page = %d, want 384", g.SmallPageBytes["self"])
	}
	if g.SmallPageBytes["cross"] != 256 {
		t.Errorf("cross page = %d, want 256", g.SmallPageBytes["cross"])
	}
	if g.LargePageBytes != 768 {
		t.Errorf("LCM page = %d, want 768", g.LargePageBytes)
	}
	if g.Ratio["self"] != 2 || g.Ratio["cross"] != 3 {
		t.Errorf("ratios = %v, want self:2 cross:3", g.Ratio)
	}
}

// TestJambaGeometryFacts checks the two §4.4 facts: MAX paging needs
// 1344 tokens per attention page to avoid fragmentation, and the
// per-layer LCM ratio is 84× at 16 tokens per page.
func TestJambaGeometryFacts(t *testing.T) {
	s := Jamba52B()
	attn := s.Group("attn")
	mamba := s.Group("mamba")
	if attn == nil || mamba == nil {
		t.Fatal("jamba groups missing")
	}
	tokensForMax := mamba.StateBytes / attn.BytesPerToken
	if tokensForMax != 1344 {
		t.Errorf("MAX needs %d tokens/page, paper says 1344", tokensForMax)
	}
	perLayerRatio := mamba.StateBytes / (attn.BytesPerToken * 16)
	if perLayerRatio != 84 {
		t.Errorf("per-layer LCM ratio = %d, paper says 84", perLayerRatio)
	}
	g, err := s.Geometry(16)
	if err != nil {
		t.Fatal(err)
	}
	// Group pages span all layers of the group, so the group-level ratio
	// is 84 × mambaLayers / attnLayers = 84 × 28/4 = 588.
	if g.Ratio["attn"] != 588 {
		t.Errorf("group-level attn ratio = %d, want 588", g.Ratio["attn"])
	}
	if g.Ratio["mamba"] != 1 {
		t.Errorf("mamba ratio = %d, want 1", g.Ratio["mamba"])
	}
}

func TestGeometryErrors(t *testing.T) {
	s := paperExampleSpec()
	if _, err := s.Geometry(0); err == nil {
		t.Error("tokensPerPage 0 should error")
	}
	empty := &Spec{Name: "e", Params: 1, WeightBytes: 2}
	if _, err := empty.Geometry(1); err == nil {
		t.Error("empty groups should error")
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		s    Spec
	}{
		{"empty name", Spec{Params: 1, WeightBytes: 2, Groups: []KVGroup{{Name: "g", Kind: FullAttention, Layers: 1, BytesPerToken: 1}}}},
		{"bad params", Spec{Name: "x", WeightBytes: 2, Groups: []KVGroup{{Name: "g", Kind: FullAttention, Layers: 1, BytesPerToken: 1}}}},
		{"bad dtype", Spec{Name: "x", Params: 1, WeightBytes: 3, Groups: []KVGroup{{Name: "g", Kind: FullAttention, Layers: 1, BytesPerToken: 1}}}},
		{"no groups", Spec{Name: "x", Params: 1, WeightBytes: 2}},
		{"dup group", Spec{Name: "x", Params: 1, WeightBytes: 2, Groups: []KVGroup{
			{Name: "g", Kind: FullAttention, Layers: 1, BytesPerToken: 1},
			{Name: "g", Kind: FullAttention, Layers: 1, BytesPerToken: 1}}}},
		{"mamba no state", Spec{Name: "x", Params: 1, WeightBytes: 2, Groups: []KVGroup{{Name: "g", Kind: Mamba, Layers: 1}}}},
		{"window no window", Spec{Name: "x", Params: 1, WeightBytes: 2, Groups: []KVGroup{{Name: "g", Kind: SlidingWindow, Layers: 1, BytesPerToken: 1}}}},
		{"vision wrong scope", Spec{Name: "x", Params: 1, WeightBytes: 2, Groups: []KVGroup{{Name: "g", Kind: VisionEmbedding, Layers: 1, BytesPerToken: 1, Scope: ScopeText}}}},
		{"zero layers", Spec{Name: "x", Params: 1, WeightBytes: 2, Groups: []KVGroup{{Name: "g", Kind: FullAttention, Layers: 0, BytesPerToken: 1}}}},
	}
	for _, c := range cases {
		if err := c.s.Validate(); err == nil {
			t.Errorf("%s: expected validation error", c.name)
		}
	}
}

func TestStoresToken(t *testing.T) {
	text := KVGroup{Scope: ScopeText}
	image := KVGroup{Scope: ScopeImage}
	all := KVGroup{Scope: ScopeAll}
	if text.StoresToken(true) || !text.StoresToken(false) {
		t.Error("text scope wrong")
	}
	if !image.StoresToken(true) || image.StoresToken(false) {
		t.Error("image scope wrong")
	}
	if !all.StoresToken(true) || !all.StoresToken(false) {
		t.Error("all scope wrong")
	}
}

// tokenBytes is the KV one token of the given modality costs across the
// groups that store it (Mamba state is per sequence, vision embeddings
// are consumed by prefill).
func tokenBytes(s *Spec, image bool) int {
	total := 0
	for i := range s.Groups {
		g := &s.Groups[i]
		if g.Kind != Mamba && g.Kind != VisionEmbedding && g.StoresToken(image) {
			total += g.BytesPerToken * g.Layers
		}
	}
	return total
}

// TestBytesPerTokenAllLayers: token scopes route a text token to the
// self-attention layers and an image token to the cross-attention ones.
func TestBytesPerTokenAllLayers(t *testing.T) {
	s := Llama32Vision11B()
	text := tokenBytes(s, false)
	img := tokenBytes(s, true)
	// 32 self layers × 4096 for text; 8 cross layers × 4096 for image.
	if text != 32*4096 {
		t.Errorf("text bytes/token = %d, want %d", text, 32*4096)
	}
	if img != 8*4096 {
		t.Errorf("image bytes/token = %d, want %d", img, 8*4096)
	}
}

func TestMambaCheckpointDefault(t *testing.T) {
	g := KVGroup{Kind: Mamba, StateBytes: 10, Layers: 1}
	if g.Checkpoint() != DefaultMambaCheckpoint {
		t.Errorf("default checkpoint = %d, want %d", g.Checkpoint(), DefaultMambaCheckpoint)
	}
	g.CheckpointEvery = 128
	if g.Checkpoint() != 128 {
		t.Errorf("checkpoint = %d, want 128", g.Checkpoint())
	}
}

func TestLCMGCDProperties(t *testing.T) {
	// gcd divides both inputs; lcm is divisible by both; lcm*gcd == a*b.
	prop := func(a, b uint16) bool {
		x, y := int(a)+1, int(b)+1
		g := GCD(x, y)
		if x%g != 0 || y%g != 0 {
			return false
		}
		l, err := LCM(x, y)
		if err != nil {
			return false
		}
		if l%x != 0 || l%y != 0 {
			return false
		}
		return l*g == x*y
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestLCMErrors(t *testing.T) {
	if _, err := LCM(0, 5); err == nil {
		t.Error("lcm(0,5) should error")
	}
	if _, err := LCM(1<<61, (1<<61)-1); err == nil {
		t.Error("huge lcm should overflow")
	}
}

func TestGeometryLCMDivisibility(t *testing.T) {
	// For every zoo model, the LCM page must be divisible by every
	// small page with zero tail waste (property 5 in DESIGN.md).
	for _, s := range All() {
		g, err := s.Geometry(16)
		if err != nil {
			t.Errorf("%s: %v", s.Name, err)
			continue
		}
		for name, sz := range g.SmallPageBytes {
			if g.LargePageBytes%sz != 0 {
				t.Errorf("%s group %s: LCM %d not divisible by %d", s.Name, name, g.LargePageBytes, sz)
			}
		}
		if g.MaxRatio() < 1 {
			t.Errorf("%s: max ratio < 1", s.Name)
		}
	}
}

func TestKindScopeStrings(t *testing.T) {
	kinds := map[Kind]string{FullAttention: "full", SlidingWindow: "window", Mamba: "mamba",
		CrossAttention: "cross", VisionEmbedding: "vision", PyramidWindow: "pyramid", Kind(42): "kind(42)"}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("kind %d = %q, want %q", int(k), k.String(), want)
		}
	}
	scopes := map[TokenScope]string{ScopeAll: "all", ScopeText: "text", ScopeImage: "image", TokenScope(7): "scope(7)"}
	for s, want := range scopes {
		if s.String() != want {
			t.Errorf("scope %d = %q, want %q", int(s), s.String(), want)
		}
	}
	if !strings.Contains(Jamba52B().String(), "mamba") {
		t.Error("spec string should mention groups")
	}
}

func TestWeightFootprint(t *testing.T) {
	s := Llama32Vision11B()
	want := s.Params*2 + s.Vision.Params*2
	if got := s.WeightFootprint(); got != want {
		t.Errorf("weight footprint = %d, want %d", got, want)
	}
	j := Jamba52B()
	if j.ActiveParamCount() != 12_000_000_000 {
		t.Errorf("jamba active params = %d", j.ActiveParamCount())
	}
	l := Llama31_8B()
	if l.ActiveParamCount() != l.Params {
		t.Error("dense model active params should equal params")
	}
}

// TestWithDraft: a target/draft pair is the target with both models'
// KV groups, each model's under its own prefix, and a pointer to the
// draft; the models it was built from are left as they were.
func TestWithDraft(t *testing.T) {
	target, draft := Gemma2_27B(), Gemma2_2B()
	nt, nd := len(target.Groups), len(draft.Groups)
	pair := WithDraft(target, draft)
	if err := pair.Validate(); err != nil {
		t.Fatal(err)
	}
	if pair.Draft != draft || len(pair.Groups) != nt+nd || len(target.Groups) != nt || target.Draft != nil {
		t.Fatalf("pair has %d groups and draft %v; target now has %d groups", len(pair.Groups), pair.Draft, len(target.Groups))
	}
	for i, g := range pair.Groups {
		want := "t:" + target.Groups[min(i, nt-1)].Name
		if i >= nt {
			want = "d:" + draft.Groups[i-nt].Name
		}
		if g.Name != want || g.Tag != "" {
			t.Errorf("group %d is %q (tag %q), want %q untagged", i, g.Name, g.Tag, want)
		}
	}
	if tokenBytes(pair, false) != tokenBytes(target, false)+tokenBytes(draft, false) {
		t.Error("a token of the pair must cost both models' KV")
	}
	// One pass of the pair streams the target's weights; the draft's
	// belong to the draft's passes.
	if pair.WeightFootprint() != target.WeightFootprint() || pair.ActiveParamCount() != target.ActiveParamCount() {
		t.Error("the pair's own weights are the target's")
	}
	if _, err := pair.Geometry(16); err != nil {
		t.Errorf("pair geometry: %v", err)
	}
}
