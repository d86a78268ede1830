package core

import (
	"testing"

	"jenga/internal/model"
)

// vlmSpec is a decoder-only VLM: full-attention KV over all tokens plus
// a vision-embedding cache over image tokens (LLaVA shape, §6.2).
func vlmSpec() *model.Spec {
	return &model.Spec{
		Name: "vlm", Params: 1000, WeightBytes: 2, HiddenSize: 8,
		Groups: []model.KVGroup{
			{Name: "self", Kind: model.FullAttention, Layers: 4, BytesPerToken: 64},
			{Name: "vision", Kind: model.VisionEmbedding, Layers: 1, BytesPerToken: 128, Scope: model.ScopeImage},
		},
		Vision: &model.VisionSpec{Params: 100, TokensPerImage: 8},
	}
}

// TestVisionEncodeConsumeFree walks the §6.2(a) timeline: encode fills
// the embedding cache, chunked prefill consumes it, DropImages frees
// consumed embeddings, so peak vision memory stays bounded.
func TestVisionEncodeConsumeFree(t *testing.T) {
	m := newMgr(t, vlmSpec(), 1<<20, 2, false)
	// Request [t0 i0 i1 i2 i3 t1] scaled up: 2 text, 8 image, 2 text.
	seq := &Sequence{ID: 1}
	seq.Tokens = append(seq.Tokens, Token{ID: 1}, Token{ID: 2})
	for i := 0; i < 8; i++ {
		seq.Tokens = append(seq.Tokens, ImageToken(int32(10+i)))
	}
	seq.Tokens = append(seq.Tokens, Token{ID: 3}, Token{ID: 4})
	n := len(seq.Tokens)

	// Vision encoder runs once, producing all embeddings.
	if err := m.EncodeImages(seq, n, 1); err != nil {
		t.Fatal(err)
	}
	audit(t, m)
	vu := m.Usage().PerGroup["vision"]
	if want := int64(8 * 128); vu.Used != want {
		t.Fatalf("vision used after encode = %d, want %d", vu.Used, want)
	}

	// Chunked prefill: 4 tokens per chunk; embeddings freed as consumed.
	for _, chunk := range []int{4, 8, 12} {
		if err := m.Reserve(seq, chunk, Tick(chunk)); err != nil {
			t.Fatal(err)
		}
		m.Commit(seq, chunk, Tick(chunk))
		m.DropImages(seq, chunk)
		audit(t, m)
	}
	vu = m.Usage().PerGroup["vision"]
	if vu.Used != 0 {
		t.Errorf("vision used after consumption = %d, want 0", vu.Used)
	}
	su := m.Usage().PerGroup["self"]
	if want := int64(12 * 256); su.Used != want { // 4 layers × 64 = 256/token
		t.Errorf("self used = %d, want %d", su.Used, want)
	}
	m.Release(seq, true)
	audit(t, m)
	// Vision pages are never cached (embeddings are re-derivable).
	if got := m.Usage().PerGroup["vision"].Cached; got != 0 {
		t.Errorf("vision cached = %d, want 0", got)
	}
}

// TestVisionDoesNotGateKVHits: a model-wide prefix hit must not require
// vision embeddings to be cached (VisionEmbedPolicy.ValidPrefix).
func TestVisionDoesNotGateKVHits(t *testing.T) {
	m := newMgr(t, vlmSpec(), 1<<20, 2, true)
	seq := &Sequence{ID: 1}
	for i := 0; i < 4; i++ {
		seq.Tokens = append(seq.Tokens, ImageToken(int32(10+i)))
	}
	for i := 0; i < 13; i++ {
		seq.Tokens = append(seq.Tokens, Token{ID: int32(i + 1)})
	}
	if err := m.EncodeImages(seq, len(seq.Tokens), 1); err != nil {
		t.Fatal(err)
	}
	if err := m.Reserve(seq, len(seq.Tokens), 1); err != nil {
		t.Fatal(err)
	}
	m.Commit(seq, len(seq.Tokens), 1)
	m.DropImages(seq, len(seq.Tokens))
	m.Release(seq, true)
	audit(t, m)

	// Same request again: KV is cached, vision embeddings are gone.
	seq2 := &Sequence{ID: 2, Tokens: seq.Tokens}
	if p := m.Lookup(seq2); p != 16 {
		t.Errorf("lookup = %d, want 16 (vision cache must not gate)", p)
	}
}

// TestDropImagesBeyondLengthClamps exercises the clamp path.
func TestDropImagesBeyondLengthClamps(t *testing.T) {
	m := newMgr(t, vlmSpec(), 1<<20, 2, false)
	seq := mixedSeq(1, 4, 2)
	if err := m.EncodeImages(seq, 6, 1); err != nil {
		t.Fatal(err)
	}
	m.DropImages(seq, 99)
	audit(t, m)
	if got := m.Usage().PerGroup["vision"].Used; got != 0 {
		t.Errorf("vision used = %d, want 0 after full drop", got)
	}
	m.Release(seq, false)
	audit(t, m)
}
