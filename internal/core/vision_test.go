package core

import (
	"errors"
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

// TestFailedClaimKeepsVisionPages: a claim that rolls back must leave
// alone the embeddings EncodeImages allocated before the request's
// first Reserve. The whole prefix of c lives one tier down and the
// device is full of held pages, so the restore half of the claim runs
// out of memory; the rollback used to reset the vision group's table
// with the rest, and the pages behind it stayed used, with no holder,
// until CrashReset.
func TestFailedClaimKeepsVisionPages(t *testing.T) {
	spec := vlmSpec()
	geo, err := spec.Geometry(model.LCMPage, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Eight large pages: a self page fills one, two vision pages do.
	large := int64(geo.LargePageBytes)
	m := newTieredMgr(t, spec, 8*large, 8*large, 2)
	a := textSeq(1, 8)
	commitSeq(t, m, a, 1) // four cached blocks
	b := &Sequence{ID: 2}
	for i := 0; i < 14; i++ {
		b.Tokens = append(b.Tokens, Token{ID: int32(500 + i)})
	}
	if err := m.Reserve(b, 14, 2); err != nil { // four free pages, three of a's spilled
		t.Fatal(err)
	}
	m.Commit(b, 14, 2)
	c := &Sequence{ID: 3, Tokens: append(append([]Token(nil), a.Tokens...), ImageToken(1), ImageToken(2), Token{ID: 9})}
	if err := m.EncodeImages(c, len(c.Tokens), 3); err != nil { // a's last cached block makes room
		t.Fatal(err)
	}
	if p := m.Lookup(c); p != 8 {
		t.Fatalf("lookup = %d, want a's 8 tokens, all in the host tier", p)
	}
	if err := m.Reserve(c, len(c.Tokens), 3); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("reserve on a full device: %v, want ErrNoSpace", err)
	}
	if p, in := m.CachedPrefix(c), m.TierStats().SwapIns; p != 0 || in != 0 {
		t.Fatalf("claim kept a %d-token prefix and restored %d blocks; the restore was meant to fail", p, in)
	}
	if got := m.Usage().PerGroup["vision"].Used; got != 2*128 {
		t.Fatalf("vision used after the failed claim = %d, want both embeddings (%d)", got, 2*128)
	}
	m.Release(c, false)
	m.Release(b, false)
	if u := m.UsageTotals(); u.Used != 0 || u.Used+u.Cached+u.Wasted+u.Free != m.Capacity() {
		t.Fatalf("after every release: %+v of capacity %d (pages leaked)", u, m.Capacity())
	}
	audit(t, m)
}
