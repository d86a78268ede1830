package core

import (
	"errors"
	"testing"

	"jenga/internal/model"
)

// sinkTestPolicy is a StreamingLLM-style attention-sink policy used to
// exercise the KeepAlive extension.
type sinkTestPolicy struct {
	sink, window int
}

func (p sinkTestPolicy) AccessedFrom(projLen int) int {
	if projLen <= p.window {
		return 0
	}
	return projLen - p.window
}
func (p sinkTestPolicy) FreeBelow(projLen int) int {
	if projLen <= p.window {
		return 0
	}
	return projLen - p.window
}
func (p sinkTestPolicy) KeptBelow(int) int { return p.sink }
func (p sinkTestPolicy) ValidPrefix(v *GroupSeqView, prefix int) bool {
	pl := v.ProjCount[prefix]
	lo := 0
	if pl > p.window {
		lo = pl - p.window
	}
	keep := p.sink
	if keep > pl {
		keep = pl
	}
	return v.RangeCached(0, keep) && v.RangeCached(lo, pl)
}
func (sinkTestPolicy) BlockPriority(b int, _ uint64) int64 { return int64(b) }

func sinkSpec() *model.Spec {
	return &model.Spec{
		Name: "sink", Params: 1000, WeightBytes: 2, HiddenSize: 8,
		Groups: []model.KVGroup{
			{Name: "full", Kind: model.FullAttention, Layers: 1, BytesPerToken: 128},
			{Name: "sink", Kind: model.SlidingWindow, Layers: 1, BytesPerToken: 128, Window: 8},
		},
	}
}

func newSinkMgr(t *testing.T) *Jenga {
	t.Helper()
	m, err := New(Config{
		Spec: sinkSpec(), CapacityBytes: 1 << 20, TokensPerPage: 2,
		EnablePrefixCache: true, RequestAware: true,
		PolicyOverride: map[string]Policy{"sink": sinkTestPolicy{sink: 4, window: 8}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestKeepAliveHoldsSinkPages: the always-live head stays held (used,
// unevictable) while the window slides far past it.
func TestKeepAliveHoldsSinkPages(t *testing.T) {
	m := newSinkMgr(t)
	seq := textSeq(1, 64)
	seq.PromptLen = 64
	if err := m.Reserve(seq, 64, 1); err != nil {
		t.Fatal(err)
	}
	m.Commit(seq, 64, 1)
	audit(t, m)
	g := m.groups[m.byName["sink"]]
	// Held pages: sink blocks 0,1 (tokens 0..3) + window blocks.
	r := m.reqs[seq.ID]
	rg := &r.g[1]
	if !rg.pages[0].held || !rg.pages[1].held {
		t.Error("sink blocks must stay held after the window slides past")
	}
	if rg.pages[5].held {
		t.Error("mid-sequence block should be demoted")
	}
	// Sink group used slots: 4 sink tokens + 8 window tokens = 12.
	wantUsed := int64(12 * 128)
	if got := m.Usage().PerGroup["sink"].Used; got != wantUsed {
		t.Errorf("sink used = %d, want %d", got, wantUsed)
	}
	m.Release(seq, true)
	audit(t, m)
	_ = g
}

// TestKeepAliveClaimCoversSink: a prefix hit claims both the sink head
// and the window tail.
func TestKeepAliveClaimCoversSink(t *testing.T) {
	m := newSinkMgr(t)
	seq := textSeq(1, 64)
	seq.PromptLen = 64
	if err := m.Reserve(seq, 64, 1); err != nil {
		t.Fatal(err)
	}
	m.Commit(seq, 64, 1)
	m.Release(seq, true)

	rep := textSeq(2, 64)
	rep.PromptLen = 64
	p := m.Lookup(rep)
	if p < 56 {
		t.Fatalf("expected a deep hit, got %d", p)
	}
	if err := m.Reserve(rep, 64, 2); err != nil {
		t.Fatal(err)
	}
	r := m.reqs[rep.ID]
	rg := &r.g[1]
	if !rg.pages[0].held || !rg.pages[1].held {
		t.Error("claim must re-hold the sink head blocks")
	}
	m.Commit(rep, 64, 2)
	audit(t, m)
	m.Release(rep, true)
	audit(t, m)
}

// TestPolicyOverrideReplacesDefault: a nil override entry is ignored;
// a real one replaces the kind-derived policy.
func TestPolicyOverride(t *testing.T) {
	m, err := New(Config{
		Spec: sinkSpec(), CapacityBytes: 1 << 20, TokensPerPage: 2,
		PolicyOverride: map[string]Policy{"sink": nil},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.groups[m.byName["sink"]].pol.(WindowPolicy); !ok {
		t.Error("nil override must keep the default WindowPolicy")
	}
	m2 := newSinkMgr(t)
	if _, ok := m2.groups[m2.byName["sink"]].pol.(sinkTestPolicy); !ok {
		t.Error("override must replace the default policy")
	}
}

// TestFootprintPerKind checks the admission estimate against the
// per-kind formulas.
func TestFootprintPerKind(t *testing.T) {
	m := newMgr(t, heteroSpec(), 1<<22, 2, true)
	seq := &Sequence{ID: 1}
	for i := 0; i < 20; i++ {
		tok := TextToken(int32(i + 1))
		if i%5 == 0 {
			tok = ImageToken(int32(i + 1))
		}
		seq.Tokens = append(seq.Tokens, tok)
	}
	// 4 image tokens, 16 text tokens.
	fp := m.Footprint(seq)
	// self: ceil(16/2)=8 pages × 3 layers×64×2 = 8×384
	// win (window 6): ceil(6/2)+1 = 4 pages × 2×64×2 = 4×256
	// cross: ceil(4/2)=2 pages × 2×64×2 = 2×256
	// mamba: 1 work + 20/8 checkpoints = 3 pages × 384
	want := int64(8*384 + 4*256 + 2*256 + 3*384)
	if fp != want {
		t.Errorf("footprint = %d, want %d", fp, want)
	}
	// Caching off: no checkpoint pages.
	m2 := newMgr(t, heteroSpec(), 1<<22, 2, false)
	fp2 := m2.Footprint(seq)
	if fp2 != want-2*384 {
		t.Errorf("no-cache footprint = %d, want %d", fp2, want-2*384)
	}
}

// TestDiagnose exercises the observability helper.
func TestDiagnose(t *testing.T) {
	m := newMgr(t, windowSpec(4), 1<<20, 2, true)
	seq := textSeq(1, 17)
	if err := m.Reserve(seq, 17, 1); err != nil {
		t.Fatal(err)
	}
	m.Commit(seq, 17, 1)
	m.Release(seq, true)
	out := m.Diagnose(textSeq(2, 17))
	if out == "" {
		t.Fatal("expected diagnosis output")
	}
	for _, want := range []string{"full", "window", "contig="} {
		if !contains(out, want) {
			t.Errorf("diagnosis missing %q: %s", want, out)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestEncodeImagesNoSpace: vision encoding failure leaves a resumable
// cursor and a consistent manager.
func TestEncodeImagesNoSpace(t *testing.T) {
	m := newMgr(t, vlmSpec(), 2048, 2, false) // 2 large pages of 1024
	seq := mixedSeq(1, 24, 0)
	err := m.EncodeImages(seq, 24, 1)
	if !errors.Is(err, ErrNoSpace) {
		t.Fatalf("expected ErrNoSpace, got %v", err)
	}
	audit(t, m)
	m.Release(seq, false)
	audit(t, m)
	if got := m.Usage().Free; got != m.Capacity() {
		t.Errorf("free = %d after release, want full capacity", got)
	}
}
