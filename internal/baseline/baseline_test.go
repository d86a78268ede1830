package baseline

import (
	"errors"
	"testing"

	"jenga/internal/core"
	"jenga/internal/model"
)

// mllamaMini scales the Llama 3.2 Vision shape down: 4 self layers over
// text, 1 cross layer over images, 128 B per layer per token.
func mllamaMini() *model.Spec {
	return &model.Spec{
		Name: "mllama-mini", Params: 1000, WeightBytes: 2, HiddenSize: 8,
		Groups: []model.KVGroup{
			{Name: "self", Kind: model.FullAttention, Layers: 4, BytesPerToken: 128, Scope: model.ScopeText},
			{Name: "cross", Kind: model.CrossAttention, Layers: 1, BytesPerToken: 128, Scope: model.ScopeImage},
		},
	}
}

func windowMini() *model.Spec {
	return &model.Spec{
		Name: "win-mini", Params: 1000, WeightBytes: 2, HiddenSize: 8,
		Groups: []model.KVGroup{
			{Name: "full", Kind: model.FullAttention, Layers: 1, BytesPerToken: 128},
			{Name: "window", Kind: model.SlidingWindow, Layers: 3, BytesPerToken: 128, Window: 4},
		},
	}
}

func jambaMini() *model.Spec {
	return &model.Spec{
		Name: "jamba-mini", Params: 1000, WeightBytes: 2, HiddenSize: 8,
		Groups: []model.KVGroup{
			{Name: "attn", Kind: model.FullAttention, Layers: 1, BytesPerToken: 128},
			{Name: "mamba", Kind: model.Mamba, Layers: 2, StateBytes: 1024, CheckpointEvery: 8},
		},
	}
}

func seqText(id core.RequestID, n int) *core.Sequence {
	s := &core.Sequence{ID: id}
	for i := 0; i < n; i++ {
		s.Tokens = append(s.Tokens, core.Token{ID: int32(i + 1)})
	}
	return s
}

func seqMixed(id core.RequestID, img, txt int) *core.Sequence {
	s := &core.Sequence{ID: id}
	for i := 0; i < img; i++ {
		s.Tokens = append(s.Tokens, core.ImageToken(int32(i+1)))
	}
	for i := 0; i < txt; i++ {
		s.Tokens = append(s.Tokens, core.Token{ID: int32(i + 1)})
	}
	return s
}

func TestFlattenSumsAllLayers(t *testing.T) {
	flat := Flatten(mllamaMini())
	if got := flat.Groups[0].BytesPerToken; got != 5*128 {
		t.Errorf("flattened bytes/token = %d, want %d", got, 5*128)
	}
	// Mamba and vision groups are excluded.
	flat = Flatten(jambaMini())
	if got := flat.Groups[0].BytesPerToken; got != 128 {
		t.Errorf("flattened jamba bytes/token = %d, want 128", got)
	}
}

// TestPagedWasteMatchesSection32: with T text and I image tokens the
// baseline stores (T+I)×(allLayers)×E while only T×self + I×cross is
// needed; the waste fraction must match the §3.2 formula.
func TestPagedWasteMatchesSection32(t *testing.T) {
	spec := mllamaMini()
	p, err := NewPaged(Config{Spec: spec, CapacityBytes: 1 << 20, TokensPerPage: 1})
	if err != nil {
		t.Fatal(err)
	}
	T, I := 8, 16
	s := seqMixed(1, I, T)
	if err := p.Reserve(s, T+I, 1); err != nil {
		t.Fatal(err)
	}
	p.Commit(s, T+I, 1)
	u := p.Usage()
	wantUsed := int64(T*4*128 + I*1*128)
	if u.Used != wantUsed {
		t.Errorf("used = %d, want %d", u.Used, wantUsed)
	}
	allocated := int64((T + I) * 5 * 128)
	if got := u.Used + u.Wasted; got != allocated {
		t.Errorf("used+wasted = %d, want allocated %d", got, allocated)
	}
	wantFrac := 1 - float64(wantUsed)/float64(allocated)
	gotFrac := float64(u.Wasted) / float64(allocated)
	if diff := gotFrac - wantFrac; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("waste fraction = %f, want %f", gotFrac, wantFrac)
	}
	p.Release(s, false)
	u = p.Usage()
	if u.Used != 0 || u.Wasted != 0 {
		t.Errorf("after release: %+v", u)
	}
}

// TestPagedWindowNeverFrees: the baseline keeps out-of-window KV,
// reporting it as waste, while conservation still holds.
func TestPagedWindowNeverFrees(t *testing.T) {
	p, err := NewPaged(Config{Spec: windowMini(), CapacityBytes: 1 << 20, TokensPerPage: 2})
	if err != nil {
		t.Fatal(err)
	}
	s := seqText(1, 40)
	if err := p.Reserve(s, 40, 1); err != nil {
		t.Fatal(err)
	}
	p.Commit(s, 40, 1)
	u := p.Usage()
	// Needed: full layer 40×128 + window layers min(40,4)×3×128.
	wantUsed := int64(40*128 + 4*3*128)
	if u.Used != wantUsed {
		t.Errorf("used = %d, want %d", u.Used, wantUsed)
	}
	// Dead window KV: (40-4)×3×128.
	wantDead := int64(36 * 3 * 128)
	if u.Wasted != wantDead {
		t.Errorf("wasted = %d, want %d", u.Wasted, wantDead)
	}
	if u.Used+u.Cached+u.Wasted+u.Free != p.Capacity() {
		t.Error("conservation violated")
	}
}

// TestPagedMambaStaticPartition: slots are reserved up front; idle
// slots count as waste; exceeding MaxSeqs returns ErrNoSpace.
func TestPagedMambaStaticPartition(t *testing.T) {
	p, err := NewPaged(Config{Spec: jambaMini(), CapacityBytes: 1 << 20, TokensPerPage: 2, MaxSeqs: 2})
	if err != nil {
		t.Fatal(err)
	}
	u := p.Usage()
	// Pool of 2 slots × 2048 bytes reserved and idle.
	if u.Wasted != 2*2048 {
		t.Errorf("idle mamba pool wasted = %d, want %d", u.Wasted, 2*2048)
	}
	a, b, c := seqText(1, 4), seqText(2, 4), seqText(3, 4)
	if err := p.Reserve(a, 4, 1); err != nil {
		t.Fatal(err)
	}
	p.Commit(a, 4, 1)
	if err := p.Reserve(b, 4, 1); err != nil {
		t.Fatal(err)
	}
	if err := p.Reserve(c, 4, 1); !errors.Is(err, core.ErrNoSpace) {
		t.Errorf("third sequence should exhaust mamba slots, got %v", err)
	}
	u = p.Usage()
	if got := u.PerGroup["mamba-pool"].Used; got != 2048 {
		t.Errorf("active mamba = %d, want 2048 (only committed seq a)", got)
	}
	p.Release(a, false)
	if err := p.Reserve(c, 4, 2); err != nil {
		t.Errorf("slot should free on release: %v", err)
	}
	if u := p.Usage(); u.Used+u.Cached+u.Wasted+u.Free != p.Capacity() {
		t.Error("conservation violated")
	}
}

func TestPagedMambaPoolTooLarge(t *testing.T) {
	_, err := NewPaged(Config{Spec: jambaMini(), CapacityBytes: 4096, TokensPerPage: 2, MaxSeqs: 64})
	if err == nil {
		t.Error("oversized static pool should fail construction")
	}
	if _, err := NewPaged(Config{}); err == nil {
		t.Error("nil spec should error")
	}
}

// TestPagedPrefixCachingWorks: the baseline still does vLLM-style
// full-prefix caching over flattened pages.
func TestPagedPrefixCaching(t *testing.T) {
	p, err := NewPaged(Config{Spec: windowMini(), CapacityBytes: 1 << 20, TokensPerPage: 2, EnablePrefixCache: true})
	if err != nil {
		t.Fatal(err)
	}
	a := seqText(1, 17)
	if err := p.Reserve(a, 17, 1); err != nil {
		t.Fatal(err)
	}
	p.Commit(a, 17, 1)
	p.Release(a, true)
	b := seqText(2, 17)
	if got := p.Lookup(b); got != 16 {
		t.Errorf("baseline lookup = %d, want 16", got)
	}
	if err := p.Reserve(b, 17, 2); err != nil {
		t.Fatal(err)
	}
	if got := p.CachedPrefix(b); got != 16 {
		t.Errorf("cached prefix = %d, want 16", got)
	}
	p.Commit(b, 17, 2)
	u := p.Usage()
	if u.Used+u.Cached+u.Wasted+u.Free != p.Capacity() {
		t.Error("conservation violated after prefix hit")
	}
	if p.SupportsVisionCache() {
		t.Error("baseline must not claim a vision cache")
	}
	if err := p.EncodeImages(b, 17, 2); err != nil {
		t.Errorf("EncodeImages no-op should not fail: %v", err)
	}
	p.DropImages(b, 17)
}

// miniDraft is the one-layer draft the speculative baselines pair with.
func miniDraft() *model.Spec {
	return &model.Spec{Name: "d", Params: 100, WeightBytes: 2, HiddenSize: 8,
		Groups: []model.KVGroup{{Name: "self", Kind: model.FullAttention, Layers: 1, BytesPerToken: 128}}}
}

// conserved checks the accounting identity every manager owes.
func conserved(t *testing.T, m core.Manager) core.Usage {
	t.Helper()
	u, tot := m.Usage(), m.UsageTotals()
	if u.Used+u.Cached+u.Wasted+u.Free != m.Capacity() {
		t.Errorf("conservation violated: %+v over capacity %d", u, m.Capacity())
	}
	if u.Used != tot.Used || u.Cached != tot.Cached || u.Wasted != tot.Wasted || u.Free != tot.Free {
		t.Errorf("UsageTotals %+v disagrees with Usage %+v", tot, u)
	}
	return u
}

// TestVLLMMaxPadding: draft tokens in target-sized pages waste the
// difference.
func TestVLLMMaxPadding(t *testing.T) {
	target := &model.Spec{Name: "t", Params: 1000, WeightBytes: 2, HiddenSize: 8,
		Groups: []model.KVGroup{{Name: "self", Kind: model.FullAttention, Layers: 4, BytesPerToken: 128}}}
	draft := miniDraft()
	m, err := NewVLLMMax(target, draft, 1<<20, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	seq := seqText(1, 8)
	if err := m.Reserve(seq, 8, 1); err != nil {
		t.Fatal(err)
	}
	m.Commit(seq, 8, 1)
	u := conserved(t, m)
	// Each token holds 512 B of target KV and 128 B of draft KV in a
	// second 512 B slot: 8×384 of padding is waste.
	if want := int64(8*512 + 8*128); u.Used != want {
		t.Errorf("used = %d, want %d", u.Used, want)
	}
	if want := int64(8 * 384); u.Wasted != want {
		t.Errorf("wasted = %d, want %d", u.Wasted, want)
	}
	m.Release(seq, false)
	if u = conserved(t, m); u.Used != 0 || u.Wasted != 0 {
		t.Errorf("after release: %+v", u)
	}
	// Draft larger than target is rejected.
	if _, err := NewVLLMMax(draft, target, 1<<20, 1, false); err == nil {
		t.Error("draft bigger than target should error")
	}
}

// TestVLLMManualSplit: capacity divides in the ratio of the models'
// per-token KV, every operation reaches both pools, and a sequence is
// resident only as far as both pools hold it.
func TestVLLMManualSplit(t *testing.T) {
	m, err := NewVLLMManual(windowMini(), miniDraft(), 1<<20, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	ms := m.(*manualSplit)
	// target flat = 512, draft = 128 → draft gets 1/5 of capacity.
	if got, want := ms.draft.Capacity(), int64(1<<20)/5; got > want || got < want-1024 {
		t.Errorf("draft capacity = %d, want ≈ %d", got, want)
	}
	if total := m.Capacity(); total > 1<<20 || total < (1<<20)-1024 {
		t.Errorf("split total = %d, want ≈ %d", total, 1<<20)
	}
	a := seqText(1, 17)
	if err := m.Reserve(a, 17, 1); err != nil {
		t.Fatal(err)
	}
	m.Commit(a, 17, 1)
	u := conserved(t, m)
	if tu, du := ms.target.UsageTotals(), ms.draft.UsageTotals(); tu.Used == 0 || du.Used != 17*128 || u.Used != tu.Used+du.Used {
		t.Errorf("both pools must hold the sequence: target %+v draft %+v sum %+v", tu, du, u)
	}
	if u.PerGroup["t:"+FlattenedGroupName].Used == 0 || u.PerGroup["d:"+FlattenedGroupName].Used != 17*128 {
		t.Errorf("per-group breakdown: %+v", u.PerGroup)
	}
	if got, want := m.Footprint(a), ms.target.Footprint(a)+ms.draft.Footprint(a); got != want {
		t.Errorf("footprint = %d, want the pools' sum %d", got, want)
	}
	m.Release(a, true)
	// A second sequence over the same tokens hits both pools' caches.
	b := seqText(2, 17)
	if got := m.Lookup(b); got != 16 {
		t.Errorf("lookup = %d, want 16", got)
	}
	// With the draft pool's copy gone, the prefix is only half resident.
	ms.draft.inner.CrashReset()
	if got := m.Lookup(b); got != 0 {
		t.Errorf("lookup = %d after the draft pool lost its cache, want 0", got)
	}
	if err := m.Reserve(b, 17, 2); err != nil {
		t.Fatal(err)
	}
	if got := m.CachedPrefix(b); got != 0 {
		t.Errorf("cached prefix = %d, want 0 (the shorter of the pools' claims)", got)
	}
	m.Commit(b, 17, 2)
	m.Release(b, false)
	if u = conserved(t, m); u.Used != 0 {
		t.Errorf("after release: %+v", u)
	}
	// Either pool running out is the pair running out.
	big := seqText(3, 1<<12)
	if err := m.Reserve(big, len(big.Tokens), 3); !errors.Is(err, core.ErrNoSpace) {
		t.Errorf("reserve beyond the pools = %v, want ErrNoSpace", err)
	}
	m.Release(big, false)
	if u = conserved(t, m); u.Used != 0 {
		t.Errorf("after failed reserve and release: %+v", u)
	}
}

// TestFootprintSumsMemberCharges: the baselines' admission charge is the
// sum of their members' — the flattened pool's charge for what the
// sequence adds, prefix pages a running request holds counted once, plus
// the static Mamba slot; for the manual split, both pools' charges.
func TestFootprintSumsMemberCharges(t *testing.T) {
	a := seqText(1, 33)
	b := seqText(2, 40) // a's 33 tokens and seven more
	sharerRuns := func(t *testing.T, m core.Manager) (cold, hot int64) {
		t.Helper()
		cold = m.Footprint(b)
		m.Release(b, false)
		if err := m.Reserve(a, len(a.Tokens), 1); err != nil {
			t.Fatal(err)
		}
		m.Commit(a, len(a.Tokens), 1)
		return cold, m.Footprint(b)
	}
	t.Run("paged", func(t *testing.T) {
		p, err := NewPaged(Config{Spec: jambaMini(), CapacityBytes: 1 << 20, TokensPerPage: 2, EnablePrefixCache: true, MaxSeqs: 4})
		if err != nil {
			t.Fatal(err)
		}
		cold, hot := sharerRuns(t, p)
		if want := p.inner.Footprint(b) + p.mambaPerSeq; hot != want || p.mambaPerSeq == 0 {
			t.Errorf("charge %d, want the pool's %d + the Mamba slot's %d", hot, want-p.mambaPerSeq, p.mambaPerSeq)
		}
		// 16 of b's 20 blocks are a's, in use: 128 B × 2 tokens each.
		if cold-hot != 16*256 {
			t.Errorf("charge %d with the prefix in use, %d cold: want 16 blocks of 256 B less", hot, cold)
		}
	})
	t.Run("manual split", func(t *testing.T) {
		m, err := NewVLLMManual(windowMini(), miniDraft(), 1<<20, 2, true)
		if err != nil {
			t.Fatal(err)
		}
		ms := m.(*manualSplit)
		cold, hot := sharerRuns(t, m)
		tc, dc := ms.target.Footprint(b), ms.draft.Footprint(b)
		if hot != tc+dc {
			t.Errorf("charge %d, want the pools' sum %d + %d", hot, tc, dc)
		}
		// Both pools hold a's 16 blocks: 512 B and 128 B per token.
		if cold-hot != 16*2*(512+128) {
			t.Errorf("charge %d with the prefix in use, %d cold: want 16 blocks of both pools less", hot, cold)
		}
	})
}

// TestJengaSharedSpecDecode: a manager built on the paired spec serves
// both models from one heap, each group at its natural page size.
func TestJengaSharedSpecDecode(t *testing.T) {
	m, err := core.New(core.Config{
		Spec: model.WithDraft(windowMini(), miniDraft()), CapacityBytes: 1 << 20, TokensPerPage: 2, RequestAware: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	seq := seqText(1, 8)
	if err := m.Reserve(seq, 8, 1); err != nil {
		t.Fatal(err)
	}
	m.Commit(seq, 8, 1)
	u := conserved(t, m)
	// Target: the full layer holds 8×128, the three window layers free
	// beyond their window, 4×3×128; draft: 8×128.
	if want := int64(8*128 + 4*3*128 + 8*128); u.Used != want {
		t.Errorf("used = %d, want %d", u.Used, want)
	}
	if g := u.PerGroup["d:self"]; g.Used != 8*128 {
		t.Errorf("draft group usage = %+v, want 8×128 used", g)
	}
}

// scopedMambaMini has a Mamba group over text only beside an
// image-scoped cross group: a sequence needs the state only once a text
// token arrives.
func scopedMambaMini() *model.Spec {
	return &model.Spec{
		Name: "scoped-mamba-mini", Params: 1000, WeightBytes: 2, HiddenSize: 8,
		Groups: []model.KVGroup{
			{Name: "attn", Kind: model.FullAttention, Layers: 1, BytesPerToken: 128},
			{Name: "cross", Kind: model.CrossAttention, Layers: 1, BytesPerToken: 64, Scope: model.ScopeImage},
			{Name: "mamba", Kind: model.Mamba, Layers: 2, StateBytes: 1024, Scope: model.ScopeText},
		},
	}
}

// kvBytesByToken is Spec.KVBytes's reference: every token, image ones
// first, is added to each group whose scope stores it, and a window
// group stops counting at its window. Mamba groups hold their state at
// any context; vision embeddings hold nothing.
func kvBytesByToken(spec *model.Spec, text, image int) int64 {
	held := make([]int, len(spec.Groups))
	for i := 0; i < image+text; i++ {
		for gi := range spec.Groups {
			g := &spec.Groups[gi]
			if !g.StoresToken(i < image) {
				continue
			}
			if (g.Kind == model.SlidingWindow || g.Kind == model.PyramidWindow) && held[gi] == g.Window {
				continue
			}
			held[gi]++
		}
	}
	var total int64
	for gi := range spec.Groups {
		g := &spec.Groups[gi]
		switch g.Kind {
		case model.Mamba:
			total += int64(g.StateBytes) * int64(g.Layers)
		case model.VisionEmbedding:
		default:
			total += int64(held[gi]) * int64(g.BytesPerToken) * int64(g.Layers)
		}
	}
	return total
}

// TestKVBytesMatchesPerTokenReference runs Spec.KVBytes — what the cost
// model charges a decode step, what the §3.2 analysis and this
// baseline's Used call needed — against the per-token reference over
// every zoo spec and this package's test specs, at context 0 and on
// both sides of every window, text only, image only and mixed.
func TestKVBytesMatchesPerTokenReference(t *testing.T) {
	specs := append(model.All(), mllamaMini(), windowMini(), jambaMini(), scopedMambaMini(), miniDraft())
	for _, spec := range specs {
		counts := []int{0, 1, 7}
		for i := range spec.Groups {
			if w := spec.Groups[i].Window; w > 0 {
				counts = append(counts, w-1, w, w+1)
			}
		}
		for _, n := range counts {
			for _, c := range [][2]int{{n, 0}, {0, n}, {n, n}, {n, 3}} {
				if got, want := spec.KVBytes(c[0], c[1]), kvBytesByToken(spec, c[0], c[1]); got != want {
					t.Errorf("%s: KVBytes(%d text, %d image) = %d, want %d", spec.Name, c[0], c[1], got, want)
				}
			}
		}
	}
	// Pinned decode reads: Ministral's 27 window layers clamp at 32,768
	// tokens; Jamba reads its 28 Mamba states beside 4 attention layers;
	// LLaVA's vision embeddings are prefill inputs and read nothing.
	llava := model.LLaVAOneVision7B()
	self := llava.Group("self")
	for _, c := range []struct {
		spec        *model.Spec
		text, image int
		want        int64
	}{
		{model.Ministral8B(), 90_000, 0, int64(90_000)*4096*9 + int64(32_768)*4096*27},
		{model.Jamba52B(), 1000, 0, int64(1000)*4096*4 + int64(1344*4096)*28},
		{llava, 400, 600, int64(1000) * int64(self.BytesPerToken) * int64(self.Layers)},
	} {
		if got := c.spec.KVBytes(c.text, c.image); got != c.want {
			t.Errorf("%s: KVBytes(%d, %d) = %d, want %d", c.spec.Name, c.text, c.image, got, c.want)
		}
	}
}

// TestPagedScopedMambaWaitsForItsModality: a Mamba group scoped to text
// needs no state while a sequence holds only image tokens, and its
// static slot counts as waste until the first text token commits. The
// numbers are the per-group token walk's that Spec.KVBytes replaced.
func TestPagedScopedMambaWaitsForItsModality(t *testing.T) {
	p, err := NewPaged(Config{Spec: scopedMambaMini(), CapacityBytes: 1 << 20, TokensPerPage: 2, MaxSeqs: 2})
	if err != nil {
		t.Fatal(err)
	}
	s := seqMixed(1, 6, 5)
	check := func(step string, used, wasted, attnUsed, attnWasted, poolUsed int64) {
		t.Helper()
		u := conserved(t, p)
		attn, pool := u.PerGroup[FlattenedGroupName], u.PerGroup["mamba-pool"]
		if u.Used != used || u.Wasted != wasted || attn.Used != attnUsed || attn.Wasted != attnWasted ||
			pool.Used != poolUsed || pool.Wasted != 2*2048-poolUsed {
			t.Errorf("%s: used %d wasted %d, flat %+v, pool %+v; want used %d wasted %d, flat used %d wasted %d, pool used %d",
				step, u.Used, u.Wasted, attn, pool, used, wasted, attnUsed, attnWasted, poolUsed)
		}
	}
	check("idle", 0, 4096, 0, 0, 0)
	if err := p.Reserve(s, 6, 1); err != nil {
		t.Fatal(err)
	}
	check("six image tokens reserved", 0, 5248, 0, 1152, 0)
	p.Commit(s, 6, 1)
	check("image prefix committed", 1152, 4096, 1152, 0, 0)
	if err := p.Reserve(s, 11, 2); err != nil {
		t.Fatal(err)
	}
	p.Commit(s, 11, 2)
	check("five text tokens committed", 3840, 2560, 1792, 512, 2048)
	p.Release(s, false)
	check("released", 0, 4096, 0, 0, 0)
}
