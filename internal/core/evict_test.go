package core

import (
	"testing"

	"jenga/internal/model"
)

// fig10Spec: one self-attention layer and one sliding-window layer
// (window 2) with equal page sizes, tokens_per_page = 1 — the §5.1
// worked example.
func fig10Spec() *model.Spec {
	return &model.Spec{
		Name: "fig10", Params: 1000, WeightBytes: 2, HiddenSize: 8,
		Groups: []model.KVGroup{
			{Name: "self", Kind: model.FullAttention, Layers: 1, BytesPerToken: 128},
			{Name: "window", Kind: model.SlidingWindow, Layers: 1, BytesPerToken: 128, Window: 2},
		},
	}
}

// tok builds the A..Z tokens of the Fig. 10 example.
func tok(letters string) []Token {
	ts := make([]Token, len(letters))
	for i, c := range letters {
		ts[i] = Token{ID: int32(c)}
	}
	return ts
}

// lastAccessOf finds the cached page holding the block whose chained
// hash corresponds to prefix[0..i] of tokens and returns its
// last-access tick.
func lastAccessOf(t *testing.T, m *Jenga, groupName string, tokens []Token, i int) Tick {
	t.Helper()
	g := m.groups[m.byName[groupName]]
	hashes := blockHashes(tokens, 1)
	id, ok := g.index.get(hashes[i])
	if !ok {
		t.Fatalf("group %s: block %d not cached", groupName, i)
	}
	return g.pages[id].lastAccess
}

// TestFig10Timeline replays the paper's Fig. 10 two-request example and
// checks the final last-access times of every token in both layers:
//
//	self:   A=3 B=3 C=3 D=3 E=2 G=3
//	window: A=1 B=1 C=3 D=3 E=2 G=3
func TestFig10Timeline(t *testing.T) {
	m := newMgr(t, fig10Spec(), 1<<20, 1, true)

	// Request 1: input [A B C D], output [E F].
	r1 := &Sequence{ID: 1, Tokens: tok("ABCD")}
	if err := m.Reserve(r1, 4, 1); err != nil { // step 1: prefill ABCD→E
		t.Fatal(err)
	}
	m.Commit(r1, 4, 1)
	r1.Tokens = append(r1.Tokens, tok("E")...)
	if err := m.Reserve(r1, 5, 2); err != nil { // step 2: decode ABCDE→F
		t.Fatal(err)
	}
	m.Commit(r1, 5, 2)
	m.Release(r1, true) // F has no KV

	// Request 2: input [A B C D G], output [H].
	r2 := &Sequence{ID: 2, Tokens: tok("ABCDG")}
	if p := m.Lookup(r2); p != 4 {
		t.Fatalf("request 2 cached prefix = %d, want 4", p)
	}
	if err := m.Reserve(r2, 5, 3); err != nil { // step 3: prefill ABCDG→H
		t.Fatal(err)
	}
	if got := m.CachedPrefix(r2); got != 4 {
		t.Fatalf("claimed prefix = %d, want 4", got)
	}
	m.Commit(r2, 5, 3)
	m.Release(r2, true)
	audit(t, m)

	seq1 := tok("ABCDE")
	seq2 := tok("ABCDG")
	type want struct {
		group  string
		tokens []Token
		idx    int
		ts     Tick
	}
	cases := []want{
		{"self", seq2, 0, 3}, {"self", seq2, 1, 3}, {"self", seq2, 2, 3}, {"self", seq2, 3, 3},
		{"self", seq1, 4, 2},                           // E
		{"self", seq2, 4, 3},                           // G
		{"window", seq2, 0, 1}, {"window", seq2, 1, 1}, // A B: outside window since step 1
		{"window", seq2, 2, 3}, {"window", seq2, 3, 3}, // C D: read by request 2
		{"window", seq1, 4, 2}, // E
		{"window", seq2, 4, 3}, // G
	}
	letters := "ABCDEG"
	for i, c := range cases {
		if got := lastAccessOf(t, m, c.group, c.tokens, c.idx); got != c.ts {
			t.Errorf("%s[%c]: last access = %d, want %d", c.group, letters[min(i%6, 5)], got, c.ts)
		}
	}
}

// TestBalancedEvictionAcrossGroups: §3.3 — pages of the older request
// are evicted before any page of the newer request, in both groups.
func TestBalancedEvictionAcrossGroups(t *testing.T) {
	m := newMgr(t, windowSpec(4), 1<<20, 2, true)
	a := textSeq(1, 17)
	if err := m.Reserve(a, 17, 1); err != nil {
		t.Fatal(err)
	}
	m.Commit(a, 17, 1)
	m.Release(a, true)
	b := textSeq(2, 17)
	b.Tokens[0].ID = 9999 // different content → separate cache entries
	if err := m.Reserve(b, 17, 5); err != nil {
		t.Fatal(err)
	}
	m.Commit(b, 17, 5)
	m.Release(b, true)
	audit(t, m)

	// buildView reuses per-group scratch, so snapshot Present before
	// building another view of the same group.
	present := func(g *group, tokens []Token) []bool {
		v := viewOf(m, g, tokens)
		return append([]bool(nil), v.Present...)
	}

	// Full-attention group: pure LRU with the §5.1 tie break — all of
	// request a's pages evict before any of request b's.
	full := m.groups[m.byName["full"]]
	va := present(full, a.Tokens)
	vb := present(full, b.Tokens)
	aPages := 0
	for _, ok := range va {
		if ok {
			aPages++
		}
	}
	for i := 0; i < aPages; i++ {
		if !m.evictOneSmall(full) {
			t.Fatalf("full: expected evictable page %d", i)
		}
	}
	va = present(full, a.Tokens)
	vb2 := present(full, b.Tokens)
	for k, ok := range va {
		if ok {
			t.Errorf("full: request-a block %d survived balanced eviction", k)
		}
	}
	for k := range vb2 {
		if vb[k] != vb2[k] {
			t.Errorf("full: request-b block %d was evicted before all of request a", k)
		}
	}

	// Window group: two-class §3.3 order. With 17 prompt tokens, window
	// 4, tpp 2: expired = blocks ending ≤ 17−2·4−4 = 5 → blocks 0,1 per
	// request; blocks 2..7 stay live (any prompt boundary in the last
	// window may need them). Four evictions drain both requests'
	// expired classes (a's before b's) while every live page survives.
	win := m.groups[m.byName["window"]]
	for i := 0; i < 4; i++ {
		if !m.evictOneSmall(win) {
			t.Fatalf("window: expected evictable page %d", i)
		}
	}
	wa := present(win, a.Tokens)
	wb := present(win, b.Tokens)
	for k := 0; k < 2; k++ {
		if wa[k] || wb[k] {
			t.Errorf("window: expired block %d should be evicted first (a=%v b=%v)",
				k, wa[k], wb[k])
		}
	}
	for k := 2; k < 8; k++ {
		if !wa[k] || !wb[k] {
			t.Errorf("window: live block %d must outlive every expired page (a=%v b=%v)",
				k, wa[k], wb[k])
		}
	}
	// Within the live class, LRU: request a's pages evict before b's.
	for i := 0; i < 6; i++ {
		m.evictOneSmall(win)
	}
	wa = present(win, a.Tokens)
	wb = present(win, b.Tokens)
	for k := 2; k < 8; k++ {
		if wa[k] {
			t.Errorf("window: request-a live block %d should evict before b's", k)
		}
		if !wb[k] {
			t.Errorf("window: request-b live block %d evicted too early", k)
		}
	}
	audit(t, m)
}

// imageSpec has a cross-attention group only, so image-atomic eviction
// can be observed in isolation.
func imageSpec() *model.Spec {
	return &model.Spec{
		Name: "img", Params: 1000, WeightBytes: 2, HiddenSize: 8,
		Groups: []model.KVGroup{
			{Name: "self", Kind: model.FullAttention, Layers: 1, BytesPerToken: 128, Scope: model.ScopeText},
			{Name: "cross", Kind: model.CrossAttention, Layers: 1, BytesPerToken: 128, Scope: model.ScopeImage},
		},
	}
}

// TestImageAtomicEviction: §5.3 — all pages of one image are evicted
// before any page of another image, because they share a randomized
// priority.
func TestImageAtomicEviction(t *testing.T) {
	m := newMgr(t, imageSpec(), 1<<20, 2, true)
	// Two images of 4 tokens each, separated by text.
	seq := &Sequence{ID: 1}
	for i := 0; i < 4; i++ {
		seq.Tokens = append(seq.Tokens, ImageToken(int32(100+i)))
	}
	seq.Tokens = append(seq.Tokens, Token{ID: 1}, Token{ID: 2})
	for i := 0; i < 4; i++ {
		seq.Tokens = append(seq.Tokens, ImageToken(int32(200+i)))
	}
	seq.Tokens = append(seq.Tokens, Token{ID: 3}, Token{ID: 4})
	n := len(seq.Tokens)
	if err := m.Reserve(seq, n, 1); err != nil {
		t.Fatal(err)
	}
	m.Commit(seq, n, 1)
	m.Release(seq, true)
	audit(t, m)

	g := m.groups[m.byName["cross"]]
	// Image 1 = cross blocks 0,1; image 2 = cross blocks 2,3. All share
	// last-access; priority decides. Evict twice: both evictions must
	// hit the same image.
	evicted := func() []bool {
		v := viewOf(m, g, seq.Tokens)
		out := make([]bool, len(v.Present))
		for k, ok := range v.Present {
			out[k] = !ok
		}
		return out
	}
	m.evictOneSmall(g)
	m.evictOneSmall(g)
	ev := evicted()
	img1 := ev[0] || ev[1]
	img2 := ev[2] || ev[3]
	if img1 && img2 {
		t.Fatalf("eviction split across images: %v", ev)
	}
	if ev[0] != ev[1] || ev[2] != ev[3] {
		t.Fatalf("half-evicted image: %v", ev)
	}
	audit(t, m)
}

// TestLargePageEvictionTransfersOwnership: §5.4 step 3 — when one type
// needs memory and another type holds only cache, a whole large page is
// evicted and changes type.
func TestLargePageEvictionTransfersOwnership(t *testing.T) {
	// Capacity: exactly 4 large pages of 768 bytes.
	m := newMgr(t, fig6Spec(), 4*768, 1, true)
	a := textSeq(1, 8) // 8 text smalls = 4 large pages (ratio 2)
	if err := m.Reserve(a, 8, 1); err != nil {
		t.Fatal(err)
	}
	m.Commit(a, 8, 1)
	m.Release(a, true)
	audit(t, m)
	if m.Usage().Cached != 8*384 {
		t.Fatalf("expected full cache, got %+v", m.Usage())
	}

	b := mixedSeq(2, 3, 0) // 3 image tokens: needs one cross large page
	if err := m.Reserve(b, 3, 2); err != nil {
		t.Fatal(err)
	}
	m.Commit(b, 3, 2)
	audit(t, m)
	if m.Stats().LargeEvictions == 0 {
		t.Error("expected a large-page eviction to transfer ownership")
	}
	// The transferred large page now belongs to cross; two self blocks
	// disappeared from the cache.
	if got := m.Usage().Cached; got != 6*384 {
		t.Errorf("cached after transfer = %d, want %d", got, 6*384)
	}
	m.Release(b, false)
	audit(t, m)
}

// TestRequestAwareReclaim reproduces Fig. 8: with interleaved
// allocations from two requests, request-aware placement lets every
// large page of the finished request return to the LCM allocator, while
// naive placement strands all of them.
func TestRequestAwareReclaim(t *testing.T) {
	run := func(aware bool) (reclaims int64) {
		m, err := New(Config{
			Spec: fig6Spec(), CapacityBytes: 64 * 768, TokensPerPage: 1,
			RequestAware: aware,
		})
		if err != nil {
			t.Fatal(err)
		}
		a, b := textSeq(1, 16), textSeq(2, 16)
		for i := 1; i <= 16; i++ { // interleave token-by-token
			if err := m.Reserve(a, i, Tick(i)); err != nil {
				t.Fatal(err)
			}
			if err := m.Reserve(b, i, Tick(i)); err != nil {
				t.Fatal(err)
			}
		}
		m.Commit(a, 16, 17)
		m.Commit(b, 16, 17)
		audit(t, m)
		base := m.Stats().LargeReclaims
		m.Release(a, false)
		audit(t, m)
		return m.Stats().LargeReclaims - base
	}
	if got := run(true); got != 8 {
		t.Errorf("request-aware reclaims = %d, want 8 (all of request a's large pages)", got)
	}
	if got := run(false); got != 0 {
		t.Errorf("naive reclaims = %d, want 0 (every large page shared)", got)
	}
}

// TestMambaCheckpointTouchOnHit: hitting a checkpoint refreshes its
// last-access time so it survives subsequent eviction pressure.
func TestMambaCheckpointTouchOnHit(t *testing.T) {
	m := newMgr(t, mambaSpec(4), 1<<20, 2, true)
	a := textSeq(1, 9)
	if err := m.Reserve(a, 9, 1); err != nil {
		t.Fatal(err)
	}
	m.Commit(a, 9, 1)
	m.Release(a, true)

	b := textSeq(2, 9)
	if err := m.Reserve(b, 9, 10); err != nil {
		t.Fatal(err)
	}
	if m.CachedPrefix(b) != 8 {
		t.Fatalf("cached prefix = %d, want 8", m.CachedPrefix(b))
	}
	m.Release(b, true)

	g := m.groups[m.byName["mamba"]]
	proj := projectInto(nil, a.Tokens, g.spec.StoresToken(true), g.spec.StoresToken(false))
	h8 := prefixHash(proj, 8)
	id, ok := g.index.get(h8)
	if !ok {
		t.Fatal("checkpoint at 8 missing")
	}
	if got := g.pages[id].lastAccess; got != 10 {
		t.Errorf("checkpoint last access = %d, want 10 (touched at hit)", got)
	}
	h4 := prefixHash(proj, 4)
	id4, ok := g.index.get(h4)
	if !ok {
		t.Fatal("checkpoint at 4 missing")
	}
	if got := g.pages[id4].lastAccess; got != 1 {
		t.Errorf("untouched checkpoint last access = %d, want 1", got)
	}
	audit(t, m)
}

// TestExpiredClassEviction: §3.3 — window KV below the prompt's final
// window is expired-class and evicts before any live page, while the
// prompt-window blocks survive so future prompt hits still land, even
// after generated tokens slid the window past the prompt.
func TestExpiredClassEviction(t *testing.T) {
	m := newMgr(t, windowSpec(4), 1<<20, 2, true)
	seq := textSeq(1, 48)
	seq.PromptLen = 40 // 8 generated tokens follow the prompt
	for i, upTo := range []int{16, 32, 40, 48} {
		if err := m.Reserve(seq, upTo, Tick(i+1)); err != nil {
			t.Fatal(err)
		}
		m.Commit(seq, upTo, Tick(i+1))
	}
	m.Release(seq, true)
	audit(t, m)

	// Expired: window blocks ending ≤ 40−2·4−2·2 = 28 → blocks 0..13.
	win := m.groups[m.byName["window"]]
	for i := 0; i < 14; i++ {
		if !m.evictOneSmall(win) {
			t.Fatalf("expected evictable expired page %d", i)
		}
	}
	probe := textSeq(2, 40)
	if p := m.Lookup(probe); p != 38 {
		t.Errorf("prompt hit after expired-class eviction = %d, want 38", p)
	}
	// The next eviction takes a live page; enough of them break the hit.
	for i := 0; i < 8; i++ {
		m.evictOneSmall(win)
	}
	if p := m.Lookup(probe); p >= 38 {
		t.Errorf("hit = %d should degrade once live window pages evict", p)
	}
	audit(t, m)
}
