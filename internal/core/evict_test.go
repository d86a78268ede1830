package core

import (
	"errors"
	"maps"
	"math/rand"
	"slices"
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
	g := m.groups[m.groupIndex(groupName)]
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

// evictByAlloc evicts n large pages the way a serving run does: by
// allocating (§5.4). The pressure request p grows one block at a time,
// and every group that stores text takes a page for the block — from a
// free large page while there is one, then by evicting. It fails unless
// the evictions land on exactly n, so callers choose an n the block
// boundaries meet.
func evictByAlloc(t *testing.T, m *Jenga, p *Sequence, n int) {
	t.Helper()
	want := m.Stats().LargeEvictions + int64(n)
	for m.Stats().LargeEvictions < want {
		for range m.cfg.TokensPerPage {
			p.Tokens = append(p.Tokens, TextToken(int32(1_000_000+len(p.Tokens))))
		}
		if err := m.Reserve(p, len(p.Tokens), 1000); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.Stats().LargeEvictions; got != want {
		t.Fatalf("allocation evicted %d large pages, want %d", got-want+int64(n), n)
	}
}

// cachedBlocks spells out, block by block, which of the group's blocks
// of tokens are cached on the device: "1" present, "0" gone.
func cachedBlocks(m *Jenga, group string, tokens []Token) string {
	var out []byte
	for _, ok := range viewOf(m, m.groups[m.groupIndex(group)], tokens).Present {
		out = append(out, "01"[btoi(ok)])
	}
	return string(out)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestBalancedEvictionAcrossGroups: §3.3 — the expired class goes
// first, then pages of the older request before any page of the newer
// one, in both groups. Both groups have one small page per large page,
// so eviction is step 3's: one LRU over the large pages of every group.
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

	expect := func(stage, group string, s *Sequence, want string) {
		t.Helper()
		if got := cachedBlocks(m, group, s.Tokens); got != want {
			t.Errorf("%s: %s blocks of request %d cached %s, want %s", stage, group, s.ID, got, want)
		}
	}
	// With 17 prompt tokens, window 4, tpp 2: expired = window blocks
	// ending ≤ 17−2·4−4 = 5 → blocks 0,1 per request; blocks 2..7 stay
	// live (any prompt boundary in the last window may need them). The
	// expired class drains first, a's before b's, while every live page
	// survives.
	p := &Sequence{ID: 3}
	evictByAlloc(t, m, p, 2)
	expect("2 evictions", "window", a, "00111111")
	expect("2 evictions", "window", b, "11111111")
	evictByAlloc(t, m, p, 2)
	for _, s := range []*Sequence{a, b} {
		expect("4 evictions", "window", s, "00111111")
		expect("4 evictions", "full", s, "11111111")
	}
	// Within the live class, LRU: all fourteen of request a's live pages
	// (eight full, six window) go before any of b's.
	evictByAlloc(t, m, p, 14)
	expect("18 evictions", "full", a, "00000000")
	expect("18 evictions", "window", a, "00000000")
	expect("18 evictions", "full", b, "11111111")
	expect("18 evictions", "window", b, "00111111")
	audit(t, m)
	m.Release(p, false)
	audit(t, m)
}

// miniWinSpec and miniVLMSpec are the engine tests' scaled-down
// Ministral and LLaVA: a three-small-page "full" group beside a ratio-1
// window group, and a ratio-1 "self" group beside a two-page vision
// group.
func miniWinSpec() *model.Spec {
	return &model.Spec{
		Name: "mini-win", Params: 100_000_000, WeightBytes: 2, HiddenSize: 256,
		Groups: []model.KVGroup{
			{Name: "full", Kind: model.FullAttention, Layers: 1, BytesPerToken: 256},
			{Name: "window", Kind: model.SlidingWindow, Layers: 3, BytesPerToken: 256, Window: 64},
		},
	}
}

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

// TestRatioOneNeverReachesStepFive: a ratio-1 group keeps no small-page
// queue because §5.4 step 5 never finds one of its pages cached — while
// it holds one, that page's large page is queued and step 3 evicts it
// (or another) first. Every model of the zoo and the two mini specs
// churn a small manager: prompts from a few shared prefixes, an image
// where the model stores them, decodes, cached and uncached releases.
// A ratio-1 group's allocation reaches step 5 only when steps 1-4 found
// nothing, and then it fails: every ErrNoSpace is such a step 5, and at
// each one every ratio-1 group must hold no cached page. CheckInvariants
// runs after every operation.
func TestRatioOneNeverReachesStepFive(t *testing.T) {
	specs := []*model.Spec{miniWinSpec(), miniVLMSpec()}
	for _, name := range slices.Sorted(maps.Keys(model.Registry)) {
		specs = append(specs, model.Registry[name]())
	}
	for _, spec := range specs {
		t.Run(spec.Name, func(t *testing.T) {
			geo, err := spec.Geometry(16)
			if err != nil {
				t.Fatal(err)
			}
			m, err := New(Config{
				Spec:              spec,
				CapacityBytes:     max(4*int64(geo.LargePageBytes), 600*int64(textTokenBytes(spec))),
				TokensPerPage:     16,
				EnablePrefixCache: true, RequestAware: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			images := spec.Vision != nil || slices.ContainsFunc(spec.Groups, func(g model.KVGroup) bool { return g.Scope == model.ScopeImage })
			rng := rand.New(rand.NewSource(1))
			var live []*Sequence
			nextID, now, failures := RequestID(1), Tick(0), 0
			drop := func(i int, cache bool) {
				m.Release(live[i], cache)
				live = slices.Delete(live, i, i+1)
			}
			// run reserves and commits s up to its length, failing it on
			// ErrNoSpace.
			run := func(i int) {
				s := live[i]
				err := m.EncodeImages(s, len(s.Tokens), now)
				if err == nil {
					err = m.Reserve(s, len(s.Tokens), now)
				}
				if err == nil {
					m.Commit(s, len(s.Tokens), now)
					m.DropImages(s, len(s.Tokens))
					return
				}
				if !errors.Is(err, ErrNoSpace) {
					t.Fatal(err)
				}
				failures++
				for _, g := range m.groups {
					if !g.smallQueued() && g.nCached != 0 {
						t.Fatalf("step 5 reached with %d pages of ratio-1 group %s cached", g.nCached, g.spec.Name)
					}
				}
				drop(i, true)
			}
			for op := 0; op < 400; op++ {
				now++
				switch k := rng.Intn(10); {
				case len(live) < 6 && (k < 4 || len(live) == 0):
					s := &Sequence{ID: nextID}
					nextID++
					family := int32(rng.Intn(4))
					for i := []int{64, 160, 288, 544}[family]; i > 0; i-- {
						s.Tokens = append(s.Tokens, TextToken(family<<20|int32(i)))
					}
					if images && rng.Intn(2) == 0 {
						for i := 0; i < 16; i++ {
							s.Tokens = append(s.Tokens, ImageToken(int32(nextID)<<8|int32(i)))
						}
					}
					for i := rng.Intn(48); i > 0; i-- {
						s.Tokens = append(s.Tokens, TextToken(int32(nextID)<<8|int32(i)))
					}
					s.PromptLen = len(s.Tokens)
					live = append(live, s)
					run(len(live) - 1)
				case k < 8:
					i := rng.Intn(len(live))
					live[i].Tokens = append(live[i].Tokens, TextToken(int32(rng.Intn(50_000))))
					run(i)
				default:
					drop(rng.Intn(len(live)), rng.Intn(4) > 0)
				}
				if err := m.CheckInvariants(); err != nil {
					t.Fatalf("op %d: %v", op, err)
				}
			}
			for len(live) > 0 {
				drop(0, true)
			}
			if err := m.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if failures == 0 || m.Stats().LargeEvictions == 0 {
				t.Fatalf("%d reservations failed, %d large pages evicted: the churn must reach both", failures, m.Stats().LargeEvictions)
			}
		})
	}
}

// imageSpec has one cross-attention group that stores image tokens
// only, so image-atomic eviction can be observed in isolation. Its
// pages are half the text group's, two to a large page: the §5.4 step-5
// queue, the order the image priority decides, exists for it.
func imageSpec() *model.Spec {
	return &model.Spec{
		Name: "img", Params: 1000, WeightBytes: 2, HiddenSize: 8,
		Groups: []model.KVGroup{
			{Name: "self", Kind: model.FullAttention, Layers: 1, BytesPerToken: 256, Scope: model.ScopeText},
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

	g := m.groups[m.groupIndex("cross")]
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
	for i := 0; i < 2; i++ {
		if !m.evictOneSmall(g) {
			t.Fatalf("eviction %d found no cached cross page", i)
		}
	}
	ev := evicted()
	img1 := ev[0] || ev[1]
	img2 := ev[2] || ev[3]
	if img1 == img2 {
		t.Fatalf("two evictions should take exactly one image: %v", ev)
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

	g := m.groups[m.groupIndex("mamba")]
	proj := projectInto(nil, a.Tokens, g.spec.StoresToken(true), g.spec.StoresToken(false))
	h8 := PrefixHash(8, proj)
	id, ok := g.index.get(h8)
	if !ok {
		t.Fatal("checkpoint at 8 missing")
	}
	if got := g.pages[id].lastAccess; got != 10 {
		t.Errorf("checkpoint last access = %d, want 10 (touched at hit)", got)
	}
	h4 := PrefixHash(4, proj)
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

	// Below the prompt's final window: window blocks ending ≤
	// 40−2·4−2·2 = 28, blocks 0..13. Those that left the window once
	// the commits had seen that much prompt are expired-class; the rest
	// left it at ticks 1 and 2, older than anything live. Either way
	// they are the first fourteen pages allocation evicts, and every
	// full-attention page outlives them.
	p := &Sequence{ID: 3}
	evictByAlloc(t, m, p, 14)
	if got, want := cachedBlocks(m, "window", seq.Tokens), "000000000000001111111111"; got != want {
		t.Errorf("window blocks cached %s, want %s", got, want)
	}
	if got, want := cachedBlocks(m, "full", seq.Tokens), "111111111111111111111111"; got != want {
		t.Errorf("full blocks cached %s, want %s", got, want)
	}
	probe := textSeq(2, 40)
	if hit := m.Lookup(probe); hit != 38 {
		t.Errorf("prompt hit after expired-class eviction = %d, want 38", hit)
	}
	// The next evictions take live pages; enough of them break the hit.
	evictByAlloc(t, m, p, 8)
	if hit := m.Lookup(probe); hit >= 38 {
		t.Errorf("hit = %d should degrade once live window pages evict", hit)
	}
	audit(t, m)
	m.Release(probe, false)
	m.Release(p, false)
	audit(t, m)
}

// textTokenBytes is the KV one text token costs across the groups that
// store it.
func textTokenBytes(s *model.Spec) int {
	total := 0
	for i := range s.Groups {
		g := &s.Groups[i]
		if g.Kind != model.Mamba && g.Kind != model.VisionEmbedding && g.StoresToken(false) {
			total += g.BytesPerToken * g.Layers
		}
	}
	return total
}

// TestPriorityKeptWhereRead: a group keeps its pages' eviction
// priorities exactly where something reads them — its own small-page
// queue (smallQueued) or the host tier, which carries them out and back
// — for every zoo model, with the tier off and on. A churn of distinct
// prompts through a cache of about three prompts' charge then evicts,
// spilling exactly when there is a tier, and the manager stays sound.
func TestPriorityKeptWhereRead(t *testing.T) {
	const tpp, requests, prompt = 16, 48, 160
	for _, spec := range model.All() {
		geo, err := spec.Geometry(tpp)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		seq := func(id RequestID) *Sequence {
			s := &Sequence{ID: id}
			for i := 0; i < prompt; i++ {
				s.Tokens = append(s.Tokens, Token{ID: int32(int(id)*1009+i)%50000 + 1})
			}
			return s
		}
		// The cache holds about three prompts' charge.
		probe, err := New(Config{Spec: spec, CapacityBytes: 64 * int64(geo.LargePageBytes), TokensPerPage: tpp})
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		capacity := max(3*probe.Footprint(seq(0)), 4*int64(geo.LargePageBytes))
		for _, tier := range []int64{0, 8 * int64(geo.LargePageBytes)} {
			m, err := New(Config{Spec: spec, CapacityBytes: capacity, TokensPerPage: tpp,
				EnablePrefixCache: true, RequestAware: true, HostTierBytes: tier})
			if err != nil {
				t.Fatalf("%s tier=%d: %v", spec.Name, tier, err)
			}
			for _, g := range m.groups {
				if want := g.smallQueued() || m.host != nil; (g.prio != nil) != want {
					t.Errorf("%s tier=%d group %s (ratio %d): keeps priorities %v, want %v", spec.Name, tier, g.spec.Name, g.ratio, g.prio != nil, want)
				}
			}
			served := 0
			for id := RequestID(1); id <= requests; id++ {
				s := seq(id)
				m.Lookup(s)
				if err := m.Reserve(s, prompt, Tick(id)); err != nil {
					if !errors.Is(err, ErrNoSpace) {
						t.Fatalf("%s tier=%d: %v", spec.Name, tier, err)
					}
					m.Release(s, false)
					continue
				}
				m.Commit(s, prompt, Tick(id))
				m.Release(s, true)
				served++
			}
			st := m.Stats()
			if served < requests/2 || st.SmallEvictions+st.LargeEvictions+st.SwapOuts == 0 || (tier > 0) != (st.SwapOuts > 0) {
				t.Errorf("%s tier=%d: the churn served %d of %d requests, evicted %d pages and spilled %d", spec.Name, tier, served, requests, st.SmallEvictions+st.LargeEvictions, st.SwapOuts)
			}
			audit(t, m)
		}
	}
}
