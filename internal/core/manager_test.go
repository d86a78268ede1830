package core

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"jenga/internal/arena"
	"jenga/internal/model"
)

// fig6Spec is the paper's running example (§4.1, Fig. 6): 3 self-attn
// layers over text tokens, 2 cross-attn layers over image tokens,
// 128 B per layer per token.
func fig6Spec() *model.Spec {
	return &model.Spec{
		Name: "fig6", Params: 1_000_000, WeightBytes: 2, HiddenSize: 64,
		Groups: []model.KVGroup{
			{Name: "self", Kind: model.FullAttention, Layers: 3, BytesPerToken: 128, Scope: model.ScopeText},
			{Name: "cross", Kind: model.CrossAttention, Layers: 2, BytesPerToken: 128, Scope: model.ScopeImage},
		},
	}
}

// windowSpec mixes full and sliding-window attention (Gemma/Ministral
// shape) at tiny scale.
func windowSpec(window int) *model.Spec {
	return &model.Spec{
		Name: "win", Params: 1_000_000, WeightBytes: 2, HiddenSize: 64,
		Groups: []model.KVGroup{
			{Name: "full", Kind: model.FullAttention, Layers: 2, BytesPerToken: 128},
			{Name: "window", Kind: model.SlidingWindow, Layers: 2, BytesPerToken: 128, Window: window},
		},
	}
}

// mambaSpec mixes attention with a Mamba group at tiny scale.
func mambaSpec(every int) *model.Spec {
	return &model.Spec{
		Name: "mamba", Params: 1_000_000, WeightBytes: 2, HiddenSize: 64,
		Groups: []model.KVGroup{
			{Name: "attn", Kind: model.FullAttention, Layers: 2, BytesPerToken: 128},
			{Name: "mamba", Kind: model.Mamba, Layers: 2, StateBytes: 1024, CheckpointEvery: every},
		},
	}
}

func textSeq(id RequestID, n int) *Sequence {
	s := &Sequence{ID: id}
	for i := 0; i < n; i++ {
		s.Tokens = append(s.Tokens, Token{ID: int32(i%997 + 1)})
	}
	return s
}

// mixedSeq builds <IMG>*imgN followed by text*txtN (mllama shape).
func mixedSeq(id RequestID, imgN, txtN int) *Sequence {
	s := &Sequence{ID: id}
	for i := 0; i < imgN; i++ {
		s.Tokens = append(s.Tokens, ImageToken(int32(i+1)))
	}
	for i := 0; i < txtN; i++ {
		s.Tokens = append(s.Tokens, Token{ID: int32(i + 1)})
	}
	return s
}

// audit recomputes every counter from page states and compares with the
// incremental bookkeeping; it also checks structural invariants. It is
// the workhorse behind the property-based tests (DESIGN.md §4).
// viewOf builds g's GPU-only lookup view of tokens under a throwaway
// request. The view is the group's scratch: good until its next lookup.
func viewOf(m *Jenga, g *group, tokens []Token) *GroupSeqView {
	probe := &Sequence{ID: -1, Tokens: tokens}
	defer m.Release(probe, false)
	return m.buildView(g, &m.hashesOf(m.getReq(probe), probe).c[g.hclass], probe, resident)
}

func audit(t *testing.T, m *Jenga) {
	t.Helper()
	var ownedLargeTotal int
	for L := range m.large {
		lp := &m.large[L]
		if lp.owner < 0 {
			continue // a free page's record: checkFreeLarge
		}
		var used, cached, expired int
		var maxTS Tick
		g := m.groups[lp.owner]
		first, n := g.view.SmallRange(arena.LargePageID(L))
		for i := 0; i < n; i++ {
			pg := &g.pages[first+arena.SmallPageID(i)]
			switch pg.status {
			case pageUsed:
				used++
			case pageCached:
				cached++
				if pg.expired {
					expired++
				}
				if pg.lastAccess > maxTS {
					maxTS = pg.lastAccess
				}
			}
		}
		ownedLargeTotal++
		if used != int(lp.used) || cached != int(lp.cached) {
			t.Fatalf("large %d: cnt used/cached = %d/%d, recount %d/%d",
				L, lp.used, lp.cached, used, cached)
		}
		// The incremental eviction key: expired count is exact; the
		// cached max last-access is exact when clean and an upper bound
		// while dirty (the max-holder left, pending a lazy rescan).
		if expired != int(lp.expired) {
			t.Fatalf("large %d: expired = %d, recount %d", L, lp.expired, expired)
		}
		if cached == 0 {
			if lp.ts != 0 || lp.dirty {
				t.Fatalf("large %d: uncached but ts/dirty = %d/%v", L, lp.ts, lp.dirty)
			}
		} else if lp.dirty {
			if lp.ts < maxTS {
				t.Fatalf("large %d: dirty ts = %d below true max %d", L, lp.ts, maxTS)
			}
		} else if lp.ts != maxTS {
			t.Fatalf("large %d: clean ts = %d, true max %d", L, lp.ts, maxTS)
		}
		if used == 0 && cached == 0 {
			t.Fatalf("large %d: fully empty but still owned (reclaim missed)", L)
		}
	}
	returned := 0
	for L := m.largeTop; L >= 0 && returned <= len(m.large); L = int32(m.large[L].ts) - 1 {
		returned++
	}
	if free := returned + len(m.large) - int(m.largeFresh); ownedLargeTotal+free != m.ar.NumLargePages() {
		t.Fatalf("large pages: %d owned + %d free (%d returned, %d of %d handed out) != %d total",
			ownedLargeTotal, free, returned, m.largeFresh, len(m.large), m.ar.NumLargePages())
	}
	for _, g := range m.groups {
		var nUsed, nCached, owned int
		var filled, dead, extra int64
		for L := range m.large {
			if m.large[L].owner != int8(g.idx) {
				continue
			}
			owned++
			first, n := g.view.SmallRange(arena.LargePageID(L))
			for i := 0; i < n; i++ {
				pg := &g.pages[first+arena.SmallPageID(i)]
				switch pg.status {
				case pageUsed:
					nUsed++
					filled += int64(pg.filled)
					dead += int64(pg.dead)
					extra += int64(pg.ref - 1)
					if pg.ref <= 0 {
						t.Fatalf("group %s: used page %d with ref %d", g.spec.Name, first+arena.SmallPageID(i), pg.ref)
					}
				case pageCached:
					nCached++
					if pg.ref != 0 {
						t.Fatalf("group %s: cached page with refs", g.spec.Name)
					}
					if !pg.hashed {
						t.Fatalf("group %s: cached page without index entry", g.spec.Name)
					}
				case pageEmpty:
					if !g.free.has(first + arena.SmallPageID(i)) {
						t.Fatalf("group %s: empty owned page %d missing from free pool", g.spec.Name, first+arena.SmallPageID(i))
					}
				}
			}
		}
		if nUsed != g.nUsed || nCached != g.nCached || owned != g.ownedLarge {
			t.Fatalf("group %s: counters used/cached/owned = %d/%d/%d, recount %d/%d/%d",
				g.spec.Name, g.nUsed, g.nCached, g.ownedLarge, nUsed, nCached, owned)
		}
		if filled != g.filledSlots || dead != g.deadSlots {
			t.Fatalf("group %s: slots filled/dead = %d/%d, recount %d/%d",
				g.spec.Name, g.filledSlots, g.deadSlots, filled, dead)
		}
		if extra != g.extraRefs {
			t.Fatalf("group %s: extraRefs = %d, recount %d", g.spec.Name, g.extraRefs, extra)
		}
		nFree := 0
		for p := range g.pages {
			id := arena.SmallPageID(p)
			if !g.free.has(id) {
				continue
			}
			nFree++
			pg := &g.pages[id]
			if pg.status != pageEmpty {
				t.Fatalf("group %s: free pool holds non-empty page %d", g.spec.Name, id)
			}
			if m.large[g.view.LargeOf(id)].owner != int8(g.idx) {
				t.Fatalf("group %s: free page %d in foreign large page", g.spec.Name, id)
			}
		}
		if nFree != g.free.len() {
			t.Fatalf("group %s: free pool count %d, recount %d", g.spec.Name, g.free.len(), nFree)
		}
	}
	// The page-indexed structures: stacks, prefix index, heaps, slab.
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	u := m.Usage()
	total := u.Used + u.Cached + u.Wasted + u.Free
	if total != m.Capacity() {
		t.Fatalf("usage not conserved: used %d + cached %d + wasted %d + free %d = %d != capacity %d",
			u.Used, u.Cached, u.Wasted, u.Free, total, m.Capacity())
	}
	if u.Used < 0 || u.Cached < 0 || u.Wasted < 0 || u.Free < 0 {
		t.Fatalf("negative usage component: %+v", u)
	}
}

func newMgr(t *testing.T, spec *model.Spec, capacity int64, tpp int, cache bool) *Jenga {
	t.Helper()
	m, err := New(Config{
		Spec: spec, CapacityBytes: capacity, TokensPerPage: tpp,
		EnablePrefixCache: cache, RequestAware: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestNewErrors: every config New cannot build from fails Validate with
// a *ConfigError naming the field at fault, and New returns that error
// rather than panicking — including a host tier whose up-front tables
// would overflow their int32 block IDs.
func TestNewErrors(t *testing.T) {
	geo, err := fig6Spec().Geometry(16)
	if err != nil {
		t.Fatal(err)
	}
	large, stride := int64(geo.LargePageBytes), int64(0)
	for _, g := range fig6Spec().Groups {
		stride = max(stride, int64(geo.Ratio[g.Name]))
	}
	valid := func(edit func(c *Config)) Config {
		c := Config{Spec: fig6Spec(), CapacityBytes: 1 << 20, HostTierBytes: 1 << 20}
		edit(&c)
		return c
	}
	cases := []struct {
		name  string
		cfg   Config
		field string
	}{
		{"nil spec", valid(func(c *Config) { c.Spec = nil }), "Spec"},
		{"invalid spec", valid(func(c *Config) { c.Spec.Groups[0].Layers = 0 }), "Spec"},
		{"negative tokens per page", valid(func(c *Config) { c.TokensPerPage = -1 }), "TokensPerPage"},
		{"capacity below one large page", valid(func(c *Config) { c.CapacityBytes = large - 1 }), "CapacityBytes"},
		{"negative capacity", valid(func(c *Config) { c.CapacityBytes = -1 }), "CapacityBytes"},
		{"negative host tier", valid(func(c *Config) { c.HostTierBytes = -1 }), "HostTierBytes"},
		{"host tier one page past int32 block IDs", valid(func(c *Config) { c.HostTierBytes = (math.MaxInt32/stride + 1) * large }), "HostTierBytes"},
		{"host tier of the largest budget", valid(func(c *Config) { c.HostTierBytes = math.MaxInt64 }), "HostTierBytes"},
		{"small-page ratio past a large page's uint16 counters", valid(func(c *Config) {
			// 65,536 token bytes set the LCM; one byte a token is 65,536
			// small pages of one a large page.
			c.Spec.Groups = append(c.Spec.Groups,
				model.KVGroup{Name: "wide", Kind: model.FullAttention, Layers: 1, BytesPerToken: 1 << 16, Scope: model.ScopeText},
				model.KVGroup{Name: "thin", Kind: model.FullAttention, Layers: 1, BytesPerToken: 1, Scope: model.ScopeText})
			c.TokensPerPage = 1
			c.CapacityBytes = 1 << 30
		}), "Spec"},
		{"more groups than a large page's int8 owner", valid(func(c *Config) {
			for i := len(c.Spec.Groups); i <= math.MaxInt8; i++ {
				c.Spec.Groups = append(c.Spec.Groups, model.KVGroup{Name: fmt.Sprintf("g%d", i), Kind: model.FullAttention, Layers: 1, BytesPerToken: 64, Scope: model.ScopeText})
			}
		}), "Spec"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var cerr *ConfigError
			if err := c.cfg.Validate(); !errors.As(err, &cerr) || cerr.Field != c.field {
				t.Fatalf("Validate = %v, want a *ConfigError naming %s", err, c.field)
			}
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("New panicked: %v", p)
				}
			}()
			if _, err := New(c.cfg); !errors.As(err, &cerr) || cerr.Field != c.field {
				t.Fatalf("New = %v, want a *ConfigError naming %s", err, c.field)
			}
		})
	}
	if err := valid(func(*Config) {}).Validate(); err != nil {
		t.Fatalf("a sound config fails Validate: %v", err)
	}
}

func TestBasicLifecycle(t *testing.T) {
	m := newMgr(t, fig6Spec(), 64*768, 1, false)
	seq := mixedSeq(1, 4, 2) // Fig. 6: <IMG>×4 Hello World
	if err := m.Reserve(seq, 6, 1); err != nil {
		t.Fatal(err)
	}
	m.Commit(seq, 6, 1)
	audit(t, m)
	u := m.Usage()
	// 2 text tokens × 384 + 4 image tokens × 256 = 1792 bytes used.
	if want := int64(2*384 + 4*256); u.Used != want {
		t.Errorf("used = %d, want %d", u.Used, want)
	}
	// Waste: text large page has 0 empty small pages? tokensPerPage=1:
	// text needs 2 small pages (ratio 2) → exactly one large page, no
	// waste. Image needs 4 smalls (ratio 3) → 2 large pages, 2 unused
	// smalls = 512 bytes wasted.
	if want := int64(2 * 256); u.Wasted != want {
		t.Errorf("wasted = %d, want %d", u.Wasted, want)
	}
	m.Release(seq, false)
	audit(t, m)
	u = m.Usage()
	if u.Used != 0 || u.Wasted != 0 || u.Cached != 0 {
		t.Errorf("after release: %+v", u)
	}
	if u.Free != m.Capacity() {
		t.Errorf("free = %d, want full capacity %d", u.Free, m.Capacity())
	}
	st := m.Stats()
	if st.LargeReclaims == 0 {
		t.Error("release should reclaim large pages")
	}
}

func TestReserveBeyondLengthErrors(t *testing.T) {
	m := newMgr(t, fig6Spec(), 64*768, 1, false)
	seq := textSeq(1, 3)
	if err := m.Reserve(seq, 4, 1); err == nil {
		t.Error("reserve beyond sequence length should error")
	}
	if err := m.EncodeImages(seq, 4, 1); err == nil {
		t.Error("encode beyond sequence length should error")
	}
}

func TestReserveIdempotentAndMonotonic(t *testing.T) {
	m := newMgr(t, fig6Spec(), 64*768, 1, false)
	seq := textSeq(1, 10)
	if err := m.Reserve(seq, 5, 1); err != nil {
		t.Fatal(err)
	}
	a := m.Stats().Allocs
	if err := m.Reserve(seq, 5, 2); err != nil {
		t.Fatal(err)
	}
	if m.Stats().Allocs != a {
		t.Error("repeated reserve should not allocate")
	}
	if err := m.Reserve(seq, 3, 2); err != nil {
		t.Fatal("shrinking reserve should be a no-op, not an error")
	}
	m.Commit(seq, 5, 2)
	audit(t, m)
	m.Release(seq, false)
	audit(t, m)
}

func TestErrNoSpaceAndRetry(t *testing.T) {
	// Capacity of exactly 2 large pages; text ratio 2 → 4 text slots.
	m := newMgr(t, fig6Spec(), 2*768, 1, false)
	seq := textSeq(1, 10)
	err := m.Reserve(seq, 10, 1)
	if !errors.Is(err, ErrNoSpace) {
		t.Fatalf("expected ErrNoSpace, got %v", err)
	}
	audit(t, m)
	// Partial progress: 4 tokens should have pages.
	if err := m.Reserve(seq, 4, 1); err != nil {
		t.Fatalf("reserve within capacity after failure: %v", err)
	}
	m.Commit(seq, 4, 1)
	audit(t, m)
	// Releasing frees everything; a new request can then fit.
	m.Release(seq, false)
	seq2 := textSeq(2, 4)
	if err := m.Reserve(seq2, 4, 2); err != nil {
		t.Fatal(err)
	}
	audit(t, m)
}

func TestWindowFreeing(t *testing.T) {
	// Window 4, tpp 2: committed tokens beyond the window free their
	// blocks (caching off → pages return to the free pool).
	spec := windowSpec(4)
	m := newMgr(t, spec, 1<<20, 2, false)
	seq := textSeq(1, 40)
	if err := m.Reserve(seq, 40, 1); err != nil {
		t.Fatal(err)
	}
	m.Commit(seq, 40, 1)
	audit(t, m)
	u := m.Usage()
	full := u.PerGroup["full"]
	win := u.PerGroup["window"]
	// Full group: all 40 tokens live (40 × 256 per-token bytes... 2
	// layers × 128 = 256/token).
	if want := int64(40 * 256); full.Used != want {
		t.Errorf("full used = %d, want %d", full.Used, want)
	}
	// Window group: only the last 4 tokens live.
	if want := int64(4 * 256); win.Used != want {
		t.Errorf("window used = %d, want %d", win.Used, want)
	}
	m.Release(seq, false)
	audit(t, m)
}

func TestWindowDeadSlotBoundary(t *testing.T) {
	// Window 3, tpp 2: freeBelow lands mid-block, leaving one dead slot
	// in the boundary page.
	spec := windowSpec(3)
	m := newMgr(t, spec, 1<<20, 2, false)
	seq := textSeq(1, 10)
	if err := m.Reserve(seq, 10, 1); err != nil {
		t.Fatal(err)
	}
	m.Commit(seq, 10, 1)
	audit(t, m)
	win := m.Usage().PerGroup["window"]
	// 10 tokens, window 3 → freeBelow 7 → blocks 0-2 freed, block 3
	// keeps token 7 dead (1 dead slot), tokens 8,9 live in blocks 3-4.
	if want := int64(3 * 256); win.Used != want {
		t.Errorf("window used = %d, want %d", win.Used, want)
	}
	if win.Wasted < 256 {
		t.Errorf("window wasted = %d, want ≥ one dead slot (256)", win.Wasted)
	}
	m.Release(seq, false)
	audit(t, m)
}

func TestMambaLifecycle(t *testing.T) {
	m := newMgr(t, mambaSpec(4), 1<<20, 2, true)
	seq := textSeq(1, 11)
	if err := m.Reserve(seq, 11, 1); err != nil {
		t.Fatal(err)
	}
	m.Commit(seq, 11, 1)
	audit(t, m)
	r := m.reqs[seq.ID]
	rg := &r.g[1]
	if !rg.hasWork {
		t.Fatal("mamba group should hold a working state page")
	}
	// Checkpoints at 4 and 8 finalized (position 12 not reached).
	if rg.ckptDone != 2 {
		t.Errorf("finalized checkpoints = %d, want 2", rg.ckptDone)
	}
	u := m.Usage()
	mu := u.PerGroup["mamba"]
	// Working state + 2 checkpoints, each 2048 bytes (2 layers × 1024).
	if want := int64(3 * 2048); mu.Used != want {
		t.Errorf("mamba used = %d, want %d", mu.Used, want)
	}
	m.Release(seq, true)
	audit(t, m)
	mu = m.Usage().PerGroup["mamba"]
	if want := int64(2 * 2048); mu.Cached != want {
		t.Errorf("mamba cached after release = %d, want %d", mu.Cached, want)
	}
	if mu.Used != 0 {
		t.Errorf("mamba used after release = %d, want 0", mu.Used)
	}
}

func TestMambaPrefixHit(t *testing.T) {
	m := newMgr(t, mambaSpec(4), 1<<20, 2, true)
	seq := textSeq(1, 11)
	if err := m.Reserve(seq, 11, 1); err != nil {
		t.Fatal(err)
	}
	m.Commit(seq, 11, 1)
	m.Release(seq, true)

	// Same prefix: hit must land at a checkpoint multiple (8) that is
	// also block-aligned for the attention group (tpp 2 → 8 ✓).
	seq2 := textSeq(2, 11)
	p := m.Lookup(seq2)
	if p != 8 {
		t.Fatalf("mamba-constrained lookup = %d, want 8", p)
	}
	if err := m.Reserve(seq2, 11, 2); err != nil {
		t.Fatal(err)
	}
	if got := m.CachedPrefix(seq2); got != 8 {
		t.Errorf("cached prefix = %d, want 8", got)
	}
	m.Commit(seq2, 11, 2)
	audit(t, m)
	m.Release(seq2, true)
	audit(t, m)
}

func TestFullPrefixHitAndSharing(t *testing.T) {
	m := newMgr(t, windowSpec(4), 1<<20, 2, true)
	a := textSeq(1, 33)
	if err := m.Reserve(a, 33, 1); err != nil {
		t.Fatal(err)
	}
	m.Commit(a, 33, 1)
	m.Release(a, true)
	audit(t, m)

	b := textSeq(2, 33)
	p := m.Lookup(b)
	if p != 32 {
		t.Fatalf("lookup = %d, want 32 (len-1 rounded to block)", p)
	}
	if err := m.Reserve(b, 33, 2); err != nil {
		t.Fatal(err)
	}
	m.Commit(b, 33, 2)
	audit(t, m)

	// A third identical request while b still runs: pages are shared
	// (refcount), not copied.
	c := textSeq(3, 33)
	if err := m.Reserve(c, 33, 3); err != nil {
		t.Fatal(err)
	}
	if got := m.CachedPrefix(c); got != 32 {
		t.Errorf("cached prefix for c = %d, want 32", got)
	}
	m.Commit(c, 33, 3)
	audit(t, m)
	m.Release(b, true)
	audit(t, m)
	m.Release(c, true)
	audit(t, m)
}

func TestWindowHitWithEvictedEarlyTokens(t *testing.T) {
	// §5.2: a sliding-window layer hits even when tokens before the
	// window are gone. Build a cache, evict the earliest window pages
	// through allocation, and check the window group still validates
	// while the full group keeps every block.
	m := newMgr(t, windowSpec(4), 1<<20, 2, true)
	a := textSeq(1, 17)
	// Commit chunk by chunk at increasing ticks so early window blocks
	// exit the window with older timestamps (as in a real prefill).
	for i, upTo := range []int{4, 8, 12, 17} {
		if err := m.Reserve(a, upTo, Tick(i+1)); err != nil {
			t.Fatal(err)
		}
		m.Commit(a, upTo, Tick(i+1))
	}
	m.Release(a, true)

	// The two oldest pages are window blocks 0 and 1 (tokens 0..3): they
	// left the window at tick 2, everything else later.
	p := &Sequence{ID: 3}
	evictByAlloc(t, m, p, 2)
	audit(t, m)

	b := textSeq(2, 17)
	g := m.groups[m.groupIndex("window")]
	v := viewOf(m, g, b.Tokens)
	if v.Present[0] || v.Present[1] || !v.Present[2] {
		t.Fatalf("window blocks cached %v, want blocks 0 and 1 evicted and the rest kept", v.Present)
	}
	// Window rule: prefix 16 needs projected tokens [12,16) → blocks
	// 6,7 — still cached → valid despite missing blocks 0 and 1.
	if !g.pol.ValidPrefix(v, 16) {
		t.Error("window policy should accept prefix 16 with early tokens evicted")
	}
	full := m.groups[m.groupIndex("full")]
	fv := viewOf(m, full, b.Tokens)
	if !full.pol.ValidPrefix(fv, 16) {
		t.Error("full group unaffected; prefix 16 should be valid")
	}
	if hit := m.Lookup(b); hit != 16 {
		t.Errorf("model-wide hit = %d, want 16", hit)
	}
	m.Release(b, false)
	m.Release(p, false)
	audit(t, m)
}

func TestReleaseUnknownSequenceIsNoop(t *testing.T) {
	m := newMgr(t, fig6Spec(), 64*768, 1, true)
	m.Release(&Sequence{ID: 99}, true)
	audit(t, m)
	if m.Lookup(&Sequence{ID: 98}) != 0 {
		t.Error("empty manager lookup should be 0")
	}
	if m.CachedPrefix(&Sequence{ID: 97}) != 0 {
		t.Error("unknown sequence cached prefix should be 0")
	}
}

func TestLookupDisabledCache(t *testing.T) {
	m := newMgr(t, windowSpec(4), 1<<20, 2, false)
	a := textSeq(1, 17)
	if err := m.Reserve(a, 17, 1); err != nil {
		t.Fatal(err)
	}
	m.Commit(a, 17, 1)
	m.Release(a, true) // cache=true ignored when disabled
	audit(t, m)
	if m.Usage().Cached != 0 {
		t.Error("disabled cache should keep nothing")
	}
	if m.Lookup(textSeq(2, 17)) != 0 {
		t.Error("lookup with disabled cache should be 0")
	}
}

// TestCommitBeyondReservedPanics pins the manager's internal contract:
// committing tokens that were never reserved is a programming error and
// must fail loudly, not corrupt accounting.
func TestCommitBeyondReservedPanics(t *testing.T) {
	m := newMgr(t, fig6Spec(), 64*768, 1, false)
	seq := textSeq(1, 4)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on commit beyond reserved")
		}
	}()
	m.Commit(seq, 3, 1)
}
