package core

import (
	"math/rand"
	"testing"

	"jenga/internal/model"
)

// flatSpec is a single full-attention group — the simplest geometry
// (ratio 1) so tier tests can reason about pages directly.
func flatSpec() *model.Spec {
	return &model.Spec{
		Name: "flat", Params: 1_000_000, WeightBytes: 2, HiddenSize: 64,
		Groups: []model.KVGroup{
			{Name: "kv", Kind: model.FullAttention, Layers: 1, BytesPerToken: 128},
		},
	}
}

// newTieredMgr builds a backed, prefix-caching manager with a host
// tier of hostBytes.
func newTieredMgr(t *testing.T, spec *model.Spec, capacity, hostBytes int64, tpp int) *Jenga {
	t.Helper()
	m, err := New(Config{
		Spec: spec, CapacityBytes: capacity, TokensPerPage: tpp,
		EnablePrefixCache: true, RequestAware: true, Backed: true,
		HostTierBytes: hostBytes,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// commitSeq reserves, commits and cache-releases one whole sequence.
func commitSeq(t *testing.T, m *Jenga, seq *Sequence, now Tick) {
	t.Helper()
	if err := m.Reserve(seq, len(seq.Tokens), now); err != nil {
		t.Fatal(err)
	}
	m.Commit(seq, len(seq.Tokens), now)
	m.Release(seq, true)
}

// pagePattern fills a small page's backing bytes with a value derived
// from its hash, so a spill/restore round trip is checkable per block.
func stampPages(t *testing.T, m *Jenga, seq *Sequence) map[uint64]byte {
	t.Helper()
	r := m.reqs[seq.ID]
	if r == nil {
		t.Fatal("no request state")
	}
	stamps := make(map[uint64]byte)
	for gi, g := range m.groups {
		rg := &r.g[gi]
		for b := range rg.pages {
			if !rg.pages[b].held {
				continue
			}
			pg := &g.pages[rg.pages[b].id]
			if !pg.complete {
				continue
			}
			buf, err := g.view.SmallSlice(rg.pages[b].id)
			if err != nil {
				t.Fatal(err)
			}
			v := byte(pg.hash)
			for i := range buf {
				buf[i] = v
			}
			stamps[pg.hash] = v
		}
	}
	return stamps
}

// TestHostTierSpillRestoreRoundTrip drives the full tier cycle on a
// backed arena: commit → stamp bytes → evict (spill) → re-lookup →
// claim (restore) → verify the restored pages carry the exact bytes
// that were spilled.
func TestHostTierSpillRestoreRoundTrip(t *testing.T) {
	m := newTieredMgr(t, flatSpec(), 1<<16, 1<<20, 4)
	seq := textSeq(1, 33) // 8 complete blocks of 4 + 1 running token
	seq.PromptLen = 33
	if err := m.Reserve(seq, 33, 1); err != nil {
		t.Fatal(err)
	}
	m.Commit(seq, 33, 1)
	stamps := stampPages(t, m, seq)
	if len(stamps) == 0 {
		t.Fatal("no complete blocks stamped")
	}
	m.Release(seq, true)
	audit(t, m)

	// Evict everything: each whole-large-page eviction must spill
	// before discarding.
	evictions := 0
	for m.evictLargeLRU() {
		evictions++
	}
	if evictions == 0 {
		t.Fatal("no large pages evicted")
	}
	st := m.TierStats()
	if st.SwapOuts == 0 || st.HostUsed == 0 {
		t.Fatalf("eviction did not spill: %+v", st)
	}
	if st.HostUsed > st.HostCapacity {
		t.Fatalf("tier over budget: %d > %d", st.HostUsed, st.HostCapacity)
	}
	u := m.Usage()
	if u.HostUsed != st.HostUsed || u.HostCapacity != st.HostCapacity {
		t.Fatalf("Usage host fields disagree with TierStats: %+v vs %+v", u, st)
	}
	audit(t, m)

	// The GPU cache is gone, but Lookup still sees the prefix through
	// the tier.
	probe := textSeq(2, 33)
	probe.PromptLen = 33
	if p := m.Lookup(probe); p < 32 {
		t.Fatalf("host-aware Lookup = %d, want ≥ 32", p)
	}
	if p := m.lookupPrefix(probe, m.hashesOf(probe), resident); p != 0 {
		t.Fatalf("GPU-only lookup = %d, want 0 (everything spilled)", p)
	}

	// Claiming restores: block bytes must round-trip exactly.
	if err := m.Reserve(probe, 33, 5); err != nil {
		t.Fatal(err)
	}
	if got := m.CachedPrefix(probe); got < 32 {
		t.Fatalf("CachedPrefix = %d, want ≥ 32", got)
	}
	st = m.TierStats()
	if st.SwapIns == 0 || st.RestoredTokens == 0 {
		t.Fatalf("claim did not restore: %+v", st)
	}
	if tok, bytes := m.RestoreCost(probe); tok == 0 || bytes == 0 {
		t.Fatalf("RestoreCost = %d/%d, want > 0", tok, bytes)
	}
	r := m.reqs[probe.ID]
	checked := 0
	for gi, g := range m.groups {
		rg := &r.g[gi]
		for b := range rg.pages {
			if !rg.pages[b].held {
				continue
			}
			pg := &g.pages[rg.pages[b].id]
			want, ok := stamps[pg.hash]
			if !ok {
				continue
			}
			buf, err := g.view.SmallSlice(rg.pages[b].id)
			if err != nil {
				t.Fatal(err)
			}
			for i := range buf {
				if buf[i] != want {
					t.Fatalf("block %d byte %d = %#x, want %#x (round trip corrupted)", b, i, buf[i], want)
				}
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no restored blocks verified")
	}
	// Transfers were accounted on both directions.
	h2d, d2h := m.DrainTransfers()
	if h2d == 0 || d2h == 0 {
		t.Fatalf("DrainTransfers = %d/%d, want both > 0", h2d, d2h)
	}
	if h2, d2 := m.DrainTransfers(); h2 != 0 || d2 != 0 {
		t.Fatalf("second drain = %d/%d, want zeros", h2, d2)
	}
	audit(t, m)
}

// TestHostTierZeroBudget: a zero (or sub-page) budget disables the
// tier entirely — no spills, no host accounting, host-blind lookups.
func TestHostTierZeroBudget(t *testing.T) {
	for _, budget := range []int64{0, 1} {
		m, err := New(Config{
			Spec: flatSpec(), CapacityBytes: 1 << 16, TokensPerPage: 4,
			EnablePrefixCache: true, RequestAware: true, HostTierBytes: budget,
		})
		if err != nil {
			t.Fatal(err)
		}
		if m.host != nil {
			t.Fatalf("budget %d built a tier", budget)
		}
		seq := textSeq(1, 33)
		seq.PromptLen = 33
		if err := m.Reserve(seq, 33, 1); err != nil {
			t.Fatal(err)
		}
		m.Commit(seq, 33, 1)
		if pages, bytes := m.SwapOut(seq); pages != 0 || bytes != 0 {
			t.Fatalf("SwapOut on zero tier moved %d pages / %d bytes", pages, bytes)
		}
		for m.evictLargeLRU() {
		}
		st := m.TierStats()
		if st != (TierStats{}) {
			t.Fatalf("zero-budget tier has stats: %+v", st)
		}
		u := m.Usage()
		if u.HostUsed != 0 || u.HostCapacity != 0 {
			t.Fatalf("zero-budget tier has usage: %+v", u)
		}
	}
}

// TestHostTierBudgetEviction: a tier sized to one large page drops its
// oldest spill to admit the next.
func TestHostTierBudgetEviction(t *testing.T) {
	m := newTieredMgr(t, flatSpec(), 1<<16, int64(512), 4) // exactly 1 large page
	if m.host == nil {
		t.Fatal("tier not built")
	}
	if m.OffloadGranularity() != 512 {
		t.Skipf("geometry changed: large page = %d", m.OffloadGranularity())
	}
	for i := 1; i <= 3; i++ {
		seq := textSeq(RequestID(i), 9)
		seq.Tokens[0].ID = int32(1000 * i)
		seq.PromptLen = 9
		commitSeq(t, m, seq, Tick(i))
	}
	for m.evictLargeLRU() {
	}
	st := m.TierStats()
	if st.SwapOuts < 2 {
		t.Fatalf("expected ≥ 2 spills, got %d", st.SwapOuts)
	}
	if st.HostEvictions != st.SwapOuts-1 {
		t.Fatalf("HostEvictions = %d, want %d (all but the newest spill dropped)", st.HostEvictions, st.SwapOuts-1)
	}
	if st.HostUsed != 512 {
		t.Fatalf("HostUsed = %d, want exactly one page", st.HostUsed)
	}
}

// TestSwapOutProactive: SwapOut copies a request's pages to host
// before any eviction, and the later eviction dedups instead of
// re-transferring.
func TestSwapOutProactive(t *testing.T) {
	m := newTieredMgr(t, flatSpec(), 1<<16, 1<<20, 4)
	seq := textSeq(1, 17)
	seq.PromptLen = 17
	if err := m.Reserve(seq, 17, 1); err != nil {
		t.Fatal(err)
	}
	m.Commit(seq, 17, 1)
	pages, bytes := m.SwapOut(seq)
	if pages == 0 || bytes == 0 {
		t.Fatalf("SwapOut moved %d pages / %d bytes, want > 0", pages, bytes)
	}
	if _, ok := m.reqs[seq.ID]; ok {
		t.Fatal("SwapOut did not release the request")
	}
	st := m.TierStats()
	if st.SwapOuts != int64(pages) {
		t.Fatalf("SwapOuts = %d, want %d", st.SwapOuts, pages)
	}
	audit(t, m)
	// Pages stayed GPU-cached (write-through): a lookup claims them
	// from the GPU without touching the tier.
	probe := textSeq(2, 17)
	probe.PromptLen = 17
	if p := m.lookupPrefix(probe, m.hashesOf(probe), resident); p < 16 {
		t.Fatalf("GPU-only lookup after SwapOut = %d, want ≥ 16", p)
	}
	// Eviction now finds the bytes already in the tier: no second
	// transfer for the same content.
	before := m.TierStats().SwapOuts
	for m.evictLargeLRU() {
	}
	if after := m.TierStats().SwapOuts; after != before {
		t.Fatalf("eviction re-spilled swap-out content: %d → %d", before, after)
	}
	// And the preempted request still resumes from the tier.
	if p := m.Lookup(probe); p < 16 {
		t.Fatalf("host Lookup after eviction = %d, want ≥ 16", p)
	}
	if err := m.Reserve(probe, 17, 3); err != nil {
		t.Fatal(err)
	}
	if m.CachedPrefix(probe) < 16 {
		t.Fatalf("restore claim failed: CachedPrefix = %d", m.CachedPrefix(probe))
	}
	audit(t, m)
}

// TestOffloadOrderExcludesInFlightCommit: a page holding blocks of a
// reserved-but-uncommitted (or committed-but-unreleased) request is
// pinned by that in-flight use and must never be advised for spill.
func TestOffloadOrderExcludesInFlightCommit(t *testing.T) {
	m := newMgr(t, windowSpec(4), 1<<15, 2, true)
	done := textSeq(1, 17)
	done.PromptLen = 17
	if err := m.Reserve(done, 17, 1); err != nil {
		t.Fatal(err)
	}
	m.Commit(done, 17, 1)
	m.Release(done, true)

	inflight := textSeq(2, 17)
	inflight.Tokens[0].ID = 4242
	if err := m.Reserve(inflight, 17, 2); err != nil {
		t.Fatal(err)
	}
	// Reserved, commit still in flight: every page of the in-flight
	// request is used, so its large pages must not be advised.
	for _, h := range m.OffloadOrder(0) {
		if m.cntUsed[h.LargePage] != 0 {
			t.Fatalf("hint advises large page %d with %d in-flight pages", h.LargePage, m.cntUsed[h.LargePage])
		}
	}
	// Nor spilled, even when asked directly.
	m2 := newTieredMgr(t, flatSpec(), 1<<16, 1<<20, 4)
	busy := textSeq(3, 9)
	if err := m2.Reserve(busy, 9, 1); err != nil {
		t.Fatal(err)
	}
	r := m2.reqs[busy.ID]
	for gi := range m2.groups {
		for b := range r.g[gi].pages {
			if r.g[gi].pages[b].held {
				L := m2.largeOf(m2.groups[gi], r.g[gi].pages[b].id)
				if m2.spillLarge(L, 1) {
					t.Fatalf("spillLarge moved large page %d pinned by an in-flight commit", L)
				}
			}
		}
	}
}

// TestOffloadOrderChurnInvariants hammers a manager with seeded
// alloc/commit/release/evict churn and re-checks the ordering
// invariants after every mutation: expired strictly before live,
// non-decreasing LastAccess within a class, lowest-page-ID tiebreak,
// and bounded selection being an exact prefix of the full order.
func TestOffloadOrderChurnInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := newMgr(t, windowSpec(4), 1<<15, 2, true)
	live := make(map[RequestID]*Sequence)
	next := RequestID(1)
	for step := 0; step < 400; step++ {
		switch op := rng.Intn(10); {
		case op < 5: // start + commit a request
			n := 5 + rng.Intn(40)
			seq := textSeq(next, n)
			seq.Tokens[0].ID = int32(rng.Intn(1 << 20))
			seq.PromptLen = n
			next++
			if err := m.Reserve(seq, n, Tick(step)); err == nil {
				m.Commit(seq, n, Tick(step))
				live[seq.ID] = seq
			} else {
				m.Release(seq, false)
			}
		case op < 8: // release one live request
			for id, seq := range live {
				m.Release(seq, rng.Intn(2) == 0)
				delete(live, id)
				break
			}
		default: // direct eviction pressure
			m.evictLargeLRU()
		}
		hints := m.OffloadOrder(0)
		for i := 1; i < len(hints); i++ {
			a, b := hints[i-1], hints[i]
			if !a.Expired && b.Expired {
				t.Fatalf("step %d: expired hint %d after live hint", step, i)
			}
			if a.Expired == b.Expired {
				if a.LastAccess > b.LastAccess {
					t.Fatalf("step %d: LRU order violated at %d", step, i)
				}
				if a.LastAccess == b.LastAccess && a.LargePage >= b.LargePage {
					t.Fatalf("step %d: page-ID tiebreak violated at %d", step, i)
				}
			}
		}
		for _, h := range hints {
			if m.cntUsed[h.LargePage] != 0 || m.cntCached[h.LargePage] == 0 {
				t.Fatalf("step %d: hint advises non-evictable page %d", step, h.LargePage)
			}
		}
		if len(hints) > 1 {
			k := 1 + rng.Intn(len(hints))
			bounded := m.OffloadOrder(k)
			if len(bounded) != k {
				t.Fatalf("step %d: OffloadOrder(%d) returned %d hints", step, k, len(bounded))
			}
			for i := range bounded {
				if bounded[i] != hints[i] {
					t.Fatalf("step %d: bounded order diverges from full order at %d", step, i)
				}
			}
		}
	}
	audit(t, m)
}
