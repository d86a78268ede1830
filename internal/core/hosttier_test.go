package core

import (
	"strings"
	"testing"

	"jenga/internal/debug"
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
		for _, ref := range rg.table {
			if !ref.held() {
				continue
			}
			pg := &g.pages[ref.id()]
			if !pg.has(pageComplete) {
				continue
			}
			buf, err := g.view.SmallSlice(ref.id())
			if err != nil {
				t.Fatal(err)
			}
			hash := g.hash[ref.id()]
			v := byte(hash)
			for i := range buf {
				buf[i] = v
			}
			stamps[hash] = v
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
	if p := m.lookupPrefix(probe, m.hashesOf(m.getReq(probe), probe), resident, nil); p != 0 {
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
		for b := rg.base; b < rg.end(); b++ {
			ref := rg.at(b)
			if !ref.held() {
				continue
			}
			want, ok := stamps[g.hash[ref.id()]]
			if !ok {
				continue
			}
			buf, err := g.view.SmallSlice(ref.id())
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
	if m.geo.LargePageBytes != 512 {
		t.Skipf("geometry changed: large page = %d", m.geo.LargePageBytes)
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
	if p := m.lookupPrefix(probe, m.hashesOf(m.getReq(probe), probe), resident, nil); p < 16 {
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

// TestSwapOutReleasesLookedUp: SwapOut releases exactly like
// Release(seq, true), so a sequence the manager was only shown, by a
// lookup, leaves no state behind either.
func TestSwapOutReleasesLookedUp(t *testing.T) {
	m := newTieredMgr(t, flatSpec(), 1<<16, 1<<20, 4)
	seq := textSeq(1, 17)
	m.Lookup(seq)
	if pages, bytes := m.SwapOut(seq); pages != 0 || bytes != 0 {
		t.Fatalf("SwapOut of a looked-up request moved %d pages / %d bytes", pages, bytes)
	}
	if len(m.reqs) != 0 {
		t.Fatalf("%d request states live after the only one was swapped out", len(m.reqs))
	}
	audit(t, m)
}

// TestSpillSkipsInFlightCommit: a large page holding blocks of a
// reserved-but-uncommitted request is pinned by that in-flight use, and
// the spill path refuses it even when asked for it directly.
func TestSpillSkipsInFlightCommit(t *testing.T) {
	m := newTieredMgr(t, flatSpec(), 1<<16, 1<<20, 4)
	busy := textSeq(3, 9)
	if err := m.Reserve(busy, 9, 1); err != nil {
		t.Fatal(err)
	}
	r := m.reqs[busy.ID]
	for gi := range m.groups {
		for _, ref := range r.g[gi].table {
			if ref.held() {
				L := m.groups[gi].view.LargeOf(ref.id())
				if m.spillLarge(L, 1) {
					t.Fatalf("spillLarge moved large page %d pinned by an in-flight commit", L)
				}
			}
		}
	}
}

// TestLapsedPinTripsPinnedCheck: a jengadebug build scribbles a tier pin
// as unpin releases it, so a restore still reading through the handle —
// a use after the release — panics, even while a second pin on the same
// page keeps the page's count above zero, where the count alone would
// let the read through.
func TestLapsedPinTripsPinnedCheck(t *testing.T) {
	if !debug.On {
		t.Skip("only a jengadebug build poisons released tier pins")
	}
	tier := newHostTier(4*64, 64, []string{"kv"}, []int{1})
	if !tier.store(0, []hostBlock{{filled: 1}}, []uint64{7}, 1) {
		t.Fatal("store refused on an empty tier")
	}
	lapsed, held := tier.pin(0, 7), tier.pin(0, 7)
	defer tier.unpin(&held)
	tier.unpin(&lapsed)
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "released pin") {
			t.Fatalf("a read through a released pin went unnoticed (recovered %q)", msg)
		}
	}()
	tier.pinned(lapsed)
}

// TestHostTierAdmit: admit is the one way a page enters the tier. A page
// whose blocks are all resident is only touched — nothing is stored, and
// the page moves behind the others in the eviction order; a new page is
// stored; a page of more blocks than its group's ratio is refused.
func TestHostTierAdmit(t *testing.T) {
	cases := []struct {
		name               string
		hashes             []uint64
		wantStored, wantOK bool
		wantLive           int
		evicted            uint64 // the page the next eviction drops
	}{
		{"resident page is touched", []uint64{1}, false, true, 2, 2},
		{"new page is stored", []uint64{3}, true, true, 3, 1},
		{"over-ratio page is refused", []uint64{4, 5}, false, false, 2, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tier := newHostTier(4*64, 64, []string{"kv"}, []int{1})
			for i, hash := range []uint64{1, 2} {
				if !tier.store(0, []hostBlock{{filled: 1}}, []uint64{hash}, Tick(i+1)) {
					t.Fatalf("store of page %d refused on an empty tier", hash)
				}
			}
			blocks := make([]hostBlock, len(tc.hashes))
			if stored, ok := tier.admit(0, blocks, tc.hashes, 3); stored != tc.wantStored || ok != tc.wantOK {
				t.Fatalf("admit = (stored %v, ok %v), want (%v, %v)", stored, ok, tc.wantStored, tc.wantOK)
			}
			if tier.live != tc.wantLive {
				t.Fatalf("live = %d, want %d", tier.live, tc.wantLive)
			}
			if !tier.evictOne() {
				t.Fatal("nothing to evict")
			}
			if _, ok := tier.lookup(0, tc.evicted); ok {
				t.Fatalf("eviction kept page %d, want it dropped first", tc.evicted)
			}
		})
	}
}
