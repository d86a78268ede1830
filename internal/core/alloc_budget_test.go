package core

import (
	"testing"
	"unsafe"

	"jenga/internal/model"
)

// These budgets need the allocator's internals (page-level primitives,
// queue lengths, the free stacks' tops), so they sit here rather than in
// the root alloc_budget_test.go, which pins what the public API can
// reach.

// TestEvictCycleZeroAlloc pins the eviction cycle at zero allocations:
// on a full pool with the prefix cache on, reserve → commit →
// release(cache) → large-page evict → re-carve allocates nothing once
// the queues and lists have grown to their working size. The cycle is
// driven at page level — allocSmall, the publish a block-boundary
// commit performs, pageRelease — because the per-request state a
// public Reserve creates (getReq) is not part of it. llava-ov puts two
// page sizes in play: text KV pages fill a large page each, vision
// pages are carved eight to one, so every iteration evicts a text page
// to carve a vision large page and reclaims it again — which is every
// page-indexed structure at work: the evicted text block leaves the
// prefix index and the published one enters it, each freed page is
// pushed on its request's free stack, the carve pushes seven vision
// pages more and the reclaim unlinks them all. None of it may cost an
// object.
func TestEvictCycleZeroAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation accounting is not meaningful under -short/-race runs")
	}
	spec := model.LLaVAOneVision7B()
	geo, err := spec.Geometry(model.LCMPage, 16)
	if err != nil {
		t.Fatal(err)
	}
	const largePages = 64
	m, err := New(Config{
		Spec: spec, CapacityBytes: int64(largePages * geo.LargePageBytes), TokensPerPage: 16,
		EnablePrefixCache: true, RequestAware: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	text, vision := m.groups[m.byName["self"]], m.groups[m.byName["vision"]]
	if text.ratio == vision.ratio {
		t.Fatalf("want two page sizes, got ratio %d for both groups", text.ratio)
	}
	var k int64
	cycle := func() {
		k++
		req, now := RequestID(k), Tick(k)
		id, err := m.allocSmall(text, req)
		if err != nil {
			t.Fatal(err)
		}
		// A block-boundary commit: the page is complete and published.
		// Hashes rotate through a set larger than the pool, so the
		// block evicted to make room never shares one with a live page.
		pg := &text.pages[id]
		pg.hash, pg.complete, pg.hashed = uint64(k%(2*largePages))+1, true, true
		pg.filled = int32(text.tpp)
		text.filledSlots += int64(text.tpp)
		if !text.index.put(id) {
			t.Fatalf("hash %d still indexed when its successor is published", pg.hash)
		}
		m.pageRelease(text, id, true, now, false)

		vid, err := m.allocSmall(vision, req)
		if err != nil {
			t.Fatal(err)
		}
		m.pageRelease(vision, vid, false, now, false)
	}
	for i := 0; i < 8*largePages; i++ {
		cycle()
	}
	before := m.stats
	allocs := testing.AllocsPerRun(4*largePages, cycle)
	if allocs != 0 {
		t.Fatalf("eviction cycle allocates %.2f objects per iteration, want 0", allocs)
	}
	evicted := m.stats.LargeEvictions - before.LargeEvictions
	reclaimed := m.stats.LargeReclaims - before.LargeReclaims
	if evicted < 4*largePages || reclaimed < 4*largePages {
		t.Fatalf("measured window evicted %d and reclaimed %d large pages, want one of each per iteration", evicted, reclaimed)
	}
	audit(t, m)
}

// TestStructSizes pins the bytes the manager keeps per page: a field
// added to page costs every small page of every group, one added to an
// entry every slot of a heap that fills up.
func TestStructSizes(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"page", unsafe.Sizeof(page{}), 56},
		{"pageEntry", unsafe.Sizeof(pageEntry{}), 24},
		{"largeEntry", unsafe.Sizeof(largeEntry{}), 16},
	} {
		if c.got != c.want {
			t.Errorf("%s is %d bytes, want %d", c.name, c.got, c.want)
		}
	}
}

// churnSpec gives the text group four small pages per large page (the
// image-only group sets the LCM), so request-aware lists, partial
// large pages and both eviction steps are all exercised.
func churnSpec() *model.Spec {
	return &model.Spec{
		Name: "churn", Params: 1_000_000, WeightBytes: 2, HiddenSize: 64,
		Groups: []model.KVGroup{
			{Name: "kv", Kind: model.FullAttention, Layers: 1, BytesPerToken: 128, Scope: model.ScopeText},
			{Name: "pad", Kind: model.FullAttention, Layers: 1, BytesPerToken: 512, Scope: model.ScopeImage},
		},
	}
}

// churn serves n requests one after another through a full cache: each
// prompt is one of `groups` shared 8-block prefixes (0 = nothing
// shared) plus a unique 2-block suffix, reserved, committed and
// released into the cache. after runs once per request.
func churn(t *testing.T, m *Jenga, n, groups int, after func()) {
	t.Helper()
	const tpp, prefixBlocks, suffixBlocks = 4, 8, 2
	for i := 0; i < n; i++ {
		seq := &Sequence{ID: RequestID(i + 1)}
		for j := 0; j < prefixBlocks*tpp; j++ {
			id := int32(1_000_000 + i*64 + j) // unique
			if groups > 0 {
				id = int32((i%groups)*64 + j + 1)
			}
			seq.Tokens = append(seq.Tokens, Token{ID: id})
		}
		for j := 0; j < suffixBlocks*tpp; j++ {
			seq.Tokens = append(seq.Tokens, Token{ID: int32(2_000_000 + i*16 + j)})
		}
		commitSeq(t, m, seq, Tick(i+1))
		after()
	}
}

// TestEvictQueuesBounded: the eviction queues are bounded by what they
// index, not by how often pages were released. Fifty pool-sizes of
// release/claim cycles over a working set larger than the pool (so
// cached pages are re-claimed, evicted, spilled and restored all the
// time) leave every small-page queue within len(g.pages), the
// large-page queue within NumLargePages(), and the host-tier queue at
// exactly one entry per live page.
func TestEvictQueuesBounded(t *testing.T) {
	spec := churnSpec()
	geo, err := spec.Geometry(model.LCMPage, 4)
	if err != nil {
		t.Fatal(err)
	}
	const largePages, hostPages = 32, 12
	m, err := New(Config{
		Spec: spec, CapacityBytes: int64(largePages * geo.LargePageBytes), TokensPerPage: 4,
		EnablePrefixCache: true, RequestAware: true,
		HostTierBytes: int64(hostPages * geo.LargePageBytes),
	})
	if err != nil {
		t.Fatal(err)
	}
	kv := m.groups[m.byName["kv"]]
	bounded := func() {
		for _, g := range m.groups {
			if g.evict.len() > len(g.pages) {
				t.Fatalf("group %s: %d queued entries for %d pages", g.spec.Name, g.evict.len(), len(g.pages))
			}
		}
		if m.largeEvict.len() > m.ar.NumLargePages() {
			t.Fatalf("large-page queue holds %d entries for %d large pages", m.largeEvict.len(), m.ar.NumLargePages())
		}
		if m.host.evict.len() != m.host.live {
			t.Fatalf("host-tier queue holds %d entries for %d live pages", m.host.evict.len(), m.host.live)
		}
	}
	// 24 prefix groups × 8 blocks exceed the 128-page pool on their own.
	requests := 50 * len(kv.pages) / 10
	churn(t, m, requests, 24, bounded)
	// The bounds only mean something if the lazy queues would have
	// broken them: far more pushes than slots on every queue.
	ts := m.TierStats()
	if m.stats.Frees < int64(10*len(kv.pages)) || m.stats.LargeEvictions < int64(10*largePages) ||
		ts.SwapOuts+ts.SwapIns < 10*hostPages {
		t.Fatalf("churn too light to test the bounds: %+v, tier %+v", m.stats, ts)
	}
	audit(t, m)
}

// TestAssocStacksExact: the free stacks' map holds exactly one top per
// request that owns a linked free page — counted from the pages, after
// every request — so it is bounded by the pages that can be free at
// once and not by the number of requests ever served. Every eviction
// frees pages whose associated request is long gone; a stack lives on
// under that request's ID until its last page is taken or reclaimed.
func TestAssocStacksExact(t *testing.T) {
	spec := churnSpec()
	geo, err := spec.Geometry(model.LCMPage, 4)
	if err != nil {
		t.Fatal(err)
	}
	peak := func(n int) int {
		m := newMgr(t, spec, int64(32*geo.LargePageBytes), 4, true)
		max := 0
		owners := map[RequestID]bool{}
		churn(t, m, n, 0, func() {
			for _, g := range m.groups {
				clear(owners)
				for id := range g.pages {
					if pg := &g.pages[id]; pg.aprev != offStack {
						owners[pg.assoc] = true
					}
				}
				if len(g.assocTop) != len(owners) {
					t.Fatalf("group %s: %d stack tops, %d requests own a linked page", g.spec.Name, len(g.assocTop), len(owners))
				}
				if len(owners) > g.free.len() {
					t.Fatalf("group %s: %d requests own %d free pages", g.spec.Name, len(owners), g.free.len())
				}
				if len(owners) > max {
					max = len(owners)
				}
			}
		})
		if m.stats.LargeEvictions+m.stats.SmallEvictions == 0 {
			t.Fatal("cache never filled")
		}
		audit(t, m)
		return max
	}
	base := peak(1000)
	for _, n := range []int{4000, 16000} {
		if got := peak(n); got > base {
			t.Errorf("stacks peaked at %d over %d requests, %d over 1000: grows with requests served", got, n, base)
		}
	}
}

// nullObs is a tier observer that keeps nothing: the cycle below
// measures the tier, not what listens to it.
type nullObs struct{ stored, evicted int }

func (o *nullObs) TierStored(string, []uint64)  { o.stored++ }
func (o *nullObs) TierEvicted(string, []uint64) { o.evicted++ }

// TestTierCycleZeroAlloc pins the tier's page cycle at zero allocations:
// on a full tier with an observer attached, spill → budget eviction →
// store into the freed slot → lookup → pin, read and unpin → touch →
// residency check allocates nothing once the slab, the queue and the
// index have grown to their working size. Group a carries three blocks
// a page with bytes (a backed arena's shape), group b one without, so
// every slot serves both over time and its block array and byte buffers
// are the ones it grew on an earlier tenancy; hashes rotate through a
// ring a few times the tier, so re-spills repoint now and then.
func TestTierCycleZeroAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation accounting is not meaningful under -short/-race runs")
	}
	const pageBytes, pages, ring = 4096, 64, 1021
	tier := newHostTier(pages*pageBytes, pageBytes, []string{"a", "b"})
	obs := &nullObs{}
	tier.obs = obs
	payload := make([]byte, 512)
	blocks := make([]hostBlock, 3)
	hashes := make([]uint64, 3)
	k := uint64(40) // the touch below reaches 40 cycles back
	cycle := func() {
		k++
		gi, now := int(k%2), Tick(k)
		n := 3 - 2*gi
		for i := 0; i < n; i++ {
			hashes[i] = (3*k + uint64(i)) % ring
			blocks[i] = hostBlock{hash: hashes[i], priority: int64(k), filled: 4}
			if gi == 0 {
				blocks[i].data = payload
			}
		}
		if !tier.spill(gi, blocks[:n], now) {
			t.Fatal("spill refused on an unpinned tier")
		}
		if hb, ok := tier.lookup(gi, hashes[0]); !ok || hb.priority != int64(k) {
			t.Fatalf("block %x not found where it was just stored", hashes[0])
		}
		p := tier.pin(gi, hashes[n-1])
		if tier.pinned(p).hash != hashes[n-1] {
			t.Fatal("pin holds another block")
		}
		tier.unpin(p)
		// The page this group stored 40 cycles ago: resident, not newest.
		tier.touchPage(gi, 3*(k-40)%ring, now)
		if !tier.resident(gi, hashes[:n]) {
			t.Fatal("stored page not resident")
		}
	}
	for i := 0; i < 8*pages; i++ {
		cycle()
	}
	before := tier.stats
	allocs := testing.AllocsPerRun(4*pages, cycle)
	if allocs != 0 {
		t.Fatalf("tier cycle allocates %.2f objects per iteration, want 0", allocs)
	}
	if got := tier.stats.HostEvictions - before.HostEvictions; got < 4*pages {
		t.Fatalf("measured window evicted %d pages, want one per iteration", got)
	}
	if tier.live != pages || obs.stored == 0 || obs.evicted == 0 {
		t.Fatalf("tier not full (%d of %d pages) or observer idle (%d stored, %d evicted)", tier.live, pages, obs.stored, obs.evicted)
	}
}
