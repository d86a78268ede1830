package core

import (
	"cmp"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"jenga/internal/arena"
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
// pages are carved eight to one, so every iteration evicts text pages
// to carve a vision large page and reclaims it again — which is every
// page-indexed structure at work: the evicted text block leaves the
// prefix index and the published one enters it, each freed vision page
// is pushed on its request's free stack (a text page, ratio 1, keeps
// none), the carve pushes seven vision pages more and the reclaim
// unlinks them all, and every reclaimed large page goes on the returned
// stack. The large-page queue works its steady state too: each
// iteration releases a batch of text pages at one tick into its run's
// open segment and closes the last one, which sorts it, and re-keys a
// page cached a few ticks back, as a claim's touch does, leaving a dead
// entry in a closed segment — so the ring fills, at its bound of seven
// eighths of the slots, and is compacted, and what it turns away meanwhile
// waits in the heap. None of it may cost an object.
func TestEvictCycleZeroAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation accounting is not meaningful under -short/-race runs")
	}
	spec := model.LLaVAOneVision7B()
	geo, err := spec.Geometry(16)
	if err != nil {
		t.Fatal(err)
	}
	const largePages, batch, back = 64, 3, 4
	m, err := New(Config{
		Spec: spec, CapacityBytes: int64(largePages * geo.LargePageBytes), TokensPerPage: 16,
		EnablePrefixCache: true, RequestAware: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	text, vision := m.groups[m.groupIndex("self")], m.groups[m.groupIndex("vision")]
	if text.ratio == vision.ratio || text.ratio != 1 {
		t.Fatalf("want a ratio-1 text group and a second page size, got ratios %d and %d", text.ratio, vision.ratio)
	}
	var (
		k, hash int64
		ids     [batch]arena.SmallPageID
		recent  [back]arena.SmallPageID // the batches' first pages, by tick
	)
	q := &m.largeEvict
	var compactions, sorted, queued int
	cycle := func() {
		k++
		req, now := RequestID(k), Tick(k)
		for i := range ids {
			id, err := m.allocSmall(text, req)
			if err != nil {
				t.Fatal(err)
			}
			// A block-boundary commit: the page is complete and
			// published. Hashes rotate through a set larger than the
			// pool, so the block evicted to make room never shares one
			// with a live page.
			hash++
			pg := &text.pages[id]
			text.hash[id] = uint64(hash%(4*largePages)) + 1
			pg.set(pageComplete|pageHashed, true)
			pg.filled = uint8(text.tpp)
			text.filledSlots += int64(text.tpp)
			if !text.index.put(id) {
				t.Fatalf("hash %d still indexed when its successor is published", text.hash[id])
			}
			ids[i] = id
		}
		// Released highest ID first, the order the open segment sorts.
		slices.SortFunc(ids[:], func(a, b arena.SmallPageID) int { return cmp.Compare(b, a) })
		base := q.base
		for _, id := range ids {
			m.pageRelease(text, id, true, now, false)
		}
		// The batch is queued whole: in the run's open segment, which the
		// next tick's first push sorts, or — for what a ring at its bound
		// turned away — in the heap.
		inRun, inHeap := 0, 0
		if last := q.segs[len(q.segs)-1]; q.open && last.tick == now {
			inRun = q.base + q.n - int(last.start)
		}
		for _, e := range q.heap {
			if e.ts == now {
				inHeap++
			}
		}
		if inRun+inHeap == batch {
			queued++
		}
		if inRun == batch {
			sorted++ // this batch's segment: the next tick's first push sorts it
		}
		// A claim's touch: a page released a few ticks back, sitting in
		// a closed segment, is re-keyed to now.
		if id := recent[k%back]; k > back && text.pages[id].status == pageCached && text.pages[id].lastAccess == now-back {
			text.pages[id].lastAccess = now
			m.large[text.view.LargeOf(id)].ts = now
			m.pushLargeCandidate(text.view.LargeOf(id))
		}
		recent[k%back] = ids[0]
		if q.base < base { // only a compaction rebases the ring (its pops only advance it)
			compactions++
		}

		vid, err := m.allocSmall(vision, req)
		if err != nil {
			t.Fatal(err)
		}
		m.pageRelease(vision, vid, false, now, false)
	}
	for i := 0; i < 8*largePages; i++ {
		cycle()
	}
	if len(q.run) != largePages-largePages/8 {
		t.Fatalf("after warm-up the ring has %d positions for %d slots, want it at its bound (seven eighths of them)", len(q.run), largePages)
	}
	before, compactions, sorted, queued := m.stats, 0, 0, 0
	allocs := testing.AllocsPerRun(4*largePages, cycle)
	if allocs != 0 {
		t.Fatalf("eviction cycle allocates %.2f objects per iteration, want 0", allocs)
	}
	evicted := m.stats.LargeEvictions - before.LargeEvictions
	reclaimed := m.stats.LargeReclaims - before.LargeReclaims
	if evicted < 4*largePages || reclaimed < 4*largePages {
		t.Fatalf("measured window evicted %d and reclaimed %d large pages, want one of each per iteration", evicted, reclaimed)
	}
	if compactions == 0 || sorted == 0 || queued < 4*largePages {
		t.Fatalf("measured window compacted the ring %d times, left %d batches of %d to sort and queued %d whole, want some, some and every one", compactions, sorted, batch, queued)
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
		{"page", unsafe.Sizeof(page{}), 16},
		{"pageRef", unsafe.Sizeof(pageRef{}), 4},
		{"assocLink", unsafe.Sizeof(assocLink{}), 16},
		{"largePage", unsafe.Sizeof(largePage{}), 16},
		{"pageEntry", unsafe.Sizeof(pageEntry{}), 24},
		{"largeEntry", unsafe.Sizeof(largeEntry{}), 16},
		{"largeSlot", unsafe.Sizeof(largeSlot(0)), 4},
		{"pageTie", unsafe.Sizeof(pageTie{}), 16},
		{"segment", unsafe.Sizeof(segment{}), 16},
	} {
		if c.got != c.want {
			t.Errorf("%s is %d bytes, want %d", c.name, c.got, c.want)
		}
	}
}

// TestPageMetadataBytes pins what the manager's construction costs per
// large page, in bytes allocated by New: page records, block hashes,
// prefix index, large-page records and the large-page queue's slots
// (and the first slab of head memos, a few KiB in all), with the prefix cache and request-aware placement on. The one-group
// text spec is fleet_stream's (two layers, ratio 1, 64 MiB: 16,384
// pages), whose ratio-1 group keeps no eviction priorities; churnSpec
// adds a ratio-4 group, which keeps free-stack links and priorities.
func TestPageMetadataBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation accounting is not meaningful under -short/-race runs")
	}
	text := &model.Spec{
		Name: "text", Params: 1_000_000, WeightBytes: 2, HiddenSize: 64,
		Groups: []model.KVGroup{
			{Name: "kv", Kind: model.FullAttention, Layers: 2, BytesPerToken: 128, Scope: model.ScopeText},
		},
	}
	for _, c := range []struct {
		name     string
		spec     *model.Spec
		tpp      int
		capacity int64
		limit    float64
	}{
		{"one-group text", text, 16, 64 << 20, 55},
		{"churn", churnSpec(), 4, 0, 305},
	} {
		t.Run(c.name, func(t *testing.T) {
			geo, err := c.spec.Geometry(c.tpp)
			if err != nil {
				t.Fatal(err)
			}
			capacity := cmp.Or(c.capacity, int64(16384*geo.LargePageBytes))
			best := uint64(math.MaxUint64)
			var m *Jenga
			for trial := 0; trial < 3; trial++ {
				var before, after runtime.MemStats
				procs := runtime.GOMAXPROCS(1)
				runtime.ReadMemStats(&before)
				m, err = New(Config{
					Spec: c.spec, CapacityBytes: capacity, TokensPerPage: c.tpp,
					EnablePrefixCache: true, RequestAware: true,
				})
				runtime.ReadMemStats(&after)
				runtime.GOMAXPROCS(procs)
				if err != nil {
					t.Fatal(err)
				}
				best = min(best, after.TotalAlloc-before.TotalAlloc)
			}
			n := m.ar.NumLargePages()
			if got := float64(best) / float64(n); got > c.limit {
				t.Errorf("New allocates %d bytes for %d large pages: %.1f per large page, want at most %.0f", best, n, got, c.limit)
			} else {
				t.Logf("%d bytes for %d large pages: %.1f per large page", best, n, got)
			}
		})
	}
}

// TestRequestStateBytes pins what a request over a borrowed head costs
// the manager's array slabs: N requests over one ~8k-token head, each
// with a tail of its own, are looked up, reserved and committed on
// gemma2-9b. The head's block hashes are carved once, for its memo, and
// each request carves its own blocks' entries at the next power of two,
// at least minHashArray. Its page tables cost four bytes an entry, one
// table per group: a full-attention table is sized for the whole
// sequence, as is the window table of the first request, which reserves
// its whole prompt before any block of it is demoted; every later
// request claims the head and starts its window table at the claim's
// first accessed block, sized for the window's blocks plus two.
func TestRequestStateBytes(t *testing.T) {
	const n, headLen, tailLen, tpp = 64, 8197, 48, 16
	m := newMgr(t, model.Gemma2_9B(), 8<<30, tpp, true)
	head := make([]Token, headLen)
	for i := range head {
		head[i] = TextToken(int32(i%50000 + 1))
	}
	for i := range n {
		s := &Sequence{ID: RequestID(i + 1), Shared: head, Tokens: make([]Token, tailLen)}
		for j := range s.Tokens {
			s.Tokens[j] = TextToken(int32(60000 + i*tailLen + j))
		}
		m.Lookup(s)
		if err := m.Reserve(s, s.Len(), Tick(i+1)); err != nil {
			t.Fatal(err)
		}
		m.Commit(s, s.Len(), Tick(i+1))
	}
	audit(t, m)
	window := 0
	for _, g := range m.groups {
		window = max(window, g.spec.Window)
	}
	pow2 := func(k int) int { return 1 << bits.Len(uint(k-1)) }
	headBlocks, blocks := headLen/tpp, (headLen+tailLen)/tpp
	if own := blocks - headBlocks; own > minHashArray || len(m.heads) != 1 || len(m.groups) != 2 || window == 0 {
		t.Fatalf("fixture: %d blocks past the head, %d memos, %d groups, window %d; want at most %d, 1, 2 and a window",
			own, len(m.heads), len(m.groups), window, minHashArray)
	}
	hashBytes, wantHash := m.hashSlab.carved*8, (pow2(headBlocks)+n*minHashArray)*8
	whole := pow2((headLen + tailLen + tpp - 1) / tpp)
	claimed := pow2(window/tpp + 2) // the claim itself holds window/tpp blocks
	tableBytes, wantTable := m.tableSlab.carved*int(unsafe.Sizeof(pageRef{})), (n*whole+whole+(n-1)*claimed)*4
	if hashBytes != wantHash || tableBytes != wantTable {
		t.Fatalf("carved %d bytes of block hashes and %d of page tables for %d requests, want %d and %d", hashBytes, tableBytes, n, wantHash, wantTable)
	}
	t.Logf("%d requests over a %d-token head: %d bytes of block hashes (%.0f a request) and %d of page tables (%.0f a request)",
		n, headLen, hashBytes, float64(hashBytes)/n, tableBytes, float64(tableBytes)/n)
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
	geo, err := spec.Geometry(4)
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
	kv := m.groups[m.groupIndex("kv")]
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
	geo, err := spec.Geometry(4)
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
				for _, l := range g.links {
					if l.prev != offStack {
						owners[l.req] = true
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
	tier := newHostTier(pages*pageBytes, pageBytes, []string{"a", "b"}, []int{3, 1})
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
			blocks[i] = hostBlock{priority: int64(k), filled: 4}
			if gi == 0 {
				blocks[i].data = payload
			}
		}
		if !tier.store(gi, blocks[:n], hashes[:n], now) {
			t.Fatal("store refused on an unpinned tier")
		}
		if hb, ok := tier.lookup(gi, hashes[0]); !ok || hb.priority != int64(k) {
			t.Fatalf("block %x not found where it was just stored", hashes[0])
		}
		p := tier.pin(gi, hashes[n-1])
		if b := tier.pinned(p); b != &tier.blocks[p.block] || tier.hash[p.block] != hashes[n-1] {
			t.Fatal("pin holds another block")
		}
		tier.unpin(&p)
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

// TestColdTierFillZeroAlloc: a fresh manager's tier allocates nothing as
// it fills and overflows — every table it will use was sized from the
// budget at New. Eviction spills the GPU's cached pages into an
// eight-page tier, past its budget, and an import of a donor tier's
// pages adds as many again; both overflow into budget evictions, with
// an observer attached. The counters are process-wide, so the smallest
// of three fresh fills is the fill's own cost.
func TestColdTierFillZeroAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation accounting is not meaningful under -short/-race runs")
	}
	spec := churnSpec()
	geo, err := spec.Geometry(4)
	if err != nil {
		t.Fatal(err)
	}
	const largePages, tierPages, prompts = 32, 8, 6
	mgr := func(tier int) *Jenga {
		m, err := New(Config{
			Spec: spec, CapacityBytes: int64(largePages * geo.LargePageBytes), TokensPerPage: 4,
			EnablePrefixCache: true, RequestAware: true,
			HostTierBytes: int64(tier * geo.LargePageBytes),
		})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	// cache commits n distinct 32-token prompts (two large pages of kv
	// blocks each) and releases them into the GPU cache, which holds
	// them all.
	cache := func(m *Jenga, first int) {
		for i := first; i < first+prompts; i++ {
			seq := &Sequence{ID: RequestID(i)}
			for j := 0; j < 32; j++ {
				seq.Tokens = append(seq.Tokens, Token{ID: int32(i*64 + j + 1)})
			}
			commitSeq(t, m, seq, Tick(i))
		}
	}
	best := uint64(math.MaxUint64)
	for trial := 0; trial < 3; trial++ {
		donor := mgr(4 * tierPages)
		held := newRecObs()
		donor.SetTierObserver(held)
		cache(donor, 1000)
		for donor.evictLargeLRU() {
		}
		hashes := held.hashes()
		slices.Sort(hashes)
		ps, ok := donor.ExportPrefix("kv", hashes)
		if !ok || ps.NumPages() <= tierPages {
			t.Fatalf("donor exports %d pages, want more than the %d-page tier", ps.NumPages(), tierPages)
		}

		m := mgr(tierPages)
		m.SetTierObserver(&nullObs{})
		cache(m, 1)
		var before, after runtime.MemStats
		procs := runtime.GOMAXPROCS(1)
		runtime.ReadMemStats(&before)
		for m.evictLargeLRU() {
		}
		imported, _ := m.ImportPrefix(ps, 100)
		runtime.ReadMemStats(&after)
		runtime.GOMAXPROCS(procs)
		best = min(best, after.Mallocs-before.Mallocs)

		st := m.TierStats()
		if st.SwapOuts <= tierPages || imported != ps.NumPages() || st.HostEvictions < st.SwapOuts+int64(imported)-tierPages || m.host.live != tierPages {
			t.Fatalf("fill spilled %d and imported %d pages into a %d-page tier, evicting %d (%d left): want both past the budget", st.SwapOuts, imported, tierPages, st.HostEvictions, m.host.live)
		}
		audit(t, m)
	}
	if best != 0 {
		t.Fatalf("a cold tier's fill past its budget allocated %d objects, want 0", best)
	}
}
