package core

import (
	"slices"

	"jenga/internal/arena"
)

// Host-memory KV tier (§8 direction: CachedAttention, Mooncake). The
// tier stores spilled large pages — the LCM granularity, uniform
// across layer types, exactly what OffloadOrder advertises as the
// transfer unit — under a byte budget. Spills happen on the eviction
// path (evictLargeLRU copies a victim page out before discarding it)
// and proactively on swap-based preemption (SwapOut); restores happen
// when a prefix Lookup hits a block whose only copy lives in the
// tier, at claim time.
//
// The tier is pure accounting plus metadata: each spilled large page
// records the block identities (hash, priority, fill) of its cached
// small pages, and — for backed arenas — the raw small page bytes, so
// tests can prove a spill/restore round trip is byte-exact. Everything
// is deterministic: spill order is the eviction order, tier eviction is
// oldest-touch-first with the spill sequence number as the tiebreak.
//
// Storage is a slot-addressed slab. Pages live by value in chunks of
// tierChunkPages that are added as the tier fills and never move, a
// dropped page's slot goes on a free list, and a page's block array —
// carved from chunked backing the same way — stays with its slot, as do
// the blocks' byte buffers, so the next page stored there reuses all of
// it. The index is one map per group *index*, block hash → (slot,
// position in the page's block array): lookup, pin, touchPage and
// resident are one integer-keyed map probe each, and a page moved in or
// out of a full tier allocates nothing. Slots are a dense ID space, so
// the eviction queue is slotted like the allocator's other two — one
// entry per live page, re-keyed in place by a touch — and the only
// allocations left are growth: a slab chunk, the queue's and the free
// list's arrays, the index maps. Nothing is sized by the byte budget up
// front.

// hostBlock is one spilled small page's identity and (for backed
// arenas) contents. Recency and expiry are deliberately not carried:
// a restored block is immediately claimed (used) by a request, and
// its eviction class is recomputed from scratch when that request's
// commit/release path demotes it — host-tier residence resets a
// block's eviction history just like a fresh commit would.
type hostBlock struct {
	hash     uint64
	priority int64
	filled   int32
	// data holds the small page's bytes (backed arenas only). Inside
	// the tier the buffer belongs to the slot and is overwritten by the
	// next page stored there.
	data []byte
}

// hostPage is one slab slot: a spilled large page — the tier's budget
// unit, accounted at one large page however many blocks it carries,
// because the transfer granularity is the whole page — or a free slot
// keeping its block array for the next store.
type hostPage struct {
	// seq is the spill sequence number, -1 on a free slot — unique, so
	// (touch, seq) is a total order and tier eviction is deterministic,
	// and a pin handle that outlived its page never matches the slot's
	// next tenant.
	seq int64
	// touch is the page's last access (restores refresh it).
	touch Tick
	group int32
	// pins counts in-flight restores reading the page; a pinned page is
	// never evicted: a restore allocates GPU pages, and that allocation
	// may itself spill (and therefore tier-evict) — it must not evict
	// its source.
	pins int32
	// exported is the tier's export generation at the page's last
	// visit by ExportPrefix: the per-call page dedup, without a set.
	exported int64
	// blocks are the cached small pages the large page held at spill
	// time (empty on a free slot; the capacity is the slot's).
	blocks []hostBlock
}

// TierStats is the host tier's counter snapshot, exposed through the
// TierManager capability so serving layers can report tier hit rates
// and transfer volumes.
type TierStats struct {
	// SwapOuts counts large pages spilled to the host tier; SwapIns
	// counts blocks restored from it.
	SwapOuts, SwapIns int64
	// SpilledBytes and RestoredBytes are the D2H and H2D transfer
	// volumes.
	SpilledBytes, RestoredBytes int64
	// RestoredTokens counts model-wide prefix tokens the tier served
	// beyond the GPU-only prefix (tokens saved from recompute).
	RestoredTokens int64
	// HostEvictions counts spilled pages the tier dropped to stay
	// within its byte budget.
	HostEvictions int64
	// HostUsed and HostCapacity are the tier's live byte accounting.
	HostUsed, HostCapacity int64
	// PeerExports/PeerImports count pages serialized out of and
	// injected into this tier by the fleet transfer path
	// (ExportPrefix/ImportPrefix); the byte counters are the
	// corresponding wire volumes. Peer traffic is deliberately kept
	// out of SwapOuts/SpilledBytes: it rides the peer link, not PCIe.
	PeerExports, PeerImports         int64
	PeerExportBytes, PeerImportBytes int64
	// PeerSkips and PeerFails count fleet fetch batches whose holder
	// contributed nothing to this (destination) tier: skipped — the
	// holder had nothing left to export by transfer time — or failed —
	// the transfer faulted past its retry budget. Recorded through
	// NotePeerFetch so partial fetches are observable, never silent.
	PeerSkips, PeerFails int64
}

// Slab growth units: pages per slab chunk, and blocks per chunk of the
// backing the slots' block arrays are carved from.
const (
	tierChunkPages  = 256
	tierChunkBlocks = 1024
)

// tierRef locates one indexed block: its page's slot and its position
// in that page's block array.
type tierRef struct{ slot, pos int32 }

// tierPin is the handle pin returns and unpin takes: the pinned block's
// place (slot -1: the hash was not resident, nothing is pinned) and the
// sequence number of the page pinned there.
type tierPin struct {
	tierRef
	seq int64
}

// hostTier is the byte-budgeted second memory tier.
type hostTier struct {
	capacity  int64
	pageBytes int64 // large-page size: the budget and transfer unit
	used      int64
	nextSeq   int64
	exportGen int64 // ExportPrefix calls so far (hostPage.exported)
	// names are the group names by group index, for the observer.
	names []string
	// chunks is the page slab: slot s is chunks[s/tierChunkPages]
	// [s%tierChunkPages]. free lists the slots no live page occupies
	// and live counts the ones one does.
	chunks [][]hostPage
	free   []int32
	live   int
	// blockBacking is the uncarved rest of the newest block chunk.
	blockBacking []hostBlock
	// index maps, per group index, block hash → the block's place. A
	// re-spill of the same hash repoints the entry; the older page's
	// copy becomes unreachable and dies with its page.
	index []map[uint64]tierRef
	// evict orders the live pages by (touch, seq), slotted by slab
	// slot: exactly one entry per live page.
	evict evictQueue[hostEvictEntry]
	// Scratch: evictOne's pinned candidates, and the hash list handed
	// to the observer (which must not retain it).
	stash  []hostEvictEntry
	hashes []uint64
	stats  TierStats
	// obs, when set, is notified of every content change: block hashes
	// entering the tier (store) and leaving it (dropPage). The fleet
	// directory registers and invalidates through these callbacks; nil
	// (the default) costs nothing.
	obs TierObserver
}

// hostEvictEntry is one live page's (touch, seq) key in the eviction
// queue; id is its slab slot.
type hostEvictEntry struct {
	touch Tick
	seq   int64
	id    int32
}

// before is (touch, seq) ascending — the seq tiebreak makes the order
// total, so tier eviction is deterministic.
func (a hostEvictEntry) before(b hostEvictEntry) bool {
	if a.touch != b.touch {
		return a.touch < b.touch
	}
	return a.seq < b.seq
}

func (a hostEvictEntry) slot() int { return int(a.id) }

// newHostTier builds a tier with the given byte budget over the named
// groups. A budget below one large page can never hold a spill:
// hasRoomEver is false and every caller treats the tier as absent.
func newHostTier(capacity int64, pageBytes int, groups []string) *hostTier {
	h := &hostTier{
		capacity:  capacity,
		pageBytes: int64(pageBytes),
		names:     groups,
		index:     make([]map[uint64]tierRef, len(groups)),
		stats:     TierStats{HostCapacity: capacity},
	}
	for gi := range h.index {
		h.index[gi] = make(map[uint64]tierRef)
	}
	h.evict.initSlots(0, hostEvictEntry.slot)
	return h
}

// hasRoomEver reports whether the budget admits even one page.
func (h *hostTier) hasRoomEver() bool { return h.capacity >= h.pageBytes }

// page returns slot's page; the pointer stays valid for the tier's
// lifetime (chunks never move).
func (h *hostTier) page(slot int32) *hostPage {
	return &h.chunks[slot/tierChunkPages][slot%tierChunkPages]
}

// lookup returns the tier's live copy of (group gi, hash), if any.
//
//jenga:hotpath
func (h *hostTier) lookup(gi int, hash uint64) (*hostBlock, bool) {
	ref, ok := h.index[gi][hash]
	if !ok {
		return nil, false
	}
	return &h.page(ref.slot).blocks[ref.pos], true
}

// groupSize returns the number of live indexed blocks for a group.
func (h *hostTier) groupSize(gi int) int { return len(h.index[gi]) }

// pin marks the page owning (group gi, hash) as un-evictable for the
// duration of a restore and returns its handle (slot -1 when the hash
// is not resident). Pins nest.
//
//jenga:hotpath
func (h *hostTier) pin(gi int, hash uint64) tierPin {
	ref, ok := h.index[gi][hash]
	if !ok {
		return tierPin{tierRef: tierRef{slot: -1}}
	}
	pg := h.page(ref.slot)
	pg.pins++
	return tierPin{tierRef: ref, seq: pg.seq}
}

// pinned returns the block a live pin holds. A later spill may repoint
// the hash at a newer, unpinned copy; the restore reads the copy it
// pinned, which cannot be evicted or its slot reused under it.
//
//jenga:hotpath
func (h *hostTier) pinned(p tierPin) *hostBlock {
	if p.slot < 0 {
		check(false, "host tier: reading through a pin that holds nothing")
	}
	pg := h.page(p.slot)
	if pg.seq != p.seq || pg.pins == 0 {
		check(false, "host tier: slot %d is not pinned by page %d", p.slot, p.seq)
	}
	return &pg.blocks[p.pos]
}

// unpin releases one pin. A handle for a hash that was not resident, or
// whose page has since left the slot (the sequence number no longer
// matches), releases nothing.
//
//jenga:hotpath
func (h *hostTier) unpin(p tierPin) {
	if p.slot < 0 {
		return
	}
	if pg := h.page(p.slot); pg.seq == p.seq && pg.pins > 0 {
		pg.pins--
	}
}

// spill stores one large page's cached blocks as a new host page,
// evicting the least-recently-touched unpinned pages as needed to
// stay within budget. It reports whether the page was stored (false
// when the budget can never fit it, or when pins block every
// eviction candidate).
//
//jenga:hotpath
func (h *hostTier) spill(gi int, blocks []hostBlock, now Tick) bool {
	if !h.store(gi, blocks, now) {
		return false
	}
	h.stats.SwapOuts++
	h.stats.SpilledBytes += h.pageBytes
	return true
}

// store is the common page-admission path behind the D2H spill and the
// fleet import: budget eviction, indexing, recency, observer
// registration — everything except the transfer-direction accounting,
// which the two callers charge differently. blocks is copied, bytes
// included, into the slot's own arrays, so callers may build it in
// scratch and point its data at memory they do not own.
//
//jenga:hotpath
func (h *hostTier) store(gi int, blocks []hostBlock, now Tick) bool {
	if !h.hasRoomEver() || len(blocks) == 0 {
		return false
	}
	for h.used+h.pageBytes > h.capacity {
		if !h.evictOne() {
			return false
		}
	}
	slot := h.takeSlot()
	pg := h.page(slot)
	pg.seq, pg.touch, pg.group, pg.pins = h.nextSeq, now, int32(gi), 0
	h.nextSeq++
	pg.blocks = h.blockArray(pg.blocks, len(blocks))
	idx := h.index[gi]
	hashes := h.hashes[:0]
	for i := range blocks {
		b, src := &pg.blocks[i], &blocks[i]
		b.hash, b.priority, b.filled = src.hash, src.priority, src.filled
		b.data = append(b.data[:0], src.data...)
		idx[b.hash] = tierRef{slot: slot, pos: int32(i)}
		if h.obs != nil {
			hashes = append(hashes, b.hash)
		}
	}
	h.hashes = hashes
	h.evict.push(hostEvictEntry{touch: now, seq: pg.seq, id: slot})
	h.live++
	h.used += h.pageBytes
	h.stats.HostUsed = h.used
	if h.obs != nil {
		h.obs.TierStored(h.names[gi], hashes)
	}
	return true
}

// takeSlot returns a free slot, growing the slab (and the eviction
// queue's slot space with it) by one chunk when none is left.
//
//jenga:hotpath
func (h *hostTier) takeSlot() int32 {
	if n := len(h.free); n > 0 {
		slot := h.free[n-1]
		h.free = h.free[:n-1]
		return slot
	}
	base := int32(len(h.chunks) * tierChunkPages)
	//jenga:alloc-ok slab growth: one chunk per tierChunkPages pages of tier high-water, never per page
	chunk := make([]hostPage, tierChunkPages)
	for i := range chunk {
		chunk[i].seq = -1
	}
	h.chunks = append(h.chunks, chunk)
	h.evict.growSlots(int(base) + tierChunkPages)
	for s := base + tierChunkPages - 1; s > base; s-- {
		h.free = append(h.free, s)
	}
	return base
}

// blockArray returns an n-block array for a slot whose current array
// is old: old itself when it is big enough — its blocks' byte buffers
// come with it — and a fresh carve from the chunked backing otherwise.
// Slots are reused across groups with different small-page ratios, so a
// slot's array settles at the largest it has needed.
//
//jenga:hotpath
func (h *hostTier) blockArray(old []hostBlock, n int) []hostBlock {
	if cap(old) >= n {
		return old[:n]
	}
	if len(h.blockBacking) < n {
		//jenga:alloc-ok slab growth: one chunk per tierChunkBlocks blocks of tier high-water, never per page
		h.blockBacking = make([]hostBlock, max(n, tierChunkBlocks))
	}
	arr := h.blockBacking[:n:n]
	h.blockBacking = h.blockBacking[n:]
	return arr
}

// resident reports whether every hash in hs is live in the tier —
// the dedup check that makes spill-on-evict free for pages whose
// bytes already moved to host at swap-out time.
//
//jenga:hotpath
func (h *hostTier) resident(gi int, hs []uint64) bool {
	idx := h.index[gi]
	for _, hash := range hs {
		if _, ok := idx[hash]; !ok {
			return false
		}
	}
	return true
}

// touchPage refreshes the owning page's last access (restore hits),
// re-keying its queue entry in place.
//
//jenga:hotpath
func (h *hostTier) touchPage(gi int, hash uint64, now Tick) {
	if ref, ok := h.index[gi][hash]; ok {
		if pg := h.page(ref.slot); pg.touch < now {
			pg.touch = now
			h.evict.push(hostEvictEntry{touch: now, seq: pg.seq, id: ref.slot})
		}
	}
}

// evictOne drops the least-recently-touched unpinned page (spill
// sequence breaks ties), reporting whether anything was dropped.
// Pinned candidates are stashed and re-queued so a pin never loses a
// page its position in the order.
//
//jenga:hotpath
func (h *hostTier) evictOne() bool {
	stash := h.stash[:0]
	dropped := false
	for h.evict.len() > 0 {
		e := h.evict.pop()
		if h.page(e.id).pins > 0 {
			stash = append(stash, e)
			continue
		}
		h.dropPage(e.id)
		h.stats.HostEvictions++
		dropped = true
		break
	}
	for _, s := range stash {
		h.evict.push(s)
	}
	h.stash = stash
	return dropped
}

// dropPage frees slot's page — already off the eviction queue —
// deleting only the index entries that still point at it (a later
// re-spill may have repointed some). The observer hears exactly the
// hashes whose live copy died — repointed hashes are still resident and
// stay registered.
//
//jenga:hotpath
func (h *hostTier) dropPage(slot int32) {
	pg := h.page(slot)
	idx := h.index[pg.group]
	gone := h.hashes[:0]
	for i := range pg.blocks {
		hash := pg.blocks[i].hash
		if ref, ok := idx[hash]; ok && ref.slot == slot {
			delete(idx, hash)
			if h.obs != nil {
				gone = append(gone, hash)
			}
		}
	}
	h.hashes = gone
	pg.seq = -1
	pg.blocks = pg.blocks[:0]
	h.free = append(h.free, slot)
	h.live--
	h.used -= h.pageBytes
	h.stats.HostUsed = h.used
	if len(gone) > 0 {
		h.obs.TierEvicted(h.names[pg.group], gone)
	}
}

// --- Jenga integration ---------------------------------------------------

// TierManager is the optional Manager capability a host-tiered
// manager exposes to the serving engine: swap-based preemption,
// per-step transfer draining for the PCIe cost term, and tier
// statistics for reports. core.Jenga implements it; the baselines do
// not, and the engine degrades to recompute preemption for them.
type TierManager interface {
	// SwapOut releases the sequence cache-preservingly and proactively
	// spills its fully evictable large pages to the host tier,
	// returning the pages and bytes moved (zero with no tier).
	SwapOut(seq *Sequence) (pages int, bytes int64)
	// DrainTransfers returns and resets the H2D/D2H bytes moved since
	// the previous drain — the engine charges them to the step's PCIe
	// budget.
	DrainTransfers() (h2d, d2h int64)
	// TierStats snapshots the tier's counters.
	TierStats() TierStats
	// RestoreCost returns the host-restore share of the sequence's
	// prefix claim: tokens and bytes served from the tier (zero when
	// the claim was GPU-only or no claim happened).
	RestoreCost(seq *Sequence) (tokens int, bytes int64)

	// The fleet transfer surface (see fleet.go): serializing tier
	// pages out for a peer, injecting a peer's pages, the
	// peer-extended prefix lookup, and the content-change observer the
	// fleet directory registers through.
	ExportPrefix(group string, hashes []uint64) (PageSet, bool)
	ImportPrefix(ps PageSet, now Tick) (pages int, bytes int64)
	LookupFleet(seq *Sequence, peer PeerPresence) (p int, fetch []FetchBlock)
	SetTierObserver(obs TierObserver)
}

var _ TierManager = (*Jenga)(nil)

// TierStats implements TierManager.
func (m *Jenga) TierStats() TierStats {
	if m.host == nil {
		return TierStats{}
	}
	return m.host.stats
}

// DrainTransfers implements TierManager.
func (m *Jenga) DrainTransfers() (h2d, d2h int64) {
	h2d, d2h = m.pendingH2D, m.pendingD2H
	m.pendingH2D, m.pendingD2H = 0, 0
	return h2d, d2h
}

// RestoreCost implements TierManager.
func (m *Jenga) RestoreCost(seq *Sequence) (int, int64) {
	if r, ok := m.reqs[seq.ID]; ok {
		return r.restoredTokens, r.restoredBytes
	}
	return 0, 0
}

// SwapOut implements TierManager: the swap-preemption primitive. The
// sequence's pages are released cache-preservingly (publishing every
// complete block, exactly like Release(seq, true)), and each large
// page that thereby became fully evictable is copied out to the host
// tier — so even if memory pressure later evicts those pages, the
// preempted request restores from host instead of recomputing. With
// no tier (or no prefix cache), SwapOut degrades to the plain
// cache-preserving release.
func (m *Jenga) SwapOut(seq *Sequence) (int, int64) {
	r, ok := m.reqs[seq.ID]
	if !ok {
		return 0, 0
	}
	var candidates []arena.LargePageID
	if m.host != nil && m.host.hasRoomEver() && m.cfg.EnablePrefixCache {
		candidates = m.heldLargePages(r)
	}
	now := r.lastNow // Release recycles r
	m.Release(seq, true)
	pages, bytes := 0, int64(0)
	for _, L := range candidates {
		if m.spillLarge(L, now) {
			pages++
			bytes += int64(m.geo.LargePageBytes)
		}
	}
	return pages, bytes
}

// heldLargePages collects, in ascending order, the distinct large
// pages holding any page the request currently references. The result
// is scratch, valid until the next call.
func (m *Jenga) heldLargePages(r *reqState) []arena.LargePageID {
	out := m.tierLarge[:0]
	for gi, g := range m.groups {
		rg := &r.g[gi]
		for _, refs := range [2][]pageRef{rg.pages, rg.ckpts} {
			for _, ref := range refs {
				if ref.held {
					out = append(out, m.largeOf(g, ref.id))
				}
			}
		}
	}
	slices.Sort(out)
	out = slices.Compact(out)
	m.tierLarge = out
	return out
}

// spillLarge copies large page L's cached blocks into the host tier
// (without evicting them from the GPU), reporting whether a transfer
// happened. The page must be fully evictable — any used page on it
// means an in-flight request still references it, and spilling would
// race that commit, so such pages are skipped. Pages whose blocks
// are all already host-resident cost nothing (the swap-out already
// moved them).
//
//jenga:hotpath
func (m *Jenga) spillLarge(L arena.LargePageID, now Tick) bool {
	if m.host == nil || !m.host.hasRoomEver() {
		return false
	}
	if m.largeOwner[L] < 0 || m.cntUsed[L] != 0 || m.cntCached[L] == 0 {
		return false
	}
	g := m.groups[m.largeOwner[L]]
	first, n := g.view.SmallRange(L)
	blocks, hashes := m.tierBlocks[:0], m.tierHashes[:0]
	for i := 0; i < n; i++ {
		id := first + arena.SmallPageID(i)
		pg := &g.pages[id]
		if pg.status != pageCached || !pg.hashed {
			continue
		}
		hb := hostBlock{
			hash:     pg.hash,
			priority: pg.priority,
			filled:   pg.filled,
		}
		if m.ar.Backed() {
			// The tier copies the bytes into the slot it stores them in.
			if buf, err := g.view.SmallSlice(id); err == nil {
				hb.data = buf
			}
		}
		blocks = append(blocks, hb)
		hashes = append(hashes, pg.hash)
	}
	m.tierBlocks, m.tierHashes = blocks, hashes
	if len(blocks) == 0 {
		return false
	}
	if m.host.resident(g.idx, hashes) {
		// Dedup: the bytes already live in the tier (a swap-out beat
		// the evictor here); just refresh recency.
		m.host.touchPage(g.idx, hashes[0], now)
		return false
	}
	if !m.host.spill(g.idx, blocks, now) {
		return false
	}
	m.stats.SwapOuts++
	m.pendingD2H += int64(m.geo.LargePageBytes)
	return true
}

// restoreBlock allocates a GPU page for a host-resident block and
// rebuilds it as a committed, published block owned by req (claim's
// H2D path). The source host page must be pinned by the caller; the
// host copy stays (the tier is a cache), which is what keeps hb — a
// view of the tier's own block — valid across the allocation. Returns
// the page and whether the GPU allocation succeeded.
//
//jenga:hotpath
func (m *Jenga) restoreBlock(g *group, hb *hostBlock, hash uint64, req RequestID, now Tick) (arena.SmallPageID, bool) {
	id, err := m.allocSmall(g, req)
	if err != nil {
		return 0, false
	}
	pg := &g.pages[id]
	pg.filled = hb.filled
	g.filledSlots += int64(hb.filled)
	pg.hash = hash
	pg.complete = true
	pg.priority = hb.priority
	pg.lastAccess = now
	m.publish(g, id)
	if m.ar.Backed() && len(hb.data) > 0 {
		if buf, err := g.view.SmallSlice(id); err == nil {
			copy(buf, hb.data)
		}
	}
	m.host.touchPage(g.idx, hash, now)
	m.host.stats.SwapIns++
	m.host.stats.RestoredBytes += int64(g.smallBytes)
	m.stats.SwapIns++
	m.pendingH2D += int64(g.smallBytes)
	return id, true
}
