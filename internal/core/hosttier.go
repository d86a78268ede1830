package core

import (
	"cmp"
	"slices"

	"jenga/internal/arena"
	"jenga/internal/debug"
)

// Host-memory KV tier (§8 direction: CachedAttention, Mooncake). The
// tier stores spilled large pages — the LCM granularity, uniform
// across layer types, so one transfer unit serves every group — under
// a byte budget. Spills happen on the eviction path (evictLargeLRU
// copies a victim page out before discarding it) and proactively on
// swap-based preemption (SwapOut); restores happen when a prefix Lookup
// hits a block whose only copy lives in the tier, at claim time.
//
// The tier is pure accounting plus metadata: each spilled large page
// records the block identities (hash, priority, fill) of its cached
// small pages, and — for backed arenas — the raw small page bytes, so
// tests can prove a spill/restore round trip is byte-exact. Everything
// is deterministic: spill order is the eviction order, tier eviction is
// oldest-touch-first with the spill sequence number as the tiebreak.
//
// Everything is sized by the byte budget up front. The budget holds at
// most HostTierBytes / LargePageBytes pages, and newHostTier allocates,
// once, all the tier will ever use: a page record per slot, a block
// array per slot as long as the largest small-page ratio (slot s's
// blocks are blocks[s·stride:], so a block's ID is s·stride + its
// position, and its hash is hash[ID]), the eviction queue's slots and
// heap, one index per group, and the scratch of the spill, import,
// export, fleet-lookup and swap-out paths. The index is a pageIndex
// over the block hashes — an open-addressed table of block IDs, at most
// half full, whose keys are read from the blocks' own hash array — so
// lookup, pin, touchPage and resident are one short integer probe each,
// and no Go map is left on the tier path. Slots are handed out
// lowest-unused first and reused last-in-first-out, and the slotted
// queue holds one entry per live page, re-keyed in place by a touch.
//
// The reason is the rule the GPU pages already follow: a tier under
// pressure turns pages over at the eviction rate, and anything that
// grows there — map buckets, slab chunks, scratch — is garbage made in
// the middle of serving. The cost is paid at New whether or not the
// tier ever fills: ~100 bytes a slot, ~130 a block and 8–16 a block per
// group's index (a 2 GiB tier of gemma-2-2b's 832 KiB pages is 2,520
// slots of one block, 0.66 MiB), and Config.Validate refuses a budget
// whose block IDs would not fit an int32. Only a backed arena's byte
// buffers still grow, one per block on its first use, and stay with the
// block.

// hostBlock is one spilled small page's identity — with its hash, kept
// beside it (hostTier.hash) — and (for backed arenas) contents.
// Recency and expiry are deliberately not carried:
// a restored block is immediately claimed (used) by a request, and
// its eviction class is recomputed from scratch when that request's
// commit/release path demotes it — host-tier residence resets a
// block's eviction history just like a fresh commit would.
type hostBlock struct {
	priority int64
	filled   int32
	// superseded marks a block whose hash a later store took over: its
	// index entry moved to the newer copy, and the block stays
	// unreachable for the rest of its page's life.
	superseded bool
	// data holds the small page's bytes (backed arenas only). Inside
	// the tier the buffer belongs to the block and is overwritten by
	// the next page stored there.
	data []byte
}

// hostPage is one slot's record: a spilled large page — the tier's
// budget unit, accounted at one large page however many blocks it
// carries, because the transfer granularity is the whole page — or a
// free slot.
type hostPage struct {
	// seq is the spill sequence number, -1 on a free slot — unique, so
	// (touch, seq) is a total order and tier eviction is deterministic,
	// and a pin handle that outlived its page never matches the slot's
	// next tenant.
	seq int64
	// touch is the page's last access (restores refresh it).
	touch Tick
	// exported is the tier's export generation at the page's last
	// visit by ExportPrefix: the per-call page dedup, without a set.
	exported int64
	group    int32
	// pins counts in-flight restores reading the page; a pinned page is
	// never evicted: a restore allocates GPU pages, and that allocation
	// may itself spill (and therefore tier-evict) — it must not evict
	// its source.
	pins int32
	// n is the number of cached small pages the large page held at
	// spill time: the slot's first n blocks (0 on a free slot).
	n int32
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

// tierPin is the handle pin returns and unpin takes: the pinned block's
// ID (-1: the hash was not resident, nothing is pinned; pinPoison: a
// jengadebug build's released handle) and the sequence number of the
// page holding it.
type tierPin struct {
	block int32
	seq   int64
}

// pinPoison is the block a jengadebug build scribbles into a handle
// unpin released: pinned panics on it even while another pin holds the
// page, and unpin releases nothing through it.
const pinPoison int32 = -0x5EED

// hostTier is the byte-budgeted second memory tier.
type hostTier struct {
	capacity  int64
	pageBytes int64 // large-page size: the budget and transfer unit
	used      int64
	nextSeq   int64
	exportGen int64 // ExportPrefix calls so far (hostPage.exported)
	// names are the group names by group index, for the observer, and
	// ratios the most blocks a page of each group holds (its small pages
	// per large page); stride, the largest, is every slot's block count.
	names  []string
	ratios []int32
	stride int32
	// pages holds a record per slot, blocks and hash stride blocks and
	// their hashes per slot. Slots below fresh have held a page; free
	// stacks the ones no live page occupies now, and live counts the
	// ones one does.
	pages  []hostPage
	blocks []hostBlock
	hash   []uint64
	fresh  int32
	free   []int32
	live   int
	// index maps, per group index, block hash → the live block holding
	// it. A re-spill of the same hash repoints the entry; the older
	// page's copy becomes unreachable and dies with its page.
	index []pageIndex[int32]
	// evict orders the live pages by (touch, seq), slotted by slot:
	// exactly one entry per live page.
	evict evictQueue[hostEvictEntry, hostTie]
	// Scratch: evictOne's pinned candidates; the hash list handed to the
	// observer (which must not retain it); one page's blocks and hashes
	// (spillLarge and ImportPrefix — store copies what it keeps; the
	// hashes are the blocks' keys, in order);
	// SwapOut's candidate pages; the page set ExportPrefix hands out
	// (valid until the next export) and LookupFleet's fetch list (valid
	// until the next lookup).
	stash        []hostEvictEntry
	notify       []uint64
	pageBlocks   []hostBlock
	pageHashes   []uint64
	swapLarge    []arena.LargePageID
	exportBlocks []PageBlock
	exportEnds   []int
	fetch        []FetchBlock
	stats        TierStats
	// obs, when set, is notified of every content change: block hashes
	// entering the tier (store) and leaving it (dropPage). The fleet
	// directory registers and invalidates through these callbacks; nil
	// (the default) costs nothing.
	obs TierObserver
}

// hostEvictEntry is one live page's (touch, seq) key in the eviction
// queue; id is its slot.
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

func (a hostEvictEntry) key() evictKey { return evictKey{tick: a.touch} }

func (a hostEvictEntry) tie() hostTie { return hostTie{seq: a.seq, id: a.id} }

// hostTie is what a run would keep of a hostEvictEntry; the tier's
// queue is heap-only (newHostTier).
type hostTie struct {
	seq int64
	id  int32
}

func (a hostTie) cmp(b hostTie) int { return cmp.Compare(a.seq, b.seq) }

func (a hostTie) slot() int { return int(a.id) }

func (a hostTie) entry(k evictKey) hostEvictEntry {
	return hostEvictEntry{touch: k.tick, seq: a.seq, id: a.id}
}

// tierSlots is how many pages a budget can hold at once. The caller
// keeps slots × the largest ratio within int32 (Config.Validate).
func tierSlots(capacity int64, pageBytes int) int64 {
	return max(capacity, 0) / int64(pageBytes)
}

// newHostTier builds a tier with the given byte budget over the named
// groups, whose pages hold at most ratios[gi] blocks each, with every
// table sized for the budget. New builds none for a budget below one
// large page, so a manager's tier, where it has one, holds at least one
// page.
func newHostTier(capacity int64, pageBytes int, groups []string, ratios []int) *hostTier {
	slots := int(tierSlots(capacity, pageBytes))
	h := &hostTier{
		capacity:  capacity,
		pageBytes: int64(pageBytes),
		names:     groups,
		ratios:    make([]int32, len(groups)),
		pages:     make([]hostPage, slots),
		free:      make([]int32, 0, slots),
		index:     make([]pageIndex[int32], len(groups)),
	}
	for gi, r := range ratios {
		h.ratios[gi] = int32(r)
		h.stride = max(h.stride, int32(r))
	}
	blocks := slots * int(h.stride)
	h.blocks = make([]hostBlock, blocks)
	h.hash = make([]uint64, blocks)
	for s := range h.pages {
		h.pages[s].seq = -1
	}
	for gi := range h.index {
		h.index[gi].init(h.hash, slots*ratios[gi])
	}
	h.evict.initSlots(slots, slots)
	h.stash = make([]hostEvictEntry, 0, slots)
	h.notify = make([]uint64, 0, h.stride)
	h.pageBlocks = make([]hostBlock, 0, h.stride)
	h.pageHashes = make([]uint64, 0, h.stride)
	h.swapLarge = make([]arena.LargePageID, 0, blocks)
	h.exportBlocks = make([]PageBlock, 0, blocks)
	h.exportEnds = make([]int, 0, slots)
	h.fetch = make([]FetchBlock, 0, blocks)
	return h
}

// clear empties the tier in place, back to the state newHostTier
// builds, in the tables it made: every page, pin and index entry
// dropped, counters and scratch reset, the observer detached.
func (h *hostTier) clear() {
	*h = hostTier{
		capacity: h.capacity, pageBytes: h.pageBytes, names: h.names, ratios: h.ratios, stride: h.stride,
		pages: h.pages, blocks: h.blocks, hash: h.hash, free: h.free[:0], index: h.index, evict: h.evict,
		stash: h.stash[:0], notify: h.notify[:0], pageBlocks: h.pageBlocks[:0], pageHashes: h.pageHashes[:0],
		swapLarge: h.swapLarge[:0], exportBlocks: h.exportBlocks[:0], exportEnds: h.exportEnds[:0], fetch: h.fetch[:0],
	}
	for s := range h.pages {
		h.pages[s] = hostPage{seq: -1}
	}
	clear(h.blocks)
	clear(h.hash)
	for gi := range h.index {
		h.index[gi].clear()
	}
	h.evict.clear()
}

// blockRange returns the IDs of slot's page's blocks, [first, end).
func (h *hostTier) blockRange(slot int32) (first, end int32) {
	first = slot * h.stride
	return first, first + h.pages[slot].n
}

// pageOf returns the page holding block id.
func (h *hostTier) pageOf(id int32) *hostPage { return &h.pages[id/h.stride] }

// lookup returns the tier's live copy of (group gi, hash), if any.
//
//jenga:hotpath
func (h *hostTier) lookup(gi int, hash uint64) (*hostBlock, bool) {
	id, ok := h.index[gi].get(hash)
	if !ok {
		return nil, false
	}
	return &h.blocks[id], true
}

// groupSize returns the number of live indexed blocks for a group.
func (h *hostTier) groupSize(gi int) int { return h.index[gi].len() }

// pin marks the page owning (group gi, hash) as un-evictable for the
// duration of a restore and returns its handle (block -1 when the hash
// is not resident). Pins nest.
//
//jenga:hotpath
func (h *hostTier) pin(gi int, hash uint64) tierPin {
	id, ok := h.index[gi].get(hash)
	if !ok {
		return tierPin{block: -1}
	}
	pg := h.pageOf(id)
	pg.pins++
	return tierPin{block: id, seq: pg.seq}
}

// pinned returns the block a live pin holds. A later spill may repoint
// the hash at a newer, unpinned copy; the restore reads the copy it
// pinned, which cannot be evicted or its slot reused under it.
//
//jenga:hotpath
func (h *hostTier) pinned(p tierPin) *hostBlock {
	if p.block == pinPoison {
		check(false, "host tier: reading through a released pin")
	}
	if p.block < 0 {
		check(false, "host tier: reading through a pin that holds nothing")
	}
	if pg := h.pageOf(p.block); pg.seq != p.seq || pg.pins == 0 {
		check(false, "host tier: block %d is not pinned by page %d", p.block, p.seq)
	}
	return &h.blocks[p.block]
}

// unpin releases one pin. A handle for a hash that was not resident, or
// whose page has since left the slot (the sequence number no longer
// matches), releases nothing. A jengadebug build scribbles the handle
// (pinPoison), so a read through it after its release panics.
//
//jenga:hotpath
func (h *hostTier) unpin(p *tierPin) {
	if p.block >= 0 {
		if pg := h.pageOf(p.block); pg.seq == p.seq && pg.pins > 0 {
			pg.pins--
		}
	}
	if debug.On {
		*p = tierPin{block: pinPoison, seq: -1}
	}
}

// admit is the one way a page enters the tier, behind the D2H spill
// and the fleet import: a page whose blocks are all resident already is
// only touched (stored=false, ok=true), and any other goes to store
// (stored=ok=whether store took it).
//
//jenga:hotpath
func (h *hostTier) admit(gi int, blocks []hostBlock, hashes []uint64, now Tick) (stored, ok bool) {
	if h.resident(gi, hashes) {
		h.touchPage(gi, hashes[0], now)
		return false, true
	}
	stored = h.store(gi, blocks, hashes, now)
	return stored, stored
}

// store is admit's primitive for a page not yet resident: budget
// eviction, indexing, recency, observer registration — everything
// except the transfer-direction accounting, which admit's two callers
// charge differently. It reports false when the budget can never fit
// the page, or when pins block every eviction candidate. blocks and
// their hashes are copied, bytes included, into the slot's own blocks,
// so callers may build them in scratch and point their data at memory
// they do not own. A page of more blocks than its group's ratio — a
// peer of another geometry — is refused.
//
//jenga:hotpath
func (h *hostTier) store(gi int, blocks []hostBlock, hashes []uint64, now Tick) bool {
	if len(blocks) == 0 || len(blocks) > int(h.ratios[gi]) {
		return false
	}
	for h.used+h.pageBytes > h.capacity {
		if !h.evictOne() {
			return false
		}
	}
	if debug.On {
		h.scribbleExport()
	}
	slot := h.takeSlot()
	pg := &h.pages[slot]
	pg.seq, pg.touch, pg.group, pg.pins, pg.n = h.nextSeq, now, int32(gi), 0, int32(len(blocks))
	h.nextSeq++
	idx := &h.index[gi]
	base := slot * h.stride
	for i := range blocks {
		id := base + int32(i)
		b, src := &h.blocks[id], &blocks[i]
		b.priority, b.filled, b.superseded = src.priority, src.filled, false
		b.data = append(b.data[:0], src.data...)
		h.hash[id] = hashes[i]
		if prev, took := idx.set(id); took {
			h.blocks[prev].superseded = true
		}
	}
	h.evict.push(hostEvictEntry{touch: now, seq: pg.seq, id: slot})
	h.live++
	h.used += h.pageBytes
	if h.obs != nil {
		h.obs.TierStored(h.names[gi], h.hash[base:base+pg.n])
	}
	return true
}

// takeSlot returns the most recently freed slot, or the lowest one that
// never held a page. The budget check before it guarantees there is one.
//
//jenga:hotpath
func (h *hostTier) takeSlot() int32 {
	if n := len(h.free); n > 0 {
		slot := h.free[n-1]
		h.free = h.free[:n-1]
		return slot
	}
	h.fresh++
	return h.fresh - 1
}

// resident reports whether every hash in hs is live in the tier —
// the dedup check that makes spill-on-evict free for pages whose
// bytes already moved to host at swap-out time.
//
//jenga:hotpath
func (h *hostTier) resident(gi int, hs []uint64) bool {
	idx := &h.index[gi]
	for _, hash := range hs {
		if _, ok := idx.get(hash); !ok {
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
	if id, ok := h.index[gi].get(hash); ok {
		if pg := h.pageOf(id); pg.touch < now {
			pg.touch = now
			h.evict.push(hostEvictEntry{touch: now, seq: pg.seq, id: id / h.stride})
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
		if h.pages[e.id].pins > 0 {
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
// deleting only the index entries that still name its blocks (a later
// re-spill may have repointed some). The observer hears exactly the
// hashes whose live copy died — repointed hashes are still resident and
// stay registered.
//
//jenga:hotpath
func (h *hostTier) dropPage(slot int32) {
	if debug.On {
		h.scribbleExport()
	}
	pg := &h.pages[slot]
	idx := &h.index[pg.group]
	gone := h.notify[:0]
	for id, end := h.blockRange(slot); id < end; id++ {
		if idx.drop(id) && h.obs != nil {
			gone = append(gone, h.hash[id])
		}
	}
	h.notify = gone
	pg.seq, pg.n = -1, 0
	h.free = append(h.free, slot)
	h.live--
	h.used -= h.pageBytes
	if len(gone) > 0 {
		h.obs.TierEvicted(h.names[pg.group], gone)
	}
}

// pageSetPoison is what a void page set's ends and fills read as in a
// jengadebug build.
const pageSetPoison = -0x5EED

// scribbleExport voids the page set the last ExportPrefix handed out,
// in a jengadebug build: the holder is exporting again, or its tier is
// changing under the view. Importing the set then panics instead of
// copying the tier's next state.
func (h *hostTier) scribbleExport() {
	for i := range h.exportBlocks {
		h.exportBlocks[i] = PageBlock{Hash: hashPoison, Priority: pageSetPoison, Filled: pageSetPoison}
	}
	for i := range h.exportEnds {
		h.exportEnds[i] = pageSetPoison
	}
}

// scribbleFetch voids the fetch list the last LookupFleet returned, in
// a jengadebug build: a reader past its lifetime names no holder.
func (h *hostTier) scribbleFetch() {
	for i := range h.fetch {
		h.fetch[i] = FetchBlock{Group: "\x00scribbled", Hash: hashPoison, Holder: pageSetPoison}
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
	// peer-extended prefix lookup, the content-change observer the
	// fleet directory registers through, and the per-fetch skip and
	// failure counts the destination tier's stats report.
	ExportPrefix(group string, hashes []uint64) (PageSet, bool)
	ImportPrefix(ps PageSet, now Tick) (pages int, bytes int64)
	LookupFleet(seq *Sequence, peer PeerPresence) (p int, fetch []FetchBlock)
	SetTierObserver(obs TierObserver)
	NotePeerFetch(skipped, failed int64)
}

var _ TierManager = (*Jenga)(nil)

// TierStats implements TierManager.
func (m *Jenga) TierStats() TierStats {
	if m.host == nil {
		return TierStats{}
	}
	st := m.host.stats
	st.HostUsed, st.HostCapacity = m.host.used, m.host.capacity
	return st
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
	if m.host != nil && m.cfg.EnablePrefixCache {
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
// pages holding a block or checkpoint the request references: what its
// release can leave cached. The result is the tier's scratch, valid
// until the next call.
func (m *Jenga) heldLargePages(r *reqState) []arena.LargePageID {
	out := m.host.swapLarge[:0]
	for gi, g := range m.groups {
		if g.vision {
			continue
		}
		for _, ref := range r.g[gi].table {
			if ref.held() {
				out = append(out, g.view.LargeOf(ref.id()))
			}
		}
	}
	slices.Sort(out)
	out = slices.Compact(out)
	m.host.swapLarge = out
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
	h := m.host
	if h == nil {
		return false
	}
	lp := &m.large[L]
	if lp.owner < 0 || lp.used != 0 || lp.cached == 0 {
		return false
	}
	g := m.groups[lp.owner]
	first, n := g.view.SmallRange(L)
	blocks, hashes := h.pageBlocks[:0], h.pageHashes[:0]
	for i := 0; i < n; i++ {
		id := first + arena.SmallPageID(i)
		pg := &g.pages[id]
		if pg.status != pageCached || !pg.has(pageHashed) {
			continue
		}
		hb := hostBlock{
			priority: g.prio[id],
			filled:   int32(pg.filled),
		}
		if m.ar.Backed() {
			// The tier copies the bytes into the slot it stores them in.
			if buf, err := g.view.SmallSlice(id); err == nil {
				hb.data = buf
			}
		}
		blocks = append(blocks, hb)
		hashes = append(hashes, g.hash[id])
	}
	h.pageBlocks, h.pageHashes = blocks, hashes
	if len(blocks) == 0 {
		return false
	}
	if stored, _ := h.admit(g.idx, blocks, hashes, now); !stored {
		return false
	}
	h.stats.SwapOuts++
	h.stats.SpilledBytes += h.pageBytes
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
	pg.filled = uint8(hb.filled)
	g.filledSlots += int64(hb.filled)
	g.hash[id] = hash
	pg.set(pageComplete, true)
	g.prio[id] = hb.priority
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
