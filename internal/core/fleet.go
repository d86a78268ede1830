package core

import (
	"slices"

	"jenga/internal/debug"
)

// Fleet transfer surface: the host tier doubles as each replica's
// share of a cluster-wide KV store. ExportPrefix serializes tier
// pages for the wire, ImportPrefix injects a peer's pages into the
// local tier (where the ordinary claim path restores them over PCIe),
// and LookupFleet extends the prefix lookup with a third presence
// level — blocks a peer's tier holds — returning the block list a
// fetch must move to realize the longer prefix, each with the holder
// the presence oracle named for it. A TierObserver keeps an external
// directory consistent with tier content: every hash is registered
// when its page is stored and invalidated when its live copy dies.
// internal/fleet builds the directory and the transfer path on top;
// nothing here knows about replicas or links.
//
// The whole path runs on scratch the tier and the manager own, sized
// with the tier, so a page exported, imported or looked up allocates
// nothing: an exported PageSet is a view — flat block list and page
// bounds in tier scratch, block bytes still in the exporting tier's
// blocks — valid until the holder's next ExportPrefix; ImportPrefix
// copies what it admits into the importing tier's own blocks (the one
// copy a transfer makes); LookupFleet's views, peer overlay and fetch
// list are the lookup scratch plus one holder table per group, valid
// until the next LookupFleet. A jengadebug build scribbles each over
// when it lapses — a set at its holder's next export or tier change, a
// fetch list at the next lookup — and ImportPrefix panics on a set so
// scribbled: a fetch exports and imports inside one barrier section,
// where the holder's tier cannot change.

// TierObserver receives host-tier content notifications. TierStored
// fires when a page enters the tier (spill or import), TierEvicted
// when a block's live copy leaves it (budget eviction only — a
// re-spill that repoints a hash keeps it resident and emits no
// eviction). Callbacks run synchronously inside allocator operations
// and must not call back into the manager.
type TierObserver interface {
	TierStored(group string, hashes []uint64)
	TierEvicted(group string, hashes []uint64)
}

// SetTierObserver installs obs as the host tier's content observer
// (nil disables, the default). A no-op without a tier.
func (m *Jenga) SetTierObserver(obs TierObserver) {
	if m.host != nil {
		m.host.obs = obs
	}
}

// NotePeerFetch implements TierManager: it records a fleet fetch's
// per-holder skip and failure counts into this (destination) tier's
// stats — pure observability, no state change. A no-op without a tier.
func (m *Jenga) NotePeerFetch(skipped, failed int64) {
	if m.host != nil {
		m.host.stats.PeerSkips += skipped
		m.host.stats.PeerFails += failed
	}
}

// PageBlock is one block of a serialized host-tier page: its identity
// and (for backed arenas) contents, the wire form of a spilled block.
type PageBlock struct {
	Hash     uint64
	Priority int64
	Filled   int32
	Data     []byte
}

// PageSet is a serializable set of host-tier pages of one group — the
// unit of fleet peer transfer (ExportPrefix → wire → ImportPrefix).
// Transfer granularity is the whole large page, so a set fetched for
// a few blocks may carry sibling blocks along; they are injected too
// and warm the destination tier for free.
//
// A set is a view, not a copy: Blocks and Ends are the exporting
// tier's scratch and each Data is the exporting tier's own buffer.
// It is valid until that manager's next ExportPrefix, provided the
// holder's tier does not change in between — a fleet fetch exports and
// imports inside one barrier section, where it cannot. ImportPrefix
// copies, so the same set may be imported any number of times (a
// retried transfer) while it is valid.
type PageSet struct {
	Group string
	// Blocks holds every page's blocks back to back; page i's are
	// Blocks[Ends[i-1]:Ends[i]] (from 0 for the first).
	Blocks []PageBlock
	Ends   []int
	// PageBytes is the accounted size of each page (the large-page
	// transfer unit, uniform across layer types).
	PageBytes int64
}

// NumPages is the number of pages in the set.
func (ps *PageSet) NumPages() int { return len(ps.Ends) }

// Page returns page i's blocks.
func (ps *PageSet) Page(i int) []PageBlock {
	lo := 0
	if i > 0 {
		lo = ps.Ends[i-1]
	}
	return ps.Blocks[lo:ps.Ends[i]]
}

// Bytes is the set's wire volume: every page costs one large page on
// the link regardless of how many blocks it carries.
func (ps *PageSet) Bytes() int64 { return int64(len(ps.Ends)) * ps.PageBytes }

// ExportPrefix serializes the host-tier pages holding any of the given
// block hashes (group g) into a page set, deduplicated by page and in
// first-reference order. The export is a pure read: refcounts and tier
// state are untouched. No page it reads is pinned: a tier pin lives
// only inside a claim's restores, and a fleet fetch exports in a
// barrier section, between calls (a jengadebug build panics on a pinned
// page). Reports false when nothing could be exported. The set is valid
// until the next ExportPrefix on this manager (see PageSet).
//
//jenga:hotpath
func (m *Jenga) ExportPrefix(group string, hashes []uint64) (PageSet, bool) {
	ps := PageSet{Group: group}
	if m.host == nil {
		return ps, false
	}
	h := m.host
	ps.PageBytes = h.pageBytes
	gi := m.groupIndex(group)
	if gi < 0 {
		return ps, false
	}
	if debug.On {
		h.scribbleExport()
	}
	h.exportGen++
	idx := &h.index[gi]
	blocks, ends := h.exportBlocks[:0], h.exportEnds[:0]
	for _, hsh := range hashes {
		id, ok := idx.get(hsh)
		if !ok {
			continue
		}
		slot := id / h.stride
		pg := &h.pages[slot]
		if pg.exported == h.exportGen {
			continue
		}
		pg.exported = h.exportGen
		if debug.On && pg.pins > 0 {
			panic("core: exporting a tier page a restore has pinned (a fleet fetch exports between calls, in a barrier section)")
		}
		for id, end := h.blockRange(slot); id < end; id++ {
			b := &h.blocks[id]
			blocks = append(blocks, PageBlock{Hash: h.hash[id], Priority: b.priority, Filled: b.filled, Data: b.data})
		}
		ends = append(ends, len(blocks))
	}
	h.exportBlocks, h.exportEnds = blocks, ends
	if len(ends) == 0 {
		return ps, false
	}
	ps.Blocks, ps.Ends = blocks, ends
	h.stats.PeerExports += int64(len(ends))
	h.stats.PeerExportBytes += ps.Bytes()
	return ps, true
}

// ImportPrefix injects a peer's page set into the local host tier,
// evicting LRU tier pages as needed (never pinned ones), and returns
// the pages and bytes actually admitted. Pages whose blocks are all
// already resident are deduplicated to a recency touch. The local
// claim path then restores imported blocks over PCIe exactly like
// locally spilled ones. The set is only read: admitted blocks are
// copied, bytes included, into the tier's own blocks. A jengadebug build
// panics on a set its holder's tier has voided since the export.
//
//jenga:hotpath
func (m *Jenga) ImportPrefix(ps PageSet, now Tick) (int, int64) {
	if debug.On {
		mustBeLive(ps)
	}
	h := m.host
	if h == nil {
		return 0, 0
	}
	gi := m.groupIndex(ps.Group)
	if gi < 0 {
		return 0, 0
	}
	pages, bytes := 0, int64(0)
	for i := 0; i < ps.NumPages(); i++ {
		pb := ps.Page(i)
		if len(pb) == 0 {
			continue
		}
		blocks, hashes := h.pageBlocks[:0], h.pageHashes[:0]
		for k := range pb {
			blocks = append(blocks, hostBlock{priority: pb[k].Priority, filled: pb[k].Filled, data: pb[k].Data})
			hashes = append(hashes, pb[k].Hash)
		}
		h.pageBlocks, h.pageHashes = blocks, hashes
		stored, ok := h.admit(gi, blocks, hashes, now)
		if !ok {
			break
		}
		if stored {
			pages++
			bytes += h.pageBytes
		}
	}
	if pages > 0 {
		h.stats.PeerImports += int64(pages)
		h.stats.PeerImportBytes += bytes
	}
	return pages, bytes
}

// mustBeLive panics on a page set the jengadebug build has scribbled
// (scribbleExport): its holder exported again, changed its tier or
// crashed after handing it out.
func mustBeLive(ps PageSet) {
	if slices.Contains(ps.Ends, pageSetPoison) || slices.ContainsFunc(ps.Blocks, func(b PageBlock) bool { return b.Filled == pageSetPoison }) {
		panic("core: importing a page set its holder voided after the export (a fetch must export and import inside one barrier section)")
	}
}

// PeerPresence reports whether some peer replica's tier holds a live
// copy of block (group, hash), and which — LookupFleet's oracle, backed
// by the fleet directory.
type PeerPresence func(group string, hash uint64) (holder int, ok bool)

// FetchBlock names one block a fleet prefix fetch must move, and the
// holder the presence oracle named for it.
type FetchBlock struct {
	Group  string
	Hash   uint64
	Holder int
}

// LookupFleet is Lookup with a third presence level: blocks that are
// neither GPU- nor host-resident locally count as present when a peer
// holds them. It returns the longest model-wide valid prefix under
// that extended view and the peer-only blocks a claim of it would
// touch — exactly the keep-alive head and accessed tail per token
// group, and the final checkpoint for Mamba — so the fleet layer can
// fetch precisely what the claim needs. With no tier, no peers or a
// disabled prefix cache it returns (0, nil); with peers that add
// nothing, the prefix matches Lookup and the fetch list is empty. The
// list is tier scratch, valid until the next LookupFleet.
//
//jenga:hotpath
func (m *Jenga) LookupFleet(seq *Sequence, peer PeerPresence) (int, []FetchBlock) {
	if debug.On && m.host != nil {
		m.host.scribbleFetch()
	}
	if !m.cfg.EnablePrefixCache || m.host == nil || peer == nil || seq.Len() < 2 {
		return 0, nil // (and at least one token must run)
	}
	sh := m.hashesOf(m.getReq(seq), seq)
	p := m.lookupPrefix(seq, sh, restorable, peer)
	if p == 0 {
		return 0, nil
	}
	m.host.fetch = m.host.fetch[:0]
	for _, gv := range m.lkViews {
		m.fetchPeerOnly(gv.g, &sh.c[gv.g.hclass], gv.view.ProjCount[p])
	}
	return p, m.host.fetch
}

// fetchPeerOnly appends to the fetch list the peer-supplied entries of
// g's overlay (blocks, or Mamba checkpoints) that a claim of pl
// projected tokens attaches (claimSpan), ch the request's hashes of
// g's class.
//
//jenga:hotpath
func (m *Jenga) fetchPeerOnly(g *group, ch *classHashes, pl int) {
	head, lo, nb := g.claimSpan(pl)
	for k := 0; k < nb && k < len(g.lkPeer); k++ {
		if (k < head || k >= lo) && g.lkPeer[k] != 0 {
			m.host.fetch = append(m.host.fetch, FetchBlock{Group: g.spec.Name, Hash: ch.at(k), Holder: int(g.lkPeer[k]) - 1})
		}
	}
}
