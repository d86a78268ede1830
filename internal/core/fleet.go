package core

import "jenga/internal/model"

// Fleet transfer surface: the host tier doubles as each replica's
// share of a cluster-wide KV store. ExportPrefix serializes tier
// pages for the wire, ImportPrefix injects a peer's pages into the
// local tier (where the ordinary claim path restores them over PCIe),
// and LookupFleet extends the prefix lookup with a third presence
// level — blocks a peer's tier holds — returning the block list a
// fetch must move to realize the longer prefix. A TierObserver keeps
// an external directory consistent with tier content: every hash is
// registered when its page is stored and invalidated when its live
// copy dies. internal/fleet builds the directory and the transfer
// path on top; nothing here knows about replicas or links.

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

// NotePeerFetch records a fleet fetch's per-holder skip and failure
// counts into this (destination) tier's stats — pure observability,
// no state change. A no-op without a tier.
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
type PageSet struct {
	Group string
	Pages [][]PageBlock
	// PageBytes is the accounted size of each page (the large-page
	// transfer unit, uniform across layer types).
	PageBytes int64
}

// Bytes is the set's wire volume: every page costs one large page on
// the link regardless of how many blocks it carries.
func (ps *PageSet) Bytes() int64 { return int64(len(ps.Pages)) * ps.PageBytes }

// ExportPrefix copies the host-tier pages holding any of the given
// block hashes (group g) into a serializable page set, deduplicated
// by page and in first-reference order. The export is a pure read:
// refcounts and tier state are untouched, and pages pinned by an
// in-flight restore are skipped entirely (pin-safe — a transfer never
// observes a page mid-restore). Reports false when nothing could be
// exported.
func (m *Jenga) ExportPrefix(group string, hashes []uint64) (PageSet, bool) {
	ps := PageSet{Group: group}
	if m.host == nil {
		return ps, false
	}
	ps.PageBytes = m.host.pageBytes
	gi, ok := m.host.index[group]
	if !ok {
		return ps, false
	}
	seen := make(map[int64]bool)
	for _, hsh := range hashes {
		seq, ok := gi[hsh]
		if !ok || seen[seq] {
			continue
		}
		seen[seq] = true
		if _, pinned := m.host.pinned[seq]; pinned {
			continue
		}
		pg := m.host.pages[seq]
		blocks := make([]PageBlock, len(pg.blocks))
		for i := range pg.blocks {
			b := &pg.blocks[i]
			blocks[i] = PageBlock{Hash: b.hash, Priority: b.priority, Filled: b.filled}
			if b.data != nil {
				blocks[i].Data = append([]byte(nil), b.data...)
			}
		}
		ps.Pages = append(ps.Pages, blocks)
	}
	if len(ps.Pages) == 0 {
		return ps, false
	}
	m.host.stats.PeerExports += int64(len(ps.Pages))
	m.host.stats.PeerExportBytes += ps.Bytes()
	return ps, true
}

// ImportPrefix injects a peer's page set into the local host tier,
// evicting LRU tier pages as needed (never pinned ones), and returns
// the pages and bytes actually admitted. Pages whose blocks are all
// already resident are deduplicated to a recency touch. The local
// claim path then restores imported blocks over PCIe exactly like
// locally spilled ones. ImportPrefix takes ownership of the set's
// Data slices; callers must not reuse them.
func (m *Jenga) ImportPrefix(ps PageSet, now Tick) (int, int64) {
	if m.host == nil || !m.host.hasRoomEver() {
		return 0, 0
	}
	if _, ok := m.byName[ps.Group]; !ok {
		return 0, 0
	}
	pages, bytes := 0, int64(0)
	for _, pb := range ps.Pages {
		if len(pb) == 0 {
			continue
		}
		blocks, hashes := m.tierBlocks[:0], m.tierHashes[:0]
		for i := range pb {
			blocks = append(blocks, hostBlock{hash: pb[i].Hash, priority: pb[i].Priority, filled: pb[i].Filled, data: pb[i].Data})
			hashes = append(hashes, pb[i].Hash)
		}
		m.tierBlocks, m.tierHashes = blocks, hashes
		if m.host.resident(ps.Group, hashes) {
			m.host.touchPage(ps.Group, hashes[0], now)
			continue
		}
		if !m.host.store(ps.Group, blocks, now) {
			break
		}
		pages++
		bytes += m.host.pageBytes
	}
	if pages > 0 {
		m.host.stats.PeerImports += int64(pages)
		m.host.stats.PeerImportBytes += bytes
	}
	return pages, bytes
}

// PeerPresence reports whether some peer replica's tier holds a live
// copy of block (group, hash) — LookupFleet's oracle, backed by the
// fleet directory.
type PeerPresence func(group string, hash uint64) bool

// FetchBlock names one block a fleet prefix fetch must move.
type FetchBlock struct {
	Group string
	Hash  uint64
}

// LookupFleet is Lookup with a third presence level: blocks that are
// neither GPU- nor host-resident locally count as present when a peer
// holds them. It returns the longest model-wide valid prefix under
// that extended view and the peer-only blocks a claim of it would
// touch — exactly the keep-alive head and accessed tail per token
// group, and the final checkpoint for Mamba — so the fleet layer can
// fetch precisely what the claim needs. With no tier, no peers or a
// disabled prefix cache it returns (0, nil); with peers that add
// nothing, the prefix matches Lookup and the fetch list is empty.
func (m *Jenga) LookupFleet(seq *Sequence, peer PeerPresence) (int, []FetchBlock) {
	if !m.cfg.EnablePrefixCache || m.host == nil || !m.host.hasRoomEver() || peer == nil {
		return 0, nil
	}
	maxP := len(seq.Tokens) - 1 // at least one token must run
	if maxP <= 0 {
		return 0, nil
	}
	type fleetView struct {
		g        *group
		view     *GroupSeqView
		peerOnly []bool         // token groups: block index → peer-supplied
		ckHash   map[int]uint64 // Mamba: projected position → chain hash
		ckPeer   map[int]bool   // Mamba: position → peer-supplied
	}
	var views []fleetView
	anyPresent := false
	for _, g := range m.groups {
		if g.isVision() || !g.appliesTo(seq) {
			continue
		}
		v := m.buildView(g, seq.ID, seq.Tokens, true)
		fv := fleetView{g: g, view: v}
		if g.spec.Kind == model.Mamba {
			// Re-derive the checkpoint chain hashes (buildView keeps
			// them private) and overlay peer presence on the closure.
			storesImg := g.spec.StoresToken(true)
			storesTxt := g.spec.StoresToken(false)
			proj := seq.Tokens
			if !(storesImg && storesTxt) {
				proj = g.lkProj
			}
			every := g.spec.Checkpoint()
			fv.ckHash = make(map[int]uint64)
			fv.ckPeer = make(map[int]bool)
			h := blockHashSeed
			for i, t := range proj {
				h = hashChain(h, t)
				if (i+1)%every == 0 {
					fv.ckHash[i+1] = h
				}
			}
			// Walk checkpoint positions in chain order rather than
			// ranging ckHash: the peer() probe order stays
			// deterministic.
			local := v.CheckpointAt
			for pos := every; pos <= len(proj); pos += every {
				hh, ok := fv.ckHash[pos]
				if !ok {
					continue
				}
				if !local(pos) && peer(g.spec.Name, hh) {
					fv.ckPeer[pos] = true
					anyPresent = true
				}
			}
			ckPeer := fv.ckPeer
			v.CheckpointAt = func(pos int) bool { return local(pos) || ckPeer[pos] }
			anyPresent = anyPresent || len(g.index) > 0 || m.host.groupSize(g.spec.Name) > 0
		} else {
			hashes := g.lkHashes
			fv.peerOnly = make([]bool, len(hashes))
			for k, hsh := range hashes {
				if v.Present[k] {
					anyPresent = true
					continue
				}
				if peer(g.spec.Name, hsh) {
					v.Present[k] = true
					fv.peerOnly[k] = true
					anyPresent = true
				}
			}
			v.buildRuns()
		}
		views = append(views, fv)
	}
	if !anyPresent {
		return 0, nil
	}
	p := 0
candidates:
	for c := maxP; c > 0; c-- {
		for i := range views {
			fv := &views[i]
			if fv.g.spec.Kind != model.Mamba && fv.view.ProjCount[c]%fv.g.tpp != 0 {
				continue candidates
			}
			if !fv.g.pol.ValidPrefix(fv.view, c) {
				continue candidates
			}
		}
		p = c
		break
	}
	if p == 0 {
		return 0, nil
	}
	var fetch []FetchBlock
	for i := range views {
		fv := &views[i]
		g := fv.g
		pl := fv.view.ProjCount[p]
		if g.spec.Kind == model.Mamba {
			if fv.ckPeer[pl] {
				fetch = append(fetch, FetchBlock{Group: g.spec.Name, Hash: fv.ckHash[pl]})
			}
			continue
		}
		nb := pl / g.tpp
		lo := g.pol.AccessedFrom(pl) / g.tpp
		keep := 0
		if ka, ok := g.pol.(KeepAlive); ok {
			keep = (ka.KeptBelow(pl) + g.tpp - 1) / g.tpp
		}
		hashes := g.lkHashes
		add := func(b int) {
			if b < len(fv.peerOnly) && fv.peerOnly[b] {
				fetch = append(fetch, FetchBlock{Group: g.spec.Name, Hash: hashes[b]})
			}
		}
		for b := 0; b < keep && b < lo; b++ {
			add(b)
		}
		for b := lo; b < nb; b++ {
			add(b)
		}
	}
	return p, fetch
}
