package core

import (
	"fmt"
	"slices"

	"jenga/internal/arena"
	"jenga/internal/debug"
	"jenga/internal/model"
)

// pageRef is a request's handle on one block's page. held is false for
// blocks the request skipped (below a window at claim time) or has
// already demoted.
type pageRef struct {
	id   arena.SmallPageID
	held bool
}

// reqGroup is the per-(request, group) state.
type reqGroup struct {
	// pages is indexed by block number (token groups).
	pages         []pageRef
	projReserved  int
	projCommitted int
	// demotedBlocks is the block index below which pages have been
	// demoted, freed, or skipped.
	demotedBlocks int

	// Incremental hashing state (projCommitted tokens consumed).
	chain       uint64
	runChain    uint64
	lastFullIdx int
	// projPrompt is the projected length of the sequence's prompt part
	// committed so far (window KV above projPrompt−Window stays in the
	// live eviction class; see Sequence.PromptLen).
	projPrompt int

	// Mamba state.
	hasWork  bool
	work     arena.SmallPageID
	baseProj int
	nextCkpt int // next checkpoint position to pre-allocate
	ckptDone int // checkpoints finalized so far
	ckpts    []pageRef
	ckptPos  []int

	// Vision-embedding state (driven by EncodeImages / DropImages).
	visPages   []pageRef
	visProj    int // projected image tokens encoded
	visCursor  int // full-token cursor for EncodeImages
	visDropped int // blocks fully dropped
	dropCursor int // full-token cursor for DropImages
	dropProj   int
}

// reqState is the per-request manager state.
type reqState struct {
	id           RequestID
	reserved     int // full-sequence tokens with KV slots reserved
	committed    int // full-sequence tokens with valid KV
	lastNow      Tick
	claimed      bool
	cachedPrefix int
	// restoredTokens is the model-wide prefix the host tier added
	// beyond what the GPU cache alone validated at claim time — the
	// tokens a restore saved from recompute; restoredBytes the H2D
	// volume the restores moved (RestoreCost reads both).
	restoredTokens int
	restoredBytes  int64
	g              []reqGroup
}

// getReq returns the sequence's state, registering a pristine one at
// the manager's first sight of it.
//
//jenga:hotpath
func (m *Jenga) getReq(seq *Sequence) *reqState {
	if r, ok := m.reqs[seq.ID]; ok {
		return r
	}
	return m.takeReq(seq.ID)
}

// Per-request state is recycled. A request's reqState, its per-group
// slice and each group's page, checkpoint and vision tables are built
// on the request's first Reserve (or Fork) and are dead at its Release;
// Release resets the state and parks it on m.spareReqs, and the next
// new request takes it from there, tables at their previous capacity.
// A state is only ever handed out while the list is empty, so parked
// plus live states never exceed the most requests that were live at
// once, and in steady state a request costs the allocator nothing.
// States are built reqSlabStates at a time, as engine's runs are: a
// slab is two arrays, the states and all their per-group slices.

const reqSlabStates = 64

// takeReq registers a pristine state for a request the manager has not
// seen: a parked one, or a new one when none is parked.
//
//jenga:hotpath
func (m *Jenga) takeReq(id RequestID) *reqState {
	var r *reqState
	if n := len(m.spareReqs); n > 0 {
		r = m.spareReqs[n-1]
		m.spareReqs[n-1] = nil
		m.spareReqs = m.spareReqs[:n-1]
	} else {
		if len(m.reqSlab) == 0 {
			m.growReqSlab()
		}
		r, m.reqSlab = &m.reqSlab[0], m.reqSlab[1:]
		m.reqsBuilt++
	}
	r.id = id
	m.reqs[id] = r
	return r
}

// growReqSlab builds the next slab of pristine states.
func (m *Jenga) growReqSlab() {
	ng := len(m.groups)
	//jenga:alloc-ok slab miss: taken only while every state handed out is live, so one slab per reqSlabStates of the live high-water, not per request
	m.reqSlab = make([]reqState, reqSlabStates)
	rgs := make([]reqGroup, reqSlabStates*ng)
	for i := range m.reqSlab {
		m.reqSlab[i].g = rgs[i*ng : (i+1)*ng : (i+1)*ng]
		for gi, g := range m.groups {
			g.resetReq(&m.reqSlab[i].g[gi])
		}
	}
}

// parkReq resets a released request's state and puts it on the free
// list. The caller has dropped every page the state held.
//
//jenga:hotpath
func (m *Jenga) parkReq(r *reqState) {
	rgs := r.g
	for gi, g := range m.groups {
		g.resetReq(&rgs[gi])
	}
	*r = reqState{g: rgs}
	m.spareReqs = append(m.spareReqs, r)
}

// resetReq returns rg to what a request that has touched nothing holds
// for group g, keeping the tables' backing arrays. Entries are zeroed
// before the tables are emptied, so slots in [len, cap) are always zero
// and growTable can extend a table by reslicing.
//
//jenga:hotpath
func (g *group) resetReq(rg *reqGroup) {
	clear(rg.pages)
	clear(rg.ckpts)
	clear(rg.visPages)
	*rg = reqGroup{
		pages:       rg.pages[:0],
		ckpts:       rg.ckpts[:0],
		ckptPos:     rg.ckptPos[:0],
		visPages:    rg.visPages[:0],
		chain:       blockHashSeed,
		runChain:    blockHashSeed,
		lastFullIdx: -1,
	}
	if g.spec.Kind == model.Mamba {
		rg.nextCkpt = g.spec.Checkpoint()
	}
}

// growTable extends one of the group's page tables to n entries, the
// new ones unheld. When that takes a new array it is sized for every
// token the sequence is known to have, so a chunked prefill does not
// regrow the table chunk by chunk.
//
//jenga:hotpath
func (g *group) growTable(refs []pageRef, n int, tokens []Token) []pageRef {
	if n <= len(refs) {
		return refs
	}
	if n > cap(refs) {
		whole := max(n, (countScope(g, tokens)+g.tpp-1)/g.tpp)
		//jenga:alloc-ok table miss: a recycled state keeps its tables, so only a state's first requests, or one longer than any it served, get here
		refs = slices.Grow(refs, whole-len(refs))
	}
	return refs[:n]
}

// appliesTo reports whether a group stores KV for the sequence's model
// (multi-model tagging, §6.1). Untagged groups apply to every sequence.
func (g *group) appliesTo(seq *Sequence) bool {
	return g.spec.Tag == "" || g.spec.Tag == seq.Tag
}

// countScope counts tokens in toks that group g stores.
func countScope(g *group, toks []Token) int {
	if g.spec.Scope == model.ScopeAll {
		return len(toks)
	}
	n := 0
	for _, t := range toks {
		if g.spec.StoresToken(t.Image()) {
			n++
		}
	}
	return n
}

// Footprint implements Manager.
func (m *Jenga) Footprint(seq *Sequence) int64 {
	var total int64
	for _, g := range m.groups {
		if !g.appliesTo(seq) {
			continue
		}
		proj := countScope(g, seq.Tokens)
		if proj == 0 {
			continue
		}
		pages := 0
		switch g.spec.Kind {
		case model.Mamba:
			pages = 1 // working state
			if m.cfg.EnablePrefixCache {
				pages += proj / g.spec.Checkpoint()
			}
		case model.SlidingWindow, model.PyramidWindow:
			keep := proj
			if keep > g.spec.Window {
				keep = g.spec.Window
			}
			// +1 page of slack for the chunk crossing the window edge.
			pages = (keep+g.tpp-1)/g.tpp + 1
		case model.VisionEmbedding:
			// Embeddings for every image token exist right after
			// encoding (§6.2a), before consumption frees them.
			pages = (proj + g.tpp - 1) / g.tpp
		default:
			pages = (proj + g.tpp - 1) / g.tpp
		}
		total += int64(pages) * int64(g.smallBytes)
	}
	return total
}

// CachedPrefix implements Manager: the prefix length served from cache
// at the sequence's first reservation.
func (m *Jenga) CachedPrefix(seq *Sequence) int {
	if r, ok := m.reqs[seq.ID]; ok {
		return r.cachedPrefix
	}
	return 0
}

// --- Lookup --------------------------------------------------------------

// Lookup implements Manager (§5.2): per-group views are built, each
// policy's hit rule is evaluated, and the longest model-wide valid
// prefix is returned. With a host tier, blocks whose only copy lives
// one tier down count as present — claiming such a prefix restores
// them (H2D) instead of recomputing.
//
//jenga:hotpath
func (m *Jenga) Lookup(seq *Sequence) int {
	return m.lookupPrefix(seq, m.host != nil)
}

// lookupPrefix is Lookup with host-tier presence switchable: the
// claim fallback path re-evaluates the prefix GPU-only when a restore
// ran out of device memory.
//
//jenga:hotpath
func (m *Jenga) lookupPrefix(seq *Sequence, useHost bool) int {
	if !m.cfg.EnablePrefixCache {
		return 0
	}
	maxP := len(seq.Tokens) - 1 // at least one token must run
	if maxP <= 0 {
		return 0
	}
	views := m.lkViews[:0]
	anyPresent := false
	for _, g := range m.groups {
		if g.isVision() || !g.appliesTo(seq) {
			continue // never gates KV hits
		}
		v := m.buildView(g, seq.ID, seq.Tokens, useHost)
		for _, ok := range v.Present {
			if ok {
				anyPresent = true
				break
			}
		}
		if g.spec.Kind == model.Mamba && v.CheckpointAt != nil {
			// Presence detection for Mamba handled via CheckpointAt in
			// the candidate scan; mark possible presence cheaply.
			anyPresent = anyPresent || g.index.len() > 0 ||
				(useHost && m.host.groupSize(g.idx) > 0)
		}
		views = append(views, lookupView{g, v})
	}
	m.lkViews = views
	if !anyPresent {
		return 0
	}
candidates:
	for p := maxP; p > 0; p-- {
		for _, gv := range views {
			// Hit prefixes must project to whole blocks in every token
			// group so claiming is block-exact.
			if gv.g.spec.Kind != model.Mamba && gv.view.ProjCount[p]%gv.g.tpp != 0 {
				continue candidates
			}
			if !gv.g.pol.ValidPrefix(gv.view, p) {
				continue candidates
			}
		}
		return p
	}
	return 0
}

// lookupView pairs a group with its Lookup view; lookupPrefix reuses
// the manager-level slice of them across calls.
type lookupView struct {
	g    *group
	view *GroupSeqView
}

// buildView constructs the Lookup view of one group for sequence id.
// With useHost, host-tier-resident blocks count as present. The view
// is built into per-group scratch (g.lkView and friends); nothing
// returned from Lookup outlives the call, so the warm-lookup path
// allocates nothing.
//
// Presence (Present/presentRun and the Mamba checkpoint set) is
// rebuilt in full on every call — the cache index mutates between
// lookups, and LookupFleet overlays peer presence in place — but the
// content-derived scratch (the projection, ProjCount and the block
// hash chain) extends incrementally when this call sees the same live
// request on the same backing array with the cached prefix intact.
// A live sequence's tokens are only ever appended to, so growth keeps
// the base pointer, the first token and the token at the cached
// boundary stable; a different request, a moved array (the engine's
// switch from the borrowed prompt to a private decode buffer) or a
// truncation breaks one of them and forces a full rebuild. The key
// proves nothing across requests — the engine recycles token buffers,
// so an address recurs routinely, and an ID may be reused once its
// request is gone — which is why Release drops it (CrashReset builds
// fresh groups, and with them fresh scratch). This is what makes a
// warm lookup over a long prompt stop rehashing the whole prefix.
//
//jenga:hotpath
func (m *Jenga) buildView(g *group, id RequestID, tokens []Token, useHost bool) *GroupSeqView {
	storesImg := g.spec.StoresToken(true)
	storesTxt := g.spec.StoresToken(false)
	done := 0
	if g.lkSeqLen > 0 && g.lkSeqID == id && len(tokens) >= g.lkSeqLen &&
		g.lkSeqBase == &tokens[0] && g.lkFirst == tokens[0] &&
		g.lkLast == tokens[g.lkSeqLen-1] {
		done = g.lkSeqLen
	}
	v := &g.lkView
	v.BlockTokens = g.tpp
	v.CheckpointAt = nil
	if cap(v.ProjCount) >= len(tokens)+1 {
		v.ProjCount = v.ProjCount[:len(tokens)+1]
	} else {
		pc := make([]int, len(tokens)+1)
		if done > 0 {
			copy(pc, v.ProjCount[:done+1])
		}
		v.ProjCount = pc
	}
	v.ProjCount[0] = 0
	n := v.ProjCount[done]
	for i := done; i < len(tokens); i++ {
		if g.spec.StoresToken(tokens[i].Image()) {
			n++
		}
		v.ProjCount[i+1] = n
	}
	proj := tokens
	if !(storesImg && storesTxt) {
		g.lkProj = projectInto(g.lkProj[:v.ProjCount[done]], tokens[done:], storesImg, storesTxt)
		proj = g.lkProj
	}
	if len(tokens) > 0 {
		g.lkSeqID = id
		g.lkSeqBase = &tokens[0]
		g.lkSeqLen = len(tokens)
		g.lkFirst = tokens[0]
		g.lkLast = tokens[len(tokens)-1]
	} else {
		g.lkSeqLen = 0
	}
	if g.spec.Kind == model.Mamba {
		every := g.spec.Checkpoint()
		g.lkCkHash, g.lkCkPresent = g.lkCkHash[:0], g.lkCkPresent[:0]
		h := blockHashSeed
		for i, t := range proj {
			h = hashChain(h, t)
			if (i+1)%every != 0 {
				continue
			}
			_, present := g.index.get(h)
			if !present && useHost {
				_, present = m.host.lookup(g.idx, h)
			}
			g.lkCkHash = append(g.lkCkHash, h)
			g.lkCkPresent = append(g.lkCkPresent, present)
		}
		v.CheckpointAt = g.ckptAt
		v.Present = nil
		v.buildRuns()
		return v
	}
	if done == 0 {
		g.lkHashes = g.lkHashes[:0]
	}
	g.lkHashes = extendBlockHashes(g.lkHashes, proj, g.tpp)
	hashes := g.lkHashes
	if cap(v.Present) >= len(hashes) {
		v.Present = v.Present[:len(hashes)]
	} else {
		v.Present = make([]bool, len(hashes))
	}
	for k, h := range hashes {
		_, v.Present[k] = g.index.get(h)
		if !v.Present[k] && useHost {
			_, v.Present[k] = m.host.lookup(g.idx, h)
		}
	}
	v.buildRuns()
	return v
}

// --- Reserve -------------------------------------------------------------

// Reserve implements Manager.
//
//jenga:hotpath
func (m *Jenga) Reserve(seq *Sequence, upTo int, now Tick) error {
	if upTo > len(seq.Tokens) {
		//jenga:alloc-ok caller-bug error path, never taken on the measured steady state
		return fmt.Errorf("core: reserve %d beyond sequence length %d", upTo, len(seq.Tokens))
	}
	r := m.getReq(seq)
	if !r.claimed {
		r.claimed = true
		if m.cfg.EnablePrefixCache {
			m.claim(seq, r, now)
		}
	}
	if upTo <= r.reserved {
		return nil
	}
	delta := seq.Tokens[r.reserved:upTo]
	for gi, g := range m.groups {
		if g.isVision() || !g.appliesTo(seq) {
			continue // vision is driven by EncodeImages
		}
		rg := &r.g[gi]
		add := countScope(g, delta)
		if add == 0 {
			continue
		}
		newProj := rg.projReserved + add
		if g.spec.Kind == model.Mamba {
			if err := m.reserveMamba(g, rg, r.id, newProj); err != nil {
				return err
			}
			continue
		}
		lastBlock := (newProj - 1) / g.tpp
		rg.pages = g.growTable(rg.pages, lastBlock+1, seq.Tokens)
		// Copy-on-write boundary: the scan starts at the committed tail
		// block, not the reserved one, because every block from there to
		// lastBlock will receive this reservation's commits — a block
		// still shared with a fork sibling (ref > 1) must be privatized
		// before those writes land. Blocks between the committed and
		// reserved positions are always held, so with no sharing the
		// extra iterations fall through the held-page skip and behavior
		// is identical to scanning from projReserved.
		b0 := rg.projCommitted / g.tpp
		if rb := rg.projReserved / g.tpp; rb < b0 {
			b0 = rb
		}
		for b := b0; b <= lastBlock; b++ {
			if rg.pages[b].held {
				if pg := &g.pages[rg.pages[b].id]; pg.ref > 1 {
					id, err := m.cowPage(g, rg.pages[b].id, r.id)
					if err != nil {
						return err
					}
					rg.pages[b] = pageRef{id: id, held: true}
				}
				continue // partial block page from a previous chunk
			}
			id, err := m.allocSmall(g, r.id)
			if err != nil {
				return err
			}
			rg.pages[b] = pageRef{id: id, held: true}
		}
		rg.projReserved = newProj
	}
	r.reserved = upTo
	return nil
}

// reserveMamba ensures a working state page exists and pre-allocates
// checkpoint pages for the boundaries this reservation will cross.
func (m *Jenga) reserveMamba(g *group, rg *reqGroup, req RequestID, newProj int) error {
	if !rg.hasWork {
		id, err := m.allocSmall(g, req)
		if err != nil {
			return err
		}
		rg.work = id
		rg.hasWork = true
		pg := &g.pages[id]
		pg.filled = 1 // the working state occupies the page
		g.filledSlots++
	}
	if m.cfg.EnablePrefixCache {
		every := g.spec.Checkpoint()
		for rg.nextCkpt <= newProj {
			id, err := m.allocSmall(g, req)
			if err != nil {
				return err
			}
			rg.ckpts = append(rg.ckpts, pageRef{id: id, held: true})
			rg.ckptPos = append(rg.ckptPos, rg.nextCkpt)
			rg.nextCkpt += every
		}
	}
	rg.projReserved = newProj
	return nil
}

// --- Commit --------------------------------------------------------------

// Commit implements Manager.
//
//jenga:hotpath
func (m *Jenga) Commit(seq *Sequence, upTo int, now Tick) {
	r := m.getReq(seq)
	if upTo > r.reserved {
		check(false, "commit %d beyond reserved %d for request %d", upTo, r.reserved, r.id)
	}
	if upTo <= r.committed {
		return
	}
	r.lastNow = now
	delta := seq.Tokens[r.committed:upTo]
	for gi, g := range m.groups {
		if g.isVision() || !g.appliesTo(seq) {
			continue
		}
		rg := &r.g[gi]
		m.commitGroup(g, rg, delta, r.committed, seq.promptBound(), now)
	}
	r.committed = upTo
}

//jenga:hotpath
func (m *Jenga) commitGroup(g *group, rg *reqGroup, delta []Token, fullBase, promptBound int, now Tick) {
	mamba := g.spec.Kind == model.Mamba
	pos := rg.projCommitted
	for i, t := range delta {
		if !g.spec.StoresToken(t.Image()) {
			continue
		}
		fi := fullBase + i
		if rg.lastFullIdx != fi-1 {
			rg.runChain = rg.chain // a new contiguous run starts here
		}
		rg.lastFullIdx = fi
		rg.chain = hashChain(rg.chain, t)
		if fi < promptBound {
			rg.projPrompt = pos + 1
		}
		if mamba {
			pos++
			if rg.ckptDone < len(rg.ckptPos) && pos == rg.ckptPos[rg.ckptDone] {
				m.finalizeCheckpoint(g, rg, rg.ckptDone, now)
				rg.ckptDone++
			}
			continue
		}
		b := pos / g.tpp
		if b >= len(rg.pages) || !rg.pages[b].held {
			check(false, "commit into unreserved block %d", b)
		}
		pg := &g.pages[rg.pages[b].id]
		pg.filled++
		g.filledSlots++
		pos++
		if pos%g.tpp == 0 {
			pg.hash = rg.chain
			pg.complete = true
			pg.priority = g.pol.BlockPriority(b, rg.runChain)
			if m.cfg.EnablePrefixCache {
				pg.hashed = g.index.put(rg.pages[b].id)
			}
		}
	}
	rg.projCommitted = pos
	if mamba {
		return
	}
	// Demote blocks that fell outside the dependency horizon (§5.3).
	freeBelow := g.pol.FreeBelow(pos)
	fullBlocksBelow := freeBelow / g.tpp
	// Blocks inside the prompt's final window serve future prefix hits
	// at prompt boundaries — and a shared-prefix boundary (e.g. the
	// document before a per-request question) can sit anywhere within
	// that window, needing its own window below it. KV below 2×Window
	// under the prompt end is truly expired.
	expireBelow := rg.projPrompt - 2*g.spec.Window - 2*g.tpp
	// Policies with an always-live head region (attention sinks) keep
	// those pages held regardless of the window.
	keep := 0
	if ka, ok := g.pol.(KeepAlive); ok {
		keep = ka.KeptBelow(pos)
	}
	for b := rg.demotedBlocks; b < fullBlocksBelow; b++ {
		if rg.pages[b].held {
			if b*g.tpp < keep {
				continue // always-live head page stays held
			}
			// Out-of-window KV: cached for shorter-prefix hits but
			// first in line for eviction (§3.3, §5.3).
			expired := (b+1)*g.tpp <= expireBelow
			m.pageRelease(g, rg.pages[b].id, m.cfg.EnablePrefixCache, now, expired)
			rg.pages[b].held = false
		}
	}
	if fullBlocksBelow > rg.demotedBlocks {
		rg.demotedBlocks = fullBlocksBelow
	}
	// Dead slots in the boundary block share a page with live slots.
	if db := freeBelow % g.tpp; db > 0 && fullBlocksBelow < len(rg.pages) && rg.pages[fullBlocksBelow].held {
		pg := &g.pages[rg.pages[fullBlocksBelow].id]
		if int32(db) > pg.dead {
			g.deadSlots += int64(int32(db) - pg.dead)
			pg.dead = int32(db)
		}
	}
}

// finalizeCheckpoint publishes the i-th Mamba state snapshot: the state
// content at that position is copied into the pre-allocated page and
// its prefix hash published for hits at that exact position (§5.3).
func (m *Jenga) finalizeCheckpoint(g *group, rg *reqGroup, i int, now Tick) {
	check(rg.ckpts[i].held, "checkpoint page %d not held", i)
	pg := &g.pages[rg.ckpts[i].id]
	if pg.filled == 0 {
		pg.filled = 1
		g.filledSlots++
	}
	pg.hash = rg.chain
	pg.complete = true
	pg.priority = g.pol.BlockPriority(i, rg.runChain)
	pg.lastAccess = now
	pg.hashed = g.index.put(rg.ckpts[i].id)
}

// --- Release -------------------------------------------------------------

// Release implements Manager.
//
//jenga:hotpath
func (m *Jenga) Release(seq *Sequence, cache bool) {
	// The warm-lookup scratch is keyed on this request: it must not
	// survive it (see buildView), claimed or not.
	for _, g := range m.groups {
		if g.lkSeqID == seq.ID {
			g.lkSeqLen = 0
		}
	}
	r, ok := m.reqs[seq.ID]
	if !ok {
		return
	}
	cache = cache && m.cfg.EnablePrefixCache
	for gi, g := range m.groups {
		rg := &r.g[gi]
		for b := range rg.pages {
			if rg.pages[b].held {
				m.pageRelease(g, rg.pages[b].id, cache, r.lastNow, false)
			}
		}
		for _, ref := range rg.visPages {
			if ref.held {
				m.pageRelease(g, ref.id, false, r.lastNow, false)
			}
		}
		if rg.hasWork {
			m.pageRelease(g, rg.work, false, r.lastNow, false)
		}
		for i := range rg.ckpts {
			if rg.ckpts[i].held {
				pg := &g.pages[rg.ckpts[i].id]
				m.pageRelease(g, rg.ckpts[i].id, cache, pg.lastAccess, false)
			}
		}
		g.dropAssocList(r.id)
	}
	delete(m.reqs, seq.ID)
	m.parkReq(r)
	if debug.On {
		m.mustHold()
	}
}

// --- Prefix-cache claiming ------------------------------------------------

// claim runs at a request's first reservation: it finds the model-wide
// cached prefix and attaches the corresponding pages (§5.2), so the
// engine can skip computing those tokens. With a host tier, blocks
// whose only copy lives one tier down are restored (H2D) as part of
// the claim; if device memory runs out mid-restore, the claim rolls
// back and falls back to the GPU-only prefix, which never allocates.
func (m *Jenga) claim(seq *Sequence, r *reqState, now Tick) {
	// An empty tier cannot assist any lookup, so skip the host passes
	// (including the hostAssist probe below) until something spilled.
	useHost := m.host != nil && m.host.live > 0
	p := m.lookupPrefix(seq, useHost)
	// hostAssist is the model-wide prefix the tier adds beyond what
	// the GPU cache alone validates — the tokens a restore saves from
	// recompute. Measured before claiming (afterwards restored blocks
	// are GPU-resident and the difference vanishes).
	hostAssist := 0
	if useHost && p > 0 {
		if pGPU := m.lookupPrefix(seq, false); pGPU < p {
			hostAssist = p - pGPU
		}
	}
	if p > 0 && !m.claimPrefix(seq, r, p, now, useHost) {
		m.rollbackClaim(seq, r)
		p = m.lookupPrefix(seq, false)
		if p > 0 {
			check(m.claimPrefix(seq, r, p, now, false),
				"claim: GPU-only fallback claim failed")
		}
	} else if hostAssist > 0 {
		r.restoredTokens = hostAssist
		m.stats.RestoredTokens += int64(hostAssist)
		m.host.stats.RestoredTokens += int64(hostAssist)
	}
	r.cachedPrefix = p
	r.reserved = p
	r.committed = p
}

// pendingRestore is one host-tier block a claim must bring back:
// block ≥ 0 names a token-group block, block < 0 a Mamba checkpoint
// at projected position pl. pin is the source page's tier pin.
type pendingRestore struct {
	g     *group
	rg    *reqGroup
	block int
	hash  uint64
	pl    int
	pin   tierPin
}

// claimPrefix attaches the pages of a p-token valid prefix to r. It
// runs in two passes: pass 1 claims every GPU-resident block across
// all groups (no allocation — claiming pins them in the used state),
// pass 2 restores host-tier blocks, whose allocations may evict or
// spill anything *not* pinned by pass 1 or the tier pins. It reports
// false when a pass-2 allocation failed (partial state attached —
// the caller rolls back). With useHost false it is the historical
// claim, performs no allocation, and always succeeds.
//
// The caller has just run lookupPrefix over the same (request, tokens),
// which left every token group's block hashes in g.lkHashes: a chained
// hash names its whole prefix, so the first p tokens' blocks are that
// list's head and the claim reads them instead of hashing the prefix
// again. Nothing here is sized by p except the request's page table,
// which a recycled state already holds.
//
//jenga:hotpath
func (m *Jenga) claimPrefix(seq *Sequence, r *reqState, p int, now Tick, useHost bool) bool {
	m.claimPending = m.claimPending[:0]
	for gi, g := range m.groups {
		rg := &r.g[gi]
		if g.isVision() || !g.appliesTo(seq) {
			continue
		}
		if g.spec.Kind == model.Mamba {
			pl := replayPrefix(g, rg, seq.Tokens[:p])
			if useHost && pl > 0 {
				if _, ok := g.index.get(rg.chain); !ok {
					if _, hok := m.host.lookup(g.idx, rg.chain); hok {
						m.claimPending = append(m.claimPending, pendingRestore{g: g, rg: rg, block: -1, hash: rg.chain, pl: pl})
						continue
					}
				}
			}
			m.claimMamba(g, rg, pl, now)
			continue
		}
		if g.lkSeqID != seq.ID || g.lkSeqLen != len(seq.Tokens) {
			check(false, "claim: group %s lookup scratch is not request %d's", g.spec.Name, seq.ID)
		}
		pl := g.lkView.ProjCount[p]
		if pl%g.tpp != 0 {
			check(false, "claim: group %s prefix %d not block aligned", g.spec.Name, pl)
		}
		nb := pl / g.tpp
		if g.spec.Scope == model.ScopeAll {
			// Every token is stored: one run from the start, ending on
			// the claimed prefix's last block hash.
			rg.chain, rg.runChain, rg.lastFullIdx = blockHashSeed, blockHashSeed, p-1
			if nb > 0 {
				rg.chain = g.lkHashes[nb-1]
			}
		} else {
			replayPrefix(g, rg, seq.Tokens[:p])
		}
		if len(rg.pages) != 0 {
			check(false, "claim: group %s already holds a page table", g.spec.Name)
		}
		rg.pages = g.growTable(rg.pages, nb, seq.Tokens)
		lo := g.pol.AccessedFrom(pl) / g.tpp
		keepBlocks := 0
		if ka, ok := g.pol.(KeepAlive); ok {
			keepBlocks = (ka.KeptBelow(pl) + g.tpp - 1) / g.tpp
		}
		// The always-live head (attention sinks), then the accessed tail.
		m.claimBlocks(g, rg, r.id, 0, min(keepBlocks, lo), useHost)
		m.claimBlocks(g, rg, r.id, lo, nb, useHost)
		rg.projReserved = pl
		rg.projCommitted = pl
		rg.demotedBlocks = lo
	}
	pending := m.claimPending
	if len(pending) == 0 {
		return true
	}
	// Pass 2: every source page is pinned before the first restore,
	// because a restore's allocation can spill — and a spill's tier
	// eviction must never drop a sibling restore's source.
	for i := range pending {
		pending[i].pin = m.host.pin(pending[i].g.idx, pending[i].hash)
	}
	ok := true
	for _, pr := range pending {
		id, allocOK := m.restoreBlock(pr.g, m.host.pinned(pr.pin), pr.hash, r.id, now)
		if !allocOK {
			ok = false
			break
		}
		r.restoredBytes += int64(pr.g.smallBytes)
		if pr.block >= 0 {
			pr.rg.pages[pr.block] = pageRef{id: id, held: true}
		} else {
			// Mamba checkpoint: park the restored page as published
			// cache, then claim it through the normal path.
			m.pageRelease(pr.g, id, true, now, false)
			m.claimMamba(pr.g, pr.rg, pr.pl, now)
		}
	}
	for _, pr := range pending {
		m.host.unpin(pr.pin)
	}
	clear(pending) // drop the request-state pointers the scratch holds
	return ok
}

// replayPrefix brings rg's incremental hashing state — chain, runChain
// and lastFullIdx, what commitGroup maintains token by token — to the
// end of prefix in one pass over the full token list, and returns the
// prefix's projected length.
//
//jenga:hotpath
func replayPrefix(g *group, rg *reqGroup, prefix []Token) int {
	rg.chain, rg.runChain, rg.lastFullIdx = blockHashSeed, blockHashSeed, -1
	pl := 0
	for i, t := range prefix {
		if !g.spec.StoresToken(t.Image()) {
			continue
		}
		if rg.lastFullIdx != i-1 {
			rg.runChain = rg.chain // a new contiguous run starts here
		}
		rg.lastFullIdx = i
		rg.chain = hashChain(rg.chain, t)
		pl++
	}
	return pl
}

// claimBlocks is claimPrefix's pass 1 over blocks [from, to) of one
// group, hashes in g.lkHashes: a GPU-resident block is attached to
// rg, any other is queued on m.claimPending for the restore pass.
//
//jenga:hotpath
func (m *Jenga) claimBlocks(g *group, rg *reqGroup, req RequestID, from, to int, useHost bool) {
	for b := from; b < to; b++ {
		hash := g.lkHashes[b]
		id, ok := g.index.get(hash)
		if !ok {
			if !useHost {
				check(false, "claim: block %d of group %s vanished", b, g.spec.Name)
			}
			m.claimPending = append(m.claimPending, pendingRestore{g: g, rg: rg, block: b, hash: hash})
			continue
		}
		pg := &g.pages[id]
		check(pg.hashed && pg.hash == hash, "claim: stale index entry")
		switch pg.status {
		case pageCached:
			m.pageToUsed(g, id, req)
		case pageUsed:
			m.pageAddRef(g, id)
		default:
			check(false, "claim: empty page in index")
		}
		rg.pages[b] = pageRef{id: id, held: true}
	}
}

// rollbackClaim detaches everything a failed claimPrefix attached:
// held pages return to the evictable cache (keeping whatever H2D work
// already succeeded — the restored blocks are now GPU-resident and
// the fallback claim picks them up), and the per-group claim state
// resets to its pre-claim form. The groups claimPrefix skips are left
// alone: a vision group may already hold the embeddings EncodeImages
// allocated before this first Reserve.
func (m *Jenga) rollbackClaim(seq *Sequence, r *reqState) {
	for gi, g := range m.groups {
		if g.isVision() || !g.appliesTo(seq) {
			continue
		}
		rg := &r.g[gi]
		for b := range rg.pages {
			if rg.pages[b].held {
				pg := &g.pages[rg.pages[b].id]
				m.pageRelease(g, rg.pages[b].id, m.cfg.EnablePrefixCache, pg.lastAccess, false)
			}
		}
		g.resetReq(rg)
	}
	r.restoredTokens = 0
	r.restoredBytes = 0
}

// claimMamba restores the working state from a cached checkpoint.
func (m *Jenga) claimMamba(g *group, rg *reqGroup, pl int, now Tick) {
	if pl == 0 {
		return
	}
	id, ok := g.index.get(rg.chain)
	check(ok, "claimMamba: checkpoint at %d vanished", pl)
	pg := &g.pages[id]
	// Touch the checkpoint (the paper updates only the last cached
	// state's access time) and re-queue it with the fresh timestamp.
	if pg.status == pageCached {
		// Re-keying a cached page re-keys its large page: losing the
		// old value may lower the max (a warm engine restart resets
		// ticks, so `now` can be below it — mark dirty), the new value
		// may raise it.
		L := m.largeOf(g, id)
		if pg.lastAccess == m.largeTS[L] {
			m.largeDirty[L] = true
		}
		pg.lastAccess = now
		if now > m.largeTS[L] {
			m.largeTS[L] = now
		}
		g.evict.push(pageEntry{id: id, ts: now, prio: pg.priority})
	} else {
		pg.lastAccess = now
	}
	rg.baseProj = pl
	rg.nextCkpt = pl + g.spec.Checkpoint()
	rg.projReserved = pl
	rg.projCommitted = pl
}

// --- Vision embeddings (§6.2) ----------------------------------------------

// EncodeImages implements Manager: allocates and fills vision-embedding
// pages for every image token among the first uptoFull tokens. The
// engine calls it after running the (simulated) vision encoder.
func (m *Jenga) EncodeImages(seq *Sequence, uptoFull int, now Tick) error {
	if uptoFull > len(seq.Tokens) {
		return fmt.Errorf("core: encode %d beyond sequence length %d", uptoFull, len(seq.Tokens))
	}
	r := m.getReq(seq)
	for gi, g := range m.groups {
		if !g.isVision() || !g.appliesTo(seq) {
			continue
		}
		rg := &r.g[gi]
		if rg.visCursor < uptoFull {
			images := countScope(g, seq.Tokens[rg.visCursor:uptoFull])
			rg.visPages = g.growTable(rg.visPages, (rg.visProj+images+g.tpp-1)/g.tpp, seq.Tokens)
		}
		for fi := rg.visCursor; fi < uptoFull; fi++ {
			if !seq.Tokens[fi].Image() {
				continue
			}
			b := rg.visProj / g.tpp
			if !rg.visPages[b].held {
				id, err := m.allocSmall(g, r.id)
				if err != nil {
					rg.visCursor = fi
					return err
				}
				rg.visPages[b] = pageRef{id: id, held: true}
			} else if pg := &g.pages[rg.visPages[b].id]; pg.ref > 1 {
				// Copy-on-write: the partial embedding block is shared
				// with a fork sibling; privatize before writing into it.
				id, err := m.cowPage(g, rg.visPages[b].id, r.id)
				if err != nil {
					rg.visCursor = fi
					return err
				}
				rg.visPages[b] = pageRef{id: id, held: true}
			}
			pg := &g.pages[rg.visPages[b].id]
			pg.filled++
			g.filledSlots++
			rg.visProj++
		}
		rg.visCursor = uptoFull
	}
	r.lastNow = now
	return nil
}

// DropImages implements Manager: frees vision-embedding pages whose
// image tokens have been fully consumed by chunked prefill (§6.2's
// free-on-demand strategy).
func (m *Jenga) DropImages(seq *Sequence, uptoFull int) {
	r, ok := m.reqs[seq.ID]
	if !ok {
		return
	}
	for gi, g := range m.groups {
		if !g.isVision() || !g.appliesTo(seq) {
			continue
		}
		rg := &r.g[gi]
		if uptoFull > len(seq.Tokens) {
			uptoFull = len(seq.Tokens)
		}
		for fi := rg.dropCursor; fi < uptoFull; fi++ {
			if seq.Tokens[fi].Image() {
				rg.dropProj++
			}
		}
		rg.dropCursor = uptoFull
		fullBlocksBelow := rg.dropProj / g.tpp
		for b := rg.visDropped; b < fullBlocksBelow && b < len(rg.visPages); b++ {
			if rg.visPages[b].held {
				m.pageRelease(g, rg.visPages[b].id, false, r.lastNow, false)
				rg.visPages[b].held = false
			}
		}
		if fullBlocksBelow > rg.visDropped {
			rg.visDropped = fullBlocksBelow
		}
	}
}

// Diagnose reports per-group cache coverage for a sequence (debugging
// and observability): for each group, the number of present blocks out
// of the total complete blocks.
func (m *Jenga) Diagnose(seq *Sequence) string {
	out := ""
	for _, g := range m.groups {
		if g.isVision() || !g.appliesTo(seq) {
			continue
		}
		if g.spec.Kind == model.Mamba {
			continue
		}
		v := m.buildView(g, seq.ID, seq.Tokens, m.host != nil)
		present, runEnd := 0, 0
		for k, ok := range v.Present {
			if ok {
				present++
				if runEnd == k {
					runEnd++
				}
			}
		}
		out += fmt.Sprintf("[%s %d/%d contig=%d]", g.spec.Name, present, len(v.Present), runEnd)
	}
	return out
}
