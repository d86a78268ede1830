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

// Footprint implements Manager: what admitting seq would newly occupy —
// its steady-state footprint less the part of it a live request already
// holds in use.
//
//jenga:hotpath
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
	return total - m.sharedPrefixBytes(seq)
}

// sharedPrefixBytes is the part of seq's steady-state footprint that is
// in use already: the pages its claim would attach by taking one more
// reference (§5.2) rather than by occupying anything. The engine asks
// again every step a candidate stays blocked, and in most of them no
// page it could share has changed hands, so the answer is kept with the
// request's hashes and reused while m.cacheGen stands (a jengadebug
// build recomputes it all the same, and panics on a difference).
//
//jenga:hotpath
func (m *Jenga) sharedPrefixBytes(seq *Sequence) int64 {
	if !m.cfg.EnablePrefixCache || len(seq.Tokens) < 2 {
		return 0
	}
	sh := m.hashesOf(seq)
	if sh.sharedAt != m.cacheGen {
		sh.shared, sh.sharedAt = m.probeShared(seq, sh), m.cacheGen
	} else if debug.On {
		if now := m.probeShared(seq, sh); now != sh.shared {
			check(false, "request %d shares %d bytes in use, %d remembered from the same cache generation", seq.ID, now, sh.shared)
		}
	}
	return sh.shared
}

// probeShared computes sharedPrefixBytes. A block counts only while a
// live request holds it in use, for the prefix too: what is merely
// cached may be gone by the time the claim runs (the candidate's own
// embeddings are stored first and can evict it), and a claim that came
// back shorter would then allocate what was discounted. A cached page
// is on the free side of the admission gate already, and moves to used
// when claimed; a block whose only copy is in the host tier or on a peer
// needs a page to be restored into. So the prefix judged is the longest
// model-wide one valid on in-use blocks alone — the claim attaches at
// least that — and per token group the blocks of it that the claim
// reads and the request still holds once its whole sequence is
// committed are taken off (a Mamba checkpoint hit attaches no page; an
// always-live head is not in the steady-state estimate, so it is not
// taken off it either). With nothing in use the result is 0.
//
//jenga:hotpath
func (m *Jenga) probeShared(seq *Sequence, sh *seqHashes) int64 {
	p := m.lookupPrefix(seq, sh, inUse)
	if p == 0 {
		return 0
	}
	var shared int64
	for _, gv := range m.lkViews {
		g := gv.g
		if g.spec.Kind == model.Mamba {
			continue
		}
		// The claim attaches blocks from the first one it reads; those
		// below the dependency horizon of the whole sequence are demoted
		// again before the request reaches its steady state.
		pl := gv.view.ProjCount[p]
		from, nb := max(g.pol.AccessedFrom(pl), g.pol.FreeBelow(gv.view.ProjCount[len(seq.Tokens)]))/g.tpp, pl/g.tpp
		for _, used := range gv.view.Present[min(from, nb):nb] {
			if used {
				shared += int64(g.smallBytes)
			}
		}
	}
	return shared
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
	if !m.cfg.EnablePrefixCache || len(seq.Tokens) < 2 {
		return 0 // at least one token must run
	}
	return m.lookupPrefix(seq, m.hashesOf(seq), m.anyTier())
}

// presence is what a lookup counts as a block being there.
type presence uint8

const (
	// inUse: on the device and referenced by a live request, so nothing
	// can evict it before a claim — the admission probe's view.
	inUse presence = iota
	// resident: on the device — what a claim can attach without
	// allocating, and its fallback when a restore ran out of memory.
	resident
	// restorable: on the device or in the host tier.
	restorable
)

// anyTier is the widest presence this manager has.
func (m *Jenga) anyTier() presence {
	if m.host != nil {
		return restorable
	}
	return resident
}

// lookupPrefix is Lookup over sh, seq's block hashes, counting blocks
// as present by the rule given. The views it judged stay in m.lkViews.
//
//jenga:hotpath
func (m *Jenga) lookupPrefix(seq *Sequence, sh *seqHashes, by presence) int {
	views := m.lkViews[:0]
	anyPresent := false
	for _, g := range m.groups {
		if g.isVision() || !g.appliesTo(seq) {
			continue // never gates KV hits
		}
		v := m.buildView(g, &sh.c[g.hclass], seq.Tokens, by)
		if g.spec.Kind == model.Mamba {
			// Checkpoint presence is read through CheckpointAt in the
			// candidate scan; mark possible presence cheaply.
			anyPresent = anyPresent || g.index.len() > 0 ||
				(by == restorable && m.host.groupSize(g.idx) > 0)
		}
		anyPresent = anyPresent || slices.Contains(v.Present, true)
		views = append(views, lookupView{g, v})
	}
	m.lkViews = views
	if !anyPresent {
		return 0
	}
	return longestValid(views, len(seq.Tokens)-1)
}

// longestValid returns the longest prefix of at most maxP tokens that
// every view's policy accepts as a hit, 0 when there is none.
//
//jenga:hotpath
func longestValid(views []lookupView, maxP int) int {
candidates:
	for p := maxP; p > 0; p-- {
		for _, gv := range views {
			// Hit prefixes must project to whole blocks in every token
			// group so claiming is block-exact. ProjCount falls by at
			// most one per token, so no candidate nearer than the excess
			// over a whole block can be aligned.
			if gv.g.spec.Kind != model.Mamba {
				if over := gv.view.ProjCount[p] % gv.g.tpp; over != 0 {
					p -= over - 1
					continue candidates
				}
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

// buildView constructs the Lookup view of one group for a sequence
// whose block hashes of the group's class are bh (hashesOf), blocks
// counted as present by the rule given. The view is built into
// per-group scratch (g.lkView and friends) and nothing returned from
// Lookup outlives the call, so a lookup allocates nothing; and it is
// presence only — one index probe per block, no token hashed. ProjCount
// is counted out only for a group that skipped some of the tokens:
// where every token is stored it is the identity.
//
//jenga:hotpath
func (m *Jenga) buildView(g *group, bh *classHashes, tokens []Token, by presence) *GroupSeqView {
	v := &g.lkView
	v.BlockTokens = g.tpp
	if bh.proj == len(tokens) {
		for n := len(m.identity); n <= len(tokens); n++ {
			//jenga:alloc-ok amortized: grows to the longest sequence ever looked up
			m.identity = append(m.identity, n)
		}
		v.ProjCount = m.identity[:len(tokens)+1]
	} else {
		if cap(g.lkProjCount) <= len(tokens) {
			//jenga:alloc-ok amortized: grows to the longest sequence ever looked up
			g.lkProjCount = make([]int, len(tokens)+1)
		}
		v.ProjCount = g.lkProjCount[:len(tokens)+1]
		n := 0
		for i, t := range tokens {
			if g.spec.StoresToken(t.Image()) {
				n++
			}
			v.ProjCount[i+1] = n
		}
	}
	if g.spec.Kind == model.Mamba {
		g.lkCkPresent = m.fillPresent(g, g.lkCkPresent, bh.hashes, by)
		v.CheckpointAt = g.ckptAt
		v.Present = nil
	} else {
		v.Present = m.fillPresent(g, v.Present, bh.hashes, by)
		v.CheckpointAt = nil
	}
	v.buildRuns()
	return v
}

// fillPresent sizes dst to hashes and marks each entry whose block is
// present by the rule given.
//
//jenga:hotpath
func (m *Jenga) fillPresent(g *group, dst []bool, hashes []uint64, by presence) []bool {
	if cap(dst) < len(hashes) {
		//jenga:alloc-ok amortized: grows to the longest sequence ever looked up
		dst = make([]bool, len(hashes))
	}
	dst = dst[:len(hashes)]
	for k, h := range hashes {
		id, ok := g.index.get(h)
		switch {
		case by == inUse:
			ok = ok && g.pages[id].status == pageUsed
		case by == restorable && !ok:
			_, ok = m.host.lookup(g.idx, h)
		}
		dst[k] = ok
	}
	return dst
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
				m.publish(g, rg.pages[b].id)
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
	m.publish(g, rg.ckpts[i].id)
}

// --- Release -------------------------------------------------------------

// Release implements Manager.
//
//jenga:hotpath
func (m *Jenga) Release(seq *Sequence, cache bool) {
	m.dropHashes(seq.ID) // hashed or not, reserved or not
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
	if len(seq.Tokens) < 2 {
		return // nothing to claim: at least one token must run
	}
	// An empty tier cannot assist any lookup, so skip the host passes
	// (including the hostAssist probe below) until something spilled.
	useHost, by := false, resident
	if m.host != nil && m.host.live > 0 {
		useHost, by = true, restorable
	}
	sh := m.hashesOf(seq)
	p := m.lookupPrefix(seq, sh, by)
	// hostAssist is the model-wide prefix the tier adds beyond what
	// the GPU cache alone validates — the tokens a restore saves from
	// recompute. Measured before claiming (afterwards restored blocks
	// are GPU-resident and the difference vanishes).
	hostAssist := 0
	if useHost && p > 0 {
		if pGPU := m.lookupPrefix(seq, sh, resident); pGPU < p {
			hostAssist = p - pGPU
		}
	}
	if p > 0 && !m.claimPrefix(seq, r, sh, p, now, useHost) {
		m.rollbackClaim(seq, r)
		p = m.lookupPrefix(seq, sh, resident)
		if p > 0 {
			check(m.claimPrefix(seq, r, sh, p, now, false),
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
// The request's block hashes sh cover the whole sequence (hashesOf): a
// chained hash names its whole prefix, so the first p tokens' blocks
// are that list's head and the claim reads them instead of hashing the
// prefix again. Nothing here is sized by p except the request's page
// table, which a recycled state already holds.
//
//jenga:hotpath
func (m *Jenga) claimPrefix(seq *Sequence, r *reqState, sh *seqHashes, p int, now Tick, useHost bool) bool {
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
		pl := p
		if g.spec.Scope == model.ScopeAll {
			// Every token is stored: one run from the start, ending on
			// the claimed prefix's last block hash.
			rg.chain, rg.runChain, rg.lastFullIdx = blockHashSeed, blockHashSeed, p-1
			if p >= g.tpp {
				rg.chain = sh.c[g.hclass].hashes[p/g.tpp-1]
			}
		} else {
			pl = replayPrefix(g, rg, seq.Tokens[:p])
		}
		if pl%g.tpp != 0 {
			check(false, "claim: group %s prefix %d not block aligned", g.spec.Name, pl)
		}
		nb := pl / g.tpp
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
		hashes := sh.c[g.hclass].hashes
		m.claimBlocks(g, rg, r.id, hashes, 0, min(keepBlocks, lo), useHost)
		m.claimBlocks(g, rg, r.id, hashes, lo, nb, useHost)
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
// group, hashes the request's: a GPU-resident block is attached to rg,
// any other is queued on m.claimPending for the restore pass.
//
//jenga:hotpath
func (m *Jenga) claimBlocks(g *group, rg *reqGroup, req RequestID, hashes []uint64, from, to int, useHost bool) {
	for b := from; b < to; b++ {
		hash := hashes[b]
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
	sh := m.hashesOf(seq)
	for _, g := range m.groups {
		if g.isVision() || !g.appliesTo(seq) {
			continue
		}
		if g.spec.Kind == model.Mamba {
			continue
		}
		v := m.buildView(g, &sh.c[g.hclass], seq.Tokens, m.anyTier())
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
