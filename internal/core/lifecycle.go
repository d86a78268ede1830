package core

import (
	"fmt"
	"math/bits"
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
	// pages is the request's one page table in the group, holding what
	// the group's kind stores: token blocks or vision-embedding blocks,
	// indexed by block number, or Mamba checkpoints in position order
	// (ckptPos).
	pages         []pageRef
	projReserved  int
	projCommitted int
	// demotedBlocks is the block index below which pages have been
	// demoted, freed, dropped or skipped.
	demotedBlocks int
	// projPrompt is the projected length of the sequence's prompt part
	// committed so far (window KV above projPrompt−Window stays in the
	// live eviction class; see Sequence.PromptLen).
	projPrompt int

	// Mamba state.
	hasWork  bool
	work     arena.SmallPageID
	nextCkpt int // next checkpoint position to pre-allocate
	ckptDone int // checkpoints finalized so far

	// Vision-embedding state (driven by EncodeImages / DropImages).
	visProj    int // projected image tokens encoded
	visCursor  int // full-token cursor for EncodeImages
	dropCursor int // full-token cursor for DropImages
	dropProj   int
}

// ckptPos is the projected position of checkpoint i of Mamba group g.
// Checkpoint pages are appended one interval apart, the last one just
// below nextCkpt, and a claim sets nextCkpt only while the table is
// empty, so the position follows from the index.
func (rg *reqGroup) ckptPos(g *group, i int) int {
	return rg.nextCkpt - (len(rg.pages)-i)*g.spec.Checkpoint()
}

// reqState is the per-request manager state, the one record core keeps
// for a request: from the first call that names it to its Release.
type reqState struct {
	id RequestID
	// touched reports the request reserved, committed, encoded images or
	// was forked. A state only lookups registered (Lookup, LookupFleet,
	// Footprint) holds block hashes and nothing else: Fork does not know
	// it as a parent, and its Release leaves the request's associated
	// free pages where they are, for a request that comes back under the
	// same ID (a migration) to pop.
	touched      bool
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
	// h is the request's block hashes (seqhash.go).
	h seqHashes
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
// slice with each group's page table, and its block-hash record are
// taken at the manager's first sight of the request and are dead at its
// Release; Release resets the state and parks it on m.spareReqs, and
// the next new request takes it from there, tables and hash arrays at
// their previous capacity. A state is only ever handed out while the
// list is empty, so parked plus live states never exceed the most
// requests that were live at once, and in steady state a request costs
// the allocator nothing. States are built reqSlabStates at a time, as
// engine's runs are: a slab is three arrays, the states, all their
// per-group slices and all their records' per-class slices.

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
	ng, nc := len(m.groups), len(m.hashClasses)
	//jenga:alloc-ok slab miss: taken only while every state handed out is live, so one slab per reqSlabStates of the live high-water, not per request
	m.reqSlab = make([]reqState, reqSlabStates)
	rgs := make([]reqGroup, reqSlabStates*ng)
	chs := make([]classHashes, reqSlabStates*nc)
	for i := range m.reqSlab {
		r := &m.reqSlab[i]
		r.g = rgs[i*ng : (i+1)*ng : (i+1)*ng]
		r.h.c = chs[i*nc : (i+1)*nc : (i+1)*nc]
		for gi, g := range m.groups {
			g.resetReq(&r.g[gi])
		}
		r.h.reset()
	}
}

// parkReq resets a released request's state and puts it on the free
// list. The caller has dropped every page the state held.
//
//jenga:hotpath
func (m *Jenga) parkReq(r *reqState) {
	for gi, g := range m.groups {
		g.resetReq(&r.g[gi])
	}
	r.h.reset()
	*r = reqState{g: r.g, h: r.h}
	m.spareReqs = append(m.spareReqs, r)
}

// resetReq returns rg to what a request that has touched nothing holds
// for group g, keeping the table's backing array. Entries are zeroed
// before the table is emptied, so slots in [len, cap) are always zero
// and growTable can extend a table by reslicing.
//
//jenga:hotpath
func (g *group) resetReq(rg *reqGroup) {
	clear(rg.pages)
	*rg = reqGroup{pages: rg.pages[:0]}
	if g.spec.Kind == model.Mamba {
		rg.nextCkpt = g.spec.Checkpoint()
	}
}

// growTable extends a page table of group g to n entries, the new ones
// unheld. When that takes a new array it is sized for every token the
// sequence is known to have, so a chunked prefill does not regrow the
// table chunk by chunk, rounded up to a power of two: the decode that
// follows usually fits, and so does the next request the recycled state
// serves, if its prompt is only a little longer.
//
//jenga:hotpath
func (m *Jenga) growTable(g *group, refs []pageRef, n int, seq *Sequence) []pageRef {
	if n <= len(refs) {
		return refs
	}
	if n > cap(refs) {
		refs = m.tableSlab.carve(refs, 1<<bits.Len(uint(max(n, (countScope(g, seq, 0, seq.Len())+g.tpp-1)/g.tpp)-1)))
	}
	return refs[:n]
}

// A request's arrays — its page tables and block hashes — are cut from
// slabs the manager owns, so that a cold batch of long prompts costs the
// allocator a slab per few hundred requests, not an array per request,
// and neither does a state that only lookups used until a later tenant
// reserves. A state keeps its arrays when it is recycled; one that
// meets a longer sequence cuts a larger array and abandons the old one
// to its slab. Sizes are rounded up to arrayQuantum so that sequences of
// similar length do not each do that. Slabs double up to maxSlab.
const (
	arrayQuantum = 64
	minSlab      = 1 << 12
	maxSlab      = 1 << 15
)

// arraySlab is what is left of the newest slab of one element type, and
// that slab's size.
type arraySlab[T any] struct {
	free []T
	size int
}

// carve returns an array for at least n entries that holds old's, the
// rest zero.
//
//jenga:hotpath
func (s *arraySlab[T]) carve(old []T, n int) []T {
	n = (n + arrayQuantum - 1) / arrayQuantum * arrayQuantum
	if n > len(s.free) {
		s.size = max(n, minSlab, min(2*s.size, maxSlab))
		//jenga:alloc-ok slab miss: one per size entries of the live high-water's arrays, not per request
		s.free = make([]T, s.size)
	}
	a := append(s.free[:0:n], old...)
	s.free = s.free[n:]
	return a
}

// appliesTo reports whether a group stores KV for the sequence's model
// (multi-model tagging, §6.1). Untagged groups apply to every sequence.
func (g *group) appliesTo(seq *Sequence) bool {
	return g.spec.Tag == "" || g.spec.Tag == seq.Tag
}

// countScope counts the tokens in seq's [lo, hi) that group g stores.
//
//jenga:hotpath
func countScope(g *group, seq *Sequence, lo, hi int) int {
	switch g.spec.Scope {
	case model.ScopeAll:
		return hi - lo
	case model.ScopeImage:
		return CountImages(seq.Span(lo, hi))
	}
	return hi - lo - CountImages(seq.Span(lo, hi))
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
		proj := countScope(g, seq, 0, seq.Len())
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
	if !m.cfg.EnablePrefixCache || seq.Len() < 2 {
		return 0
	}
	sh := m.hashesOf(m.getReq(seq), seq)
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
	p := m.lookupPrefix(seq, sh, inUse, nil)
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
		from, nb := max(g.pol.AccessedFrom(pl), g.pol.FreeBelow(gv.view.ProjCount[seq.Len()]))/g.tpp, pl/g.tpp
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
	if !m.cfg.EnablePrefixCache || seq.Len() < 2 {
		return 0 // at least one token must run
	}
	return m.lookupPrefix(seq, m.hashesOf(m.getReq(seq), seq), m.anyTier(), nil)
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
// as present by the rule given and, with a peer oracle (LookupFleet),
// also those only a peer replica's tier holds. The views it judged stay
// in m.lkViews.
//
//jenga:hotpath
func (m *Jenga) lookupPrefix(seq *Sequence, sh *seqHashes, by presence, peer PeerPresence) int {
	views := m.lkViews[:0]
	anyPresent := false
	for _, g := range m.groups {
		if g.isVision() || !g.appliesTo(seq) {
			continue // never gates KV hits
		}
		v := m.buildView(g, &sh.c[g.hclass], seq, by)
		if g.spec.Kind == model.Mamba {
			// Checkpoint presence is read through CheckpointAt in the
			// candidate scan; mark possible presence cheaply.
			anyPresent = anyPresent || g.index.len() > 0 ||
				(by == restorable && m.host.groupSize(g.idx) > 0)
		}
		if peer != nil {
			// Overlay peer presence in place, on the view's block table or
			// (Mamba) the group's checkpoint table, both in chain order so
			// the oracle's probe order is deterministic; g.lkPeer remembers
			// which entries a peer supplied, as holder+1.
			present, hashes := v.Present, sh.c[g.hclass].hashes
			if g.spec.Kind == model.Mamba {
				present = g.lkCkPresent
			}
			g.lkPeer = slices.Grow(g.lkPeer[:0], len(hashes))[:len(hashes)]
			clear(g.lkPeer)
			for k, hsh := range hashes {
				if present[k] {
					continue
				}
				if holder, ok := peer(g.spec.Name, hsh); ok {
					present[k] = true
					g.lkPeer[k] = int32(holder) + 1
					anyPresent = true
				}
			}
			if g.spec.Kind != model.Mamba {
				v.buildRuns()
			}
		}
		anyPresent = anyPresent || slices.Contains(v.Present, true)
		views = append(views, lookupView{g, v})
	}
	m.lkViews = views
	if !anyPresent {
		return 0
	}
	return longestValid(views, seq.Len()-1)
}

// longestValid returns the longest prefix of at most maxP tokens that
// every view's policy accepts as a hit, 0 when there is none. A view
// that rejects a candidate names the next one (GroupSeqView.below), so
// the scan costs O(rejections), not O(tokens between maxP and the hit).
//
//jenga:hotpath
func longestValid(views []lookupView, maxP int) int {
	p := maxP
candidates:
	for p > 0 {
		for _, gv := range views {
			// Hit prefixes must project to whole blocks in every token
			// group so claiming is block-exact. ProjCount falls by at
			// most one per token, so no candidate nearer than the excess
			// over a whole block can be aligned.
			if gv.g.spec.Kind != model.Mamba {
				if over := gv.view.ProjCount[p] % gv.g.tpp; over != 0 {
					p -= over
					continue candidates
				}
			}
			gv.view.miss = -1
			if !gv.g.pol.ValidPrefix(gv.view, p) {
				p = gv.view.below(p)
				continue candidates
			}
		}
		break
	}
	if debug.On {
		if want := longestValidLinear(views, maxP); p != want {
			check(false, "longestValid found %d, the linear scan %d", p, want)
		}
	}
	return p
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
func (m *Jenga) buildView(g *group, bh *classHashes, seq *Sequence, by presence) *GroupSeqView {
	v := &g.lkView
	v.BlockTokens = g.tpp
	if ln := seq.Len(); bh.proj == ln {
		for n := len(m.identity); n <= ln; n++ {
			//jenga:alloc-ok amortized: grows to the longest sequence ever looked up
			m.identity = append(m.identity, n)
		}
		v.ProjCount = m.identity[:ln+1]
	} else {
		if cap(g.lkProjCount) <= ln {
			//jenga:alloc-ok amortized: grows to the longest sequence ever looked up
			g.lkProjCount = make([]int, ln+1)
		}
		v.ProjCount = g.lkProjCount[:ln+1]
		shared, own, out := seq.Span(0, ln)
		i, n := 0, 0
		for _, part := range [3][]Token{shared, own, out} {
			for _, t := range part {
				if g.spec.StoresToken(t.Image()) {
					n++
				}
				i++
				v.ProjCount[i] = n
			}
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
	if upTo > seq.Len() {
		//jenga:alloc-ok caller-bug error path, never taken on the measured steady state
		return fmt.Errorf("core: reserve %d beyond sequence length %d", upTo, seq.Len())
	}
	r := m.getReq(seq)
	r.touched = true
	if !r.claimed {
		r.claimed = true
		if m.cfg.EnablePrefixCache {
			m.claim(seq, r, now)
		}
	}
	if upTo <= r.reserved {
		return nil
	}
	for gi, g := range m.groups {
		if g.isVision() || !g.appliesTo(seq) {
			continue // vision is driven by EncodeImages
		}
		rg := &r.g[gi]
		add := countScope(g, seq, r.reserved, upTo)
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
		rg.pages = m.growTable(g, rg.pages, lastBlock+1, seq)
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
			rg.pages = append(rg.pages, pageRef{id: id, held: true})
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
	r.touched = true
	if upTo > r.reserved {
		check(false, "commit %d beyond reserved %d for request %d", upTo, r.reserved, r.id)
	}
	if upTo <= r.committed {
		return
	}
	r.lastNow = now
	// Completed blocks are named by the request's record (skipped with the
	// prefix cache off: nothing then reads a block's hash or priority).
	var sh *seqHashes
	if m.cfg.EnablePrefixCache {
		sh = m.hashesOf(r, seq)
	}
	shared, own, out := seq.Span(r.committed, upTo)
	for gi, g := range m.groups {
		if g.isVision() || !g.appliesTo(seq) {
			continue
		}
		m.commitGroup(g, &r.g[gi], sh, shared, own, out, r.committed, seq.promptBound(), now)
	}
	r.committed = upTo
}

// commitGroup commits the tokens from fullBase on — shared, own, out,
// the three parts of Sequence.Span — to group g, publishing the blocks
// it completes under their hashes in sh.
//
//jenga:hotpath
func (m *Jenga) commitGroup(g *group, rg *reqGroup, sh *seqHashes, shared, own, out []Token, fullBase, promptBound int, now Tick) {
	pos := rg.projCommitted
	i := fullBase // the sequence index of part[0]
	for _, part := range [3][]Token{shared, own, out} {
		for j := 0; j < len(part); {
			// part[j:k] is the next run of tokens the group stores.
			k := len(part)
			if g.spec.Scope != model.ScopeAll {
				img := g.spec.Scope == model.ScopeImage
				for j < len(part) && part[j].Image() != img {
					j++
				}
				for k = j; k < len(part) && part[k].Image() == img; k++ {
				}
			}
			if n := k - j; n > 0 {
				if c := min(promptBound-(i+j), n); c > 0 {
					rg.projPrompt = pos + c
				}
				pos = m.commitRun(g, rg, sh, pos, n, now)
			}
			j = k
		}
		i += len(part)
	}
	rg.projCommitted = pos
	if g.spec.Kind == model.Mamba {
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
	if g.keep != nil {
		keep = g.keep.KeptBelow(pos)
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
		if db > int(pg.dead) {
			g.deadSlots += int64(db - int(pg.dead))
			pg.dead = uint8(db)
		}
	}
}

// commitRun commits n stored tokens from projected position pos to
// group g and returns the position after them. A paged group fills its
// blocks a page at a time, counting down to each block's end, and
// publishes each block it completes; a Mamba group steps from one
// checkpoint to the next.
//
//jenga:hotpath
func (m *Jenga) commitRun(g *group, rg *reqGroup, sh *seqHashes, pos, n int, now Tick) int {
	if g.spec.Kind == model.Mamba {
		for n > 0 {
			step := n
			if rg.ckptDone < len(rg.pages) {
				if d := rg.ckptPos(g, rg.ckptDone) - pos; d > 0 && d < n {
					step = d
				}
			}
			pos, n = pos+step, n-step
			if rg.ckptDone < len(rg.pages) && pos == rg.ckptPos(g, rg.ckptDone) {
				m.finalizeCheckpoint(g, rg, &sh.c[g.hclass], rg.ckptDone, now)
				rg.ckptDone++
			}
		}
		return pos
	}
	b, left := pos/g.tpp, g.tpp-pos%g.tpp
	for n > 0 {
		if b >= len(rg.pages) || !rg.pages[b].held {
			check(false, "commit into unreserved block %d", b)
		}
		take := min(left, n)
		pg := &g.pages[rg.pages[b].id]
		pg.filled += uint8(take)
		g.filledSlots += int64(take)
		pos, n = pos+take, n-take
		if left -= take; left == 0 {
			pg.set(pageComplete, true)
			if sh != nil {
				ch := &sh.c[g.hclass]
				g.hash[rg.pages[b].id] = ch.hashes[b]
				pg.priority = g.pol.BlockPriority(b, g.runKey(ch, b))
				m.publish(g, rg.pages[b].id)
			}
			b, left = b+1, g.tpp
		}
	}
	return pos
}

// finalizeCheckpoint publishes the i-th Mamba state snapshot: the state
// content at that position is copied into the pre-allocated page and
// its prefix hash (ch's entry) published for hits there (§5.3).
func (m *Jenga) finalizeCheckpoint(g *group, rg *reqGroup, ch *classHashes, i int, now Tick) {
	id := rg.pages[i].id
	check(rg.pages[i].held, "checkpoint page %d not held", i)
	pg := &g.pages[id]
	if pg.filled == 0 {
		pg.filled = 1
		g.filledSlots++
	}
	k := rg.ckptPos(g, i)/g.spec.Checkpoint() - 1
	g.hash[id] = ch.hashes[k]
	pg.set(pageComplete, true)
	pg.priority = g.pol.BlockPriority(i, g.runKey(ch, k))
	pg.lastAccess = now
	m.publish(g, id)
}

// --- Release -------------------------------------------------------------

// Release implements Manager.
//
//jenga:hotpath
func (m *Jenga) Release(seq *Sequence, cache bool) {
	r, ok := m.reqs[seq.ID]
	if !ok {
		return
	}
	cache = cache && m.cfg.EnablePrefixCache
	for gi, g := range m.groups {
		rg := &r.g[gi]
		if rg.hasWork { // a Mamba working state, released before its checkpoints
			m.pageRelease(g, rg.work, false, r.lastNow, false)
		}
		for _, ref := range rg.pages {
			if !ref.held {
				continue
			}
			switch g.spec.Kind {
			case model.VisionEmbedding: // embeddings are never cached
				m.pageRelease(g, ref.id, false, r.lastNow, false)
			case model.Mamba: // a checkpoint keeps the time it was finalized or last claimed
				m.pageRelease(g, ref.id, cache, g.pages[ref.id].lastAccess, false)
			default:
				m.pageRelease(g, ref.id, cache, r.lastNow, false)
			}
		}
		if r.touched {
			g.dropAssocList(r.id)
		}
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
	if seq.Len() < 2 {
		return // nothing to claim: at least one token must run
	}
	// An empty tier cannot assist any lookup, so skip the host passes
	// (including the hostAssist probe below) until something spilled.
	useHost, by := false, resident
	if m.host != nil && m.host.live > 0 {
		useHost, by = true, restorable
	}
	sh := m.hashesOf(r, seq)
	p := m.lookupPrefix(seq, sh, by, nil)
	// hostAssist is the model-wide prefix the tier adds beyond what
	// the GPU cache alone validates — the tokens a restore saves from
	// recompute. Measured before claiming (afterwards restored blocks
	// are GPU-resident and the difference vanishes).
	hostAssist := 0
	if useHost && p > 0 {
		if pGPU := m.lookupPrefix(seq, sh, resident, nil); pGPU < p {
			hostAssist = p - pGPU
		}
	}
	if p > 0 && !m.claimPrefix(seq, r, sh, p, now, useHost) {
		m.rollbackClaim(seq, r)
		p = m.lookupPrefix(seq, sh, resident, nil)
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
// The views of the lookup that judged p (m.lkViews) give each group's
// projected prefix, and the request's block hashes sh cover the whole
// sequence (hashesOf): a chained hash names its whole prefix, so the
// prefix's blocks are that list's head. Nothing is hashed here, nor
// sized by p but the request's page table, which a recycled state holds.
//
//jenga:hotpath
func (m *Jenga) claimPrefix(seq *Sequence, r *reqState, sh *seqHashes, p int, now Tick, useHost bool) bool {
	m.claimPending = m.claimPending[:0]
	for _, gv := range m.lkViews {
		g := gv.g
		rg, hashes, pl := &r.g[g.idx], sh.c[g.hclass].hashes, gv.view.ProjCount[p]
		head, lo, nb := g.claimSpan(pl)
		if g.spec.Kind == model.Mamba {
			if pl == 0 {
				continue
			}
			if nb == 0 {
				check(false, "claim: group %s prefix %d is not a checkpoint", g.spec.Name, pl)
			}
			if _, ok := g.index.get(hashes[lo]); !ok && useHost {
				// The lookup found it in the tier: restore it, as a block.
				m.claimPending = append(m.claimPending, pendingRestore{g: g, rg: rg, block: -1, hash: hashes[lo], pl: pl})
				continue
			}
			m.claimMamba(g, rg, hashes[lo], pl, now)
			continue
		}
		if pl%g.tpp != 0 {
			check(false, "claim: group %s prefix %d not block aligned", g.spec.Name, pl)
		}
		if len(rg.pages) != 0 {
			check(false, "claim: group %s already holds a page table", g.spec.Name)
		}
		rg.pages = m.growTable(g, rg.pages, nb, seq)
		m.claimBlocks(g, rg, r.id, hashes, 0, head, useHost)
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
			m.claimMamba(pr.g, pr.rg, pr.hash, pr.pl, now)
		}
	}
	for i := range pending {
		m.host.unpin(&pending[i].pin)
	}
	clear(pending) // drop the request-state pointers the scratch holds
	return ok
}

// claimSpan names the entries of g's hash class that a claim of pl
// projected tokens attaches (and LookupFleet fetches), [0, head) and
// [lo, nb): the always-live head (attention sinks) and the accessed
// tail of a token group's nb blocks; a Mamba group's checkpoint at pl.
//
//jenga:hotpath
func (g *group) claimSpan(pl int) (head, lo, nb int) {
	if g.spec.Kind == model.Mamba {
		if every := g.spec.Checkpoint(); pl > 0 && pl%every == 0 {
			return 0, pl/every - 1, pl / every
		}
		return 0, 0, 0
	}
	lo, nb = g.pol.AccessedFrom(pl)/g.tpp, pl/g.tpp
	if g.keep != nil {
		head = min((g.keep.KeptBelow(pl)+g.tpp-1)/g.tpp, lo)
	}
	return head, lo, nb
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
		check(pg.has(pageHashed) && g.hash[id] == hash, "claim: stale index entry")
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

// claimMamba restores the working state from the cached checkpoint
// hash names, at projected position pl.
func (m *Jenga) claimMamba(g *group, rg *reqGroup, hash uint64, pl int, now Tick) {
	id, ok := g.index.get(hash)
	check(ok, "claimMamba: checkpoint at %d vanished", pl)
	pg := &g.pages[id]
	// Touch the checkpoint (the paper updates only the last cached
	// state's access time) and re-queue it with the fresh timestamp.
	if pg.status == pageCached {
		// Re-keying a cached page re-keys its large page: losing the
		// old value may lower the max (a warm engine restart resets
		// ticks, so `now` can be below it — mark dirty), the new value
		// may raise it.
		L := g.view.LargeOf(id)
		lp := &m.large[L]
		if pg.lastAccess == lp.ts {
			lp.dirty = true
		}
		pg.lastAccess = now
		if now > lp.ts {
			lp.ts = now
		}
		if g.smallQueued() {
			g.evict.push(pageEntry{id: id, ts: now, prio: pg.priority, expired: pg.has(pageExpired)})
		}
		m.pushLargeCandidate(L)
	} else {
		pg.lastAccess = now
	}
	rg.nextCkpt = pl + g.spec.Checkpoint()
	rg.projReserved = pl
	rg.projCommitted = pl
}

// --- Vision embeddings (§6.2) ----------------------------------------------

// EncodeImages implements Manager: allocates and fills vision-embedding
// pages for every image token among the first uptoFull tokens. The
// engine calls it after running the (simulated) vision encoder.
func (m *Jenga) EncodeImages(seq *Sequence, uptoFull int, now Tick) error {
	if uptoFull > seq.Len() {
		return fmt.Errorf("core: encode %d beyond sequence length %d", uptoFull, seq.Len())
	}
	r := m.getReq(seq)
	r.touched = true
	for gi, g := range m.groups {
		if !g.isVision() || !g.appliesTo(seq) {
			continue
		}
		rg := &r.g[gi]
		if rg.visCursor >= uptoFull {
			rg.visCursor = uptoFull
			continue
		}
		images := CountImages(seq.Span(rg.visCursor, uptoFull))
		rg.pages = m.growTable(g, rg.pages, (rg.visProj+images+g.tpp-1)/g.tpp, seq)
		// Image runs fill their blocks a page at a time: left counts down
		// to the current block's end. The first token of a block finds
		// its page missing or shared; the rest find it private.
		b, left := rg.visProj/g.tpp, g.tpp-rg.visProj%g.tpp
		shared, own, out := seq.Span(rg.visCursor, uptoFull)
		fi := rg.visCursor // the sequence index of part[0]
		for _, part := range [3][]Token{shared, own, out} {
			for j := 0; j < len(part); {
				if !part[j].Image() {
					j++
					continue
				}
				if !rg.pages[b].held {
					id, err := m.allocSmall(g, r.id)
					if err != nil {
						rg.visCursor = fi + j
						return err
					}
					rg.pages[b] = pageRef{id: id, held: true}
				} else if pg := &g.pages[rg.pages[b].id]; pg.ref > 1 {
					// Copy-on-write: the partial embedding block is shared
					// with a fork sibling; privatize before writing into it.
					id, err := m.cowPage(g, rg.pages[b].id, r.id)
					if err != nil {
						rg.visCursor = fi + j
						return err
					}
					rg.pages[b] = pageRef{id: id, held: true}
				}
				k := j
				for k < len(part) && k-j < left && part[k].Image() {
					k++
				}
				take := k - j
				pg := &g.pages[rg.pages[b].id]
				pg.filled += uint8(take)
				g.filledSlots += int64(take)
				rg.visProj += take
				if left -= take; left == 0 {
					b, left = b+1, g.tpp
				}
				j = k
			}
			fi += len(part)
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
	if !ok || !r.touched {
		return
	}
	for gi, g := range m.groups {
		if !g.isVision() || !g.appliesTo(seq) {
			continue
		}
		rg := &r.g[gi]
		if uptoFull > seq.Len() {
			uptoFull = seq.Len()
		}
		if rg.dropCursor < uptoFull {
			rg.dropProj += CountImages(seq.Span(rg.dropCursor, uptoFull))
		}
		rg.dropCursor = uptoFull
		fullBlocksBelow := rg.dropProj / g.tpp
		for b := rg.demotedBlocks; b < fullBlocksBelow && b < len(rg.pages); b++ {
			if rg.pages[b].held {
				m.pageRelease(g, rg.pages[b].id, false, r.lastNow, false)
				rg.pages[b].held = false
			}
		}
		if fullBlocksBelow > rg.demotedBlocks {
			rg.demotedBlocks = fullBlocksBelow
		}
	}
}
