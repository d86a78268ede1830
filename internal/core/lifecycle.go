package core

import (
	"fmt"
	"math/bits"
	"slices"

	"jenga/internal/arena"
	"jenga/internal/debug"
	"jenga/internal/model"
)

// pageRef is a request's handle on one block's page, four bytes: v is
// the page's ID plus one while the request holds it, and 0 for blocks
// the request skipped (below a window at claim time) or has already
// demoted. So the zero ref is unheld, and a zeroed table (reqGroup.reset,
// growTable's reslice) holds nothing. An unheld ref names no page.
type pageRef struct {
	v arena.SmallPageID
}

// heldRef is the handle on page id, held.
func heldRef(id arena.SmallPageID) pageRef { return pageRef{v: id + 1} }

// held reports whether the request holds the block's page.
func (r pageRef) held() bool { return r.v != 0 }

// id is the page a held ref names.
func (r pageRef) id() arena.SmallPageID { return r.v - 1 }

// reqGroup is the per-(request, group) state.
type reqGroup struct {
	// table is the request's one page table in the group, over entries
	// [base, end()): entry k holds what the group's kind stores for
	// projected positions [k, k+1) × its stride — a token block, a
	// vision-embedding block, or the Mamba state checkpointed at (k+1) ×
	// the interval. Entries below base are unheld: a window group's table
	// starts at its claim's first accessed block and slides up past the
	// blocks its window has left (growTable). Only reqGroup's methods
	// index it; everything else reads at, set and end.
	table         []pageRef
	base          int
	projReserved  int
	projCommitted int
	// demotedBlocks is the block index below which pages have been
	// demoted, freed, dropped or skipped.
	demotedBlocks int
	// projPrompt is the projected length of the sequence's prompt part
	// committed so far (KV above two dependency horizons below it stays
	// in the live eviction class; see Sequence.PromptLen).
	projPrompt int

	// Mamba state: the working state, and the checkpoints below ckptDone
	// that are finalized (or were skipped by the claim).
	work     pageRef
	ckptDone int

	// Vision-embedding state (driven by EncodeImages / DropImages): the
	// embeddings are the group's reserved and committed projection.
	visCursor  int // full-token cursor for EncodeImages
	dropCursor int // full-token cursor for DropImages
	dropProj   int
}

// at is entry k's ref; an entry outside [base, end) is unheld.
//
//jenga:hotpath
func (rg *reqGroup) at(k int) pageRef {
	if i := k - rg.base; uint(i) < uint(len(rg.table)) {
		return rg.table[i]
	}
	return pageRef{}
}

// set stores ref as entry k; an entry outside [base, end) panics.
//
//jenga:hotpath
func (rg *reqGroup) set(k int, ref pageRef) { rg.table[k-rg.base] = ref }

// end is one past the table's last entry.
//
//jenga:hotpath
func (rg *reqGroup) end() int { return rg.base + len(rg.table) }

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
	// images counts the image tokens among the sequence's first
	// imagesOf: a call that projects the sequence onto an image- or
	// text-scoped group (seqScope) extends the count over the tokens
	// appended since, so — a live sequence's tokens being only ever
	// appended to — each is counted once for the request's life, the
	// prompt's at its first such call.
	images, imagesOf int
	g                []reqGroup
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
		r.h.reset()
	}
}

// parkReq resets a released request's state and puts it on the free
// list. The caller has dropped every page the state held.
//
//jenga:hotpath
func (m *Jenga) parkReq(r *reqState) {
	for gi := range r.g {
		r.g[gi].reset()
	}
	m.resetHashes(&r.h)
	*r = reqState{g: r.g, h: r.h}
	m.spareReqs = append(m.spareReqs, r)
}

// reset returns rg to what a request that has touched nothing holds,
// keeping the table's backing array. Entries are zeroed before the table
// is emptied, so slots in [len, cap) are always zero and growTable can
// extend a table by reslicing.
//
//jenga:hotpath
func (rg *reqGroup) reset() {
	clear(rg.table)
	*rg = reqGroup{table: rg.table[:0]}
}

// growTable extends rg, a request's table in group g, to end at entry
// n, the new entries unheld. When the array is too short the table first
// slides down to its lowest held entry (to from, the first entry the
// caller writes, when none below it is held), zeroing the slots it
// vacates; only if that is not enough does it take a new array from s,
// sized for what the request can hold at once over the whole sequence
// (tableEntries), never less than it needs now, rounded up to a power of
// two: a chunked prefill does not regrow the table chunk by chunk, the
// decode that follows usually fits, and so does the next request the
// recycled state serves, if its prompt is only a little longer.
//
//jenga:hotpath
func (rg *reqGroup) growTable(s *arraySlab[pageRef], g *group, n, from int, sc *seqScope) {
	if n-rg.base > cap(rg.table) {
		k := rg.base
		for k < min(from, rg.end()) && !rg.table[k-rg.base].held() {
			k++
		}
		if d := k - rg.base; d > 0 {
			kept := copy(rg.table, rg.table[d:])
			clear(rg.table[kept:])
			rg.table, rg.base = rg.table[:kept], k
		}
		if need := n - rg.base; need > cap(rg.table) {
			rg.table = s.carve(rg.table, 1<<bits.Len(uint(max(need, g.tableEntries(sc.proj(g)))-1)))
		}
	}
	if n > rg.end() {
		rg.table = rg.table[:n-rg.base]
	}
}

// tableEntries is how many entries of g's table a request holds at once
// over proj projected tokens: all of them, but in a group that demotes
// below its dependency horizon and keeps no always-live head, the live
// span above the horizon plus the block it cuts and the reservation
// ahead. A Mamba group's checkpoints stay held to the end.
func (g *group) tableEntries(proj int) int {
	whole := (proj + g.stride - 1) / g.stride
	if g.keep != nil || g.recurrent {
		return whole
	}
	return min(whole, (proj-g.pol.FreeBelow(proj))/g.stride+2)
}

// A request's arrays — its page tables and block hashes — are cut from
// slabs the manager owns, so that a cold batch of long prompts costs the
// allocator a slab per few hundred requests, not an array per request,
// and neither does a state that only lookups used until a later tenant
// reserves. A state keeps its arrays when it is recycled; one that
// meets a longer sequence cuts a larger array and abandons the old one
// to its slab. Callers size what they carve to a power of two (a hash
// array to at least minHashArray entries), so sequences of similar
// length do not each do that. Slabs double up to maxSlab.
const (
	minHashArray = 8
	minSlab      = 1 << 12
	maxSlab      = 1 << 15
)

// arraySlab is what is left of the newest slab of one element type,
// that slab's size, and the entries carved from all of them so far.
type arraySlab[T any] struct {
	free   []T
	size   int
	carved int
}

// carve returns an array of n entries that holds old's, the rest zero.
//
//jenga:hotpath
func (s *arraySlab[T]) carve(old []T, n int) []T {
	if n > len(s.free) {
		s.size = max(n, minSlab, min(2*s.size, maxSlab))
		//jenga:alloc-ok slab miss: one per size entries of the live high-water's arrays, not per request
		s.free = make([]T, s.size)
	}
	a := append(s.free[:0:n], old...)
	s.free, s.carved = s.free[n:], s.carved+n
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

// seqScope is a sequence's projected length per group, its image tokens
// counted at most once per call (Footprint, growTable) — through the
// request's record r, which counts only the tokens appended since its
// last count, or without a record (r nil) by a scan of the sequence.
type seqScope struct {
	seq    *Sequence
	r      *reqState
	images int // -1 until counted
}

func wholeSeq(seq *Sequence, r *reqState) seqScope { return seqScope{seq: seq, r: r, images: -1} }

// proj is the number of the sequence's tokens group g stores.
//
//jenga:hotpath
func (s *seqScope) proj(g *group) int {
	n := s.seq.Len()
	if g.spec.Scope == model.ScopeAll {
		return n
	}
	if s.images < 0 {
		s.images = s.countImages()
	}
	if g.spec.Scope == model.ScopeImage {
		return s.images
	}
	return n - s.images
}

// countImages counts the sequence's image tokens, through the record
// when there is one (a jengadebug build recounts them all and panics on
// a difference: a token changed under the count).
//
//jenga:hotpath
func (s *seqScope) countImages() int {
	seq, r, n := s.seq, s.r, s.seq.Len()
	if r == nil {
		return CountImages(seq.Span(0, n))
	}
	if n < r.imagesOf { // not an extension: a truncated sequence
		r.images, r.imagesOf = 0, 0
	}
	r.images += CountImages(seq.Span(r.imagesOf, n))
	r.imagesOf = n
	if debug.On {
		if all := CountImages(seq.Span(0, n)); all != r.images {
			check(false, "request %d's sequence holds %d image tokens, its record counted %d", r.id, all, r.images)
		}
	}
	return r.images
}

// Footprint implements Manager: what admitting seq would newly occupy —
// the pages it holds in each group at its steady state (held) less
// those a live request already holds in use.
//
//jenga:hotpath
func (m *Jenga) Footprint(seq *Sequence) int64 {
	sc := wholeSeq(seq, m.reqs[seq.ID])
	return m.footprint(&sc)
}

// footprint is Footprint over sc, the sequence's scope.
//
//jenga:hotpath
func (m *Jenga) footprint(sc *seqScope) int64 {
	var total int64
	for _, g := range m.groups {
		if !g.appliesTo(sc.seq) {
			continue
		}
		if proj := sc.proj(g); proj > 0 {
			total += int64(g.held(proj, m.cfg.EnablePrefixCache)) * int64(g.smallBytes)
		}
	}
	return total - m.sharedPrefixBytes(sc.seq)
}

// held is how many pages a request holds in g once p projected tokens
// are committed: a Mamba group's working state and, with the prefix
// cache (ckpts), a checkpoint per stride; any other group's live span
// above its policy's horizon, a page of slack for the block a sliding
// horizon cuts, and the always-live head pages under the horizon.
// Vision embeddings all exist right after encoding (§6.2a).
func (g *group) held(p int, ckpts bool) int {
	if g.recurrent {
		if ckpts {
			return 1 + p/g.stride
		}
		return 1
	}
	horizon := g.pol.FreeBelow(p)
	pages := (p - horizon + g.tpp - 1) / g.tpp
	if g.slides {
		pages++
	}
	if g.keep != nil {
		pages += min((g.keep.KeptBelow(p)+g.tpp-1)/g.tpp, horizon/g.tpp)
	}
	return pages
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
// least that — and per group the blocks of it that the claim attaches
// and the request still holds once its whole sequence is committed are
// taken off: an always-live head, and the blocks from the first one the
// claim reads that are above the dependency horizon of the whole
// sequence (a Mamba group's horizon is the sequence's end, so a
// checkpoint hit, which attaches no page, takes nothing off). With
// nothing in use the result is 0.
//
//jenga:hotpath
func (m *Jenga) probeShared(seq *Sequence, sh *seqHashes) int64 {
	p := m.lookupPrefix(seq, sh, inUse, nil)
	if p == 0 {
		return 0
	}
	var shared int64
	for _, gv := range m.lkViews {
		g, v := gv.g, gv.view
		head, lo, nb := g.claimSpan(v.ProjCount[p])
		from := min(max(lo, g.pol.FreeBelow(v.ProjCount[seq.Len()])/g.stride), nb)
		for _, span := range [2][]bool{v.Present[:head], v.Present[from:nb]} {
			for _, used := range span {
				if used {
					shared += int64(g.smallBytes)
				}
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
		if g.vision || !g.appliesTo(seq) {
			continue // never gates KV hits
		}
		v := m.buildView(g, &sh.c[g.hclass], seq, by)
		if peer != nil {
			// Overlay peer presence in place, in chain order so the
			// oracle's probe order is deterministic; g.lkPeer remembers
			// which entries a peer supplied, as holder+1.
			ch := &sh.c[g.hclass]
			g.lkPeer = slices.Grow(g.lkPeer[:0], ch.blocks())[:ch.blocks()]
			clear(g.lkPeer)
			for k := range g.lkPeer {
				if v.Present[k] {
					continue
				}
				if holder, ok := peer(g.spec.Name, ch.at(k)); ok {
					v.Present[k] = true
					g.lkPeer[k] = int32(holder) + 1
				}
			}
			v.buildRuns()
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
			// Hit prefixes must project to whole entries — blocks, or
			// Mamba checkpoints — in every group so claiming is
			// block-exact. ProjCount falls by at most one per token, so no
			// candidate nearer than the excess over a whole entry can be
			// aligned.
			if over := gv.view.ProjCount[p] % gv.view.BlockTokens; over != 0 {
				p -= over
				continue candidates
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
	v.BlockTokens = g.stride
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
	v.Present = m.fillPresent(g, v.Present, bh, by)
	v.buildRuns()
	return v
}

// fillPresent sizes dst to ch's entries and marks each entry whose
// block is present by the rule given.
//
//jenga:hotpath
func (m *Jenga) fillPresent(g *group, dst []bool, ch *classHashes, by presence) []bool {
	n := ch.blocks()
	if cap(dst) < n {
		//jenga:alloc-ok amortized: grows to the longest sequence ever looked up
		dst = make([]bool, n)
	}
	dst = dst[:n]
	for k := range dst {
		h := ch.at(k)
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
	sc := wholeSeq(seq, r)
	for gi, g := range m.groups {
		if g.vision || !g.appliesTo(seq) {
			continue // vision is driven by EncodeImages
		}
		rg := &r.g[gi]
		add := countScope(g, seq, r.reserved, upTo)
		if add == 0 {
			continue
		}
		var err error
		if g.recurrent {
			err = m.reserveMamba(g, rg, r.id, &sc, rg.projReserved+add)
		} else {
			err = m.reserveBlocks(g, rg, r.id, &sc, rg.projReserved+add)
		}
		if err != nil {
			return err
		}
	}
	r.reserved = upTo
	return nil
}

// reserveBlocks holds a private page for every block of g's table that
// projected positions up to newProj reach and that the commits after
// rg's committed position will write: a missing block gets a fresh page,
// and one still shared with a fork sibling (ref > 1) is privatized
// before those writes land (copy-on-write). The scan starts at the
// committed tail block, not the reserved one, for that reason; blocks
// between the two are always held, so with no sharing the extra
// iterations fall through the held-page skip. Blocks are taken in
// ascending order.
//
//jenga:hotpath
func (m *Jenga) reserveBlocks(g *group, rg *reqGroup, req RequestID, sc *seqScope, newProj int) error {
	lastBlock, from := (newProj-1)/g.tpp, min(rg.projCommitted, rg.projReserved)/g.tpp
	rg.growTable(&m.tableSlab, g, lastBlock+1, from, sc)
	for b := from; b <= lastBlock; b++ {
		var id arena.SmallPageID
		var err error
		switch ref := rg.at(b); {
		case !ref.held():
			id, err = m.allocSmall(g, req)
		case g.pages[ref.id()].ref > 1:
			id, err = m.cowPage(g, ref.id(), req)
		default:
			continue // a private page from a previous chunk
		}
		if err != nil {
			return err
		}
		rg.set(b, heldRef(id))
	}
	rg.projReserved = newProj
	return nil
}

// reserveMamba ensures a working state page exists and, with the prefix
// cache on, pre-allocates a page for every checkpoint up to newProj that
// is not finalized yet: the pages the commits crossing those boundaries
// write the state into.
//
//jenga:hotpath
func (m *Jenga) reserveMamba(g *group, rg *reqGroup, req RequestID, sc *seqScope, newProj int) error {
	if !rg.work.held() {
		id, err := m.allocSmall(g, req)
		if err != nil {
			return err
		}
		rg.work = heldRef(id)
		pg := &g.pages[id]
		pg.filled = 1 // the working state occupies the page
		g.filledSlots++
	}
	if m.cfg.EnablePrefixCache {
		rg.growTable(&m.tableSlab, g, newProj/g.stride, rg.ckptDone, sc)
		for k := rg.ckptDone; k < rg.end(); k++ {
			if rg.at(k).held() {
				continue
			}
			id, err := m.allocSmall(g, req)
			if err != nil {
				return err
			}
			rg.set(k, heldRef(id))
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
		if g.vision || !g.appliesTo(seq) {
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
	if g.recurrent {
		return
	}
	// Demote blocks that fell outside the dependency horizon (§5.3).
	freeBelow := g.pol.FreeBelow(pos)
	fullBlocksBelow := freeBelow / g.tpp
	// Blocks inside the prompt's final window serve future prefix hits
	// at prompt boundaries — and a shared-prefix boundary (e.g. the
	// document before a per-request question) can sit anywhere within
	// that window, needing its own window below it. KV below 2×Window
	// under the prompt end — two horizons down — is truly expired.
	expireBelow := g.pol.FreeBelow(g.pol.FreeBelow(rg.projPrompt)) - 2*g.tpp
	// Policies with an always-live head region (attention sinks) keep
	// those pages held regardless of the window.
	keep := 0
	if g.keep != nil {
		keep = g.keep.KeptBelow(pos)
	}
	for b := rg.demotedBlocks; b < fullBlocksBelow; b++ {
		if ref := rg.at(b); ref.held() {
			if b*g.tpp < keep {
				continue // always-live head page stays held
			}
			// Out-of-window KV: cached for shorter-prefix hits but
			// first in line for eviction (§3.3, §5.3).
			expired := (b+1)*g.tpp <= expireBelow
			m.pageRelease(g, ref.id(), m.cfg.EnablePrefixCache, now, expired)
			rg.set(b, pageRef{})
		}
	}
	if fullBlocksBelow > rg.demotedBlocks {
		rg.demotedBlocks = fullBlocksBelow
	}
	// Dead slots in the boundary block share a page with live slots.
	if db, ref := freeBelow%g.tpp, rg.at(fullBlocksBelow); db > 0 && ref.held() {
		if pg := &g.pages[ref.id()]; db > int(pg.dead) {
			g.deadSlots += int64(db - int(pg.dead))
			pg.dead = uint8(db)
		}
	}
}

// commitRun commits n stored tokens from projected position pos to
// group g and returns the position after them. A paged group fills its
// blocks a page at a time, counting down to each block's end, and
// publishes each block it completes (sh nil: none); a Mamba group steps
// from one reserved checkpoint to the next.
//
//jenga:hotpath
func (m *Jenga) commitRun(g *group, rg *reqGroup, sh *seqHashes, pos, n int, now Tick) int {
	if g.recurrent {
		for n > 0 {
			step, next, reserved := n, (rg.ckptDone+1)*g.stride, rg.ckptDone < rg.end()
			if d := next - pos; reserved && d > 0 && d < n {
				step = d
			}
			pos, n = pos+step, n-step
			if reserved && pos == next {
				m.finalizeCheckpoint(g, rg, &sh.c[g.hclass], now)
			}
		}
		return pos
	}
	b, left := pos/g.tpp, g.tpp-pos%g.tpp
	for n > 0 {
		ref := rg.at(b)
		if !ref.held() {
			check(false, "commit into unreserved block %d", b)
		}
		take := min(left, n)
		pg := &g.pages[ref.id()]
		pg.filled += uint8(take)
		g.filledSlots += int64(take)
		pos, n = pos+take, n-take
		if left -= take; left == 0 {
			pg.set(pageComplete, true)
			if sh != nil {
				ch := &sh.c[g.hclass]
				g.hash[ref.id()] = ch.at(b)
				g.setPriority(ref.id(), ch, b)
				m.publish(g, ref.id())
			}
			b, left = b+1, g.tpp
		}
	}
	return pos
}

// finalizeCheckpoint publishes the next Mamba state snapshot, entry
// ckptDone: the state content at that position is copied into the
// pre-allocated page and its prefix hash (ch's entry) published for hits
// there (§5.3).
func (m *Jenga) finalizeCheckpoint(g *group, rg *reqGroup, ch *classHashes, now Tick) {
	k := rg.ckptDone
	ref := rg.at(k)
	check(ref.held(), "checkpoint page %d not held", k)
	id := ref.id()
	pg := &g.pages[id]
	if pg.filled == 0 {
		pg.filled = 1
		g.filledSlots++
	}
	g.hash[id] = ch.at(k)
	pg.set(pageComplete, true)
	g.setPriority(id, ch, k)
	pg.lastAccess = now
	m.publish(g, id)
	rg.ckptDone++
}

// setPriority stores the §5.1 tie-break value of entry k of ch, the
// block page id completes, where the group keeps one (group.prio): a
// group nothing reads it in asks its policy for none.
func (g *group) setPriority(id arena.SmallPageID, ch *classHashes, k int) {
	if g.prio != nil {
		g.prio[id] = g.pol.BlockPriority(k, g.runKey(ch, k))
	}
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
		if rg.work.held() { // a Mamba working state, released before its checkpoints
			m.pageRelease(g, rg.work.id(), false, r.lastNow, false)
		}
		for _, ref := range rg.table {
			if !ref.held() {
				continue
			}
			at := r.lastNow
			if g.recurrent { // a checkpoint keeps the time it was finalized or last claimed
				at = g.pages[ref.id()].lastAccess
			}
			m.pageRelease(g, ref.id(), cache && !g.vision, at, false) // embeddings are never cached
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

// pendingRestore is one host-tier block a claim must bring back: entry
// block of rg's table, a token block or a Mamba checkpoint. pin is the
// source page's tier pin.
type pendingRestore struct {
	g     *group
	rg    *reqGroup
	block int
	hash  uint64
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
	sc := wholeSeq(seq, r)
	for _, gv := range m.lkViews {
		g := gv.g
		rg, ch, pl := &r.g[g.idx], &sh.c[g.hclass], gv.view.ProjCount[p]
		head, lo, nb := g.claimSpan(pl)
		if pl%g.stride != 0 {
			check(false, "claim: group %s prefix %d not block aligned", g.spec.Name, pl)
		}
		if len(rg.table) != 0 {
			check(false, "claim: group %s already holds a page table", g.spec.Name)
		}
		if g.recurrent {
			if pl == 0 {
				continue
			}
			if _, ok := g.index.get(ch.at(lo)); !ok && useHost {
				// The lookup found it in the tier: restore it, as a block.
				m.claimPending = append(m.claimPending, pendingRestore{g: g, rg: rg, block: lo, hash: ch.at(lo)})
				continue
			}
			m.claimMamba(g, rg, lo, ch.at(lo), now)
			continue
		}
		if head == 0 {
			rg.base = lo // the table starts at the first block the claim reads
		}
		rg.growTable(&m.tableSlab, g, nb, rg.base, &sc)
		m.claimBlocks(g, rg, r.id, ch, 0, head, useHost)
		m.claimBlocks(g, rg, r.id, ch, lo, nb, useHost)
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
		if !pr.g.recurrent {
			pr.rg.set(pr.block, heldRef(id))
		} else {
			// Mamba checkpoint: park the restored page as published
			// cache, then claim it through the normal path.
			m.pageRelease(pr.g, id, true, now, false)
			m.claimMamba(pr.g, pr.rg, pr.block, pr.hash, now)
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
// tail of the nb entries below pl — a token group's blocks, or a Mamba
// group's checkpoint at pl (the policy accesses only the latest state,
// so the span is that one entry at a checkpoint and empty elsewhere).
//
//jenga:hotpath
func (g *group) claimSpan(pl int) (head, lo, nb int) {
	lo, nb = g.pol.AccessedFrom(pl)/g.stride, pl/g.stride
	if g.keep != nil {
		head = min((g.keep.KeptBelow(pl)+g.tpp-1)/g.tpp, lo)
	}
	return head, lo, nb
}

// claimBlocks is claimPrefix's pass 1 over blocks [from, to) of one
// group, ch the request's hashes of its class: a GPU-resident block is
// attached to rg, any other is queued on m.claimPending for the restore
// pass.
//
//jenga:hotpath
func (m *Jenga) claimBlocks(g *group, rg *reqGroup, req RequestID, ch *classHashes, from, to int, useHost bool) {
	for b := from; b < to; b++ {
		hash := ch.at(b)
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
		rg.set(b, heldRef(id))
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
		if g.vision || !g.appliesTo(seq) {
			continue
		}
		rg := &r.g[gi]
		for _, ref := range rg.table {
			if ref.held() {
				m.pageRelease(g, ref.id(), m.cfg.EnablePrefixCache, g.pages[ref.id()].lastAccess, false)
			}
		}
		rg.reset()
	}
	r.restoredTokens = 0
	r.restoredBytes = 0
}

// claimMamba restores the working state from the cached checkpoint
// hash names, entry k of the table: the checkpoints up to it are done,
// and the table's entries for them stay unheld, as a window group's
// skipped blocks do.
func (m *Jenga) claimMamba(g *group, rg *reqGroup, k int, hash uint64, now Tick) {
	id, ok := g.index.get(hash)
	check(ok, "claimMamba: checkpoint %d vanished", k)
	pg := &g.pages[id]
	// Touch the checkpoint (the paper updates only the last cached
	// state's access time) and re-queue it with the fresh timestamp.
	if pg.status == pageCached {
		// Re-keying a cached page re-keys its large page, as the page
		// leaving the cached set and entering it again would.
		L := g.view.LargeOf(id)
		m.cacheRemove(L, pg)
		pg.lastAccess = now
		m.cacheAdd(L, now, pg.has(pageExpired))
		if g.smallQueued() {
			g.evict.push(pageEntry{id: id, ts: now, prio: g.prio[id], expired: pg.has(pageExpired)})
		}
		m.pushLargeCandidate(L)
	} else {
		pg.lastAccess = now
	}
	rg.ckptDone = k + 1
	rg.projReserved = rg.ckptDone * g.stride
	rg.projCommitted = rg.projReserved
}

// --- Vision embeddings (§6.2) ----------------------------------------------

// EncodeImages implements Manager: reserves and fills vision-embedding
// pages for every image token among the first uptoFull tokens, as
// Reserve and Commit do a token group's blocks (the embeddings are never
// hashed). The engine calls it after running the (simulated) vision
// encoder, while admitting the request: on an error it releases the
// request.
func (m *Jenga) EncodeImages(seq *Sequence, uptoFull int, now Tick) error {
	if uptoFull > seq.Len() {
		return fmt.Errorf("core: encode %d beyond sequence length %d", uptoFull, seq.Len())
	}
	r := m.getReq(seq)
	r.touched = true
	sc := wholeSeq(seq, r)
	for gi, g := range m.groups {
		rg := &r.g[gi]
		if !g.vision || !g.appliesTo(seq) || rg.visCursor >= uptoFull {
			continue
		}
		if images := countScope(g, seq, rg.visCursor, uptoFull); images > 0 {
			if err := m.reserveBlocks(g, rg, r.id, &sc, rg.projReserved+images); err != nil {
				return err
			}
			shared, own, out := seq.Span(rg.visCursor, uptoFull)
			m.commitGroup(g, rg, nil, shared, own, out, rg.visCursor, seq.promptBound(), now)
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
		if !g.vision || !g.appliesTo(seq) {
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
		for b := rg.demotedBlocks; b < min(fullBlocksBelow, rg.end()); b++ {
			if ref := rg.at(b); ref.held() {
				m.pageRelease(g, ref.id(), false, r.lastNow, false)
				rg.set(b, pageRef{})
			}
		}
		if fullBlocksBelow > rg.demotedBlocks {
			rg.demotedBlocks = fullBlocksBelow
		}
	}
}
