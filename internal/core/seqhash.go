package core

import (
	"math/bits"
	"slices"

	"jenga/internal/debug"
	"jenga/internal/model"
)

// A request's blocks are hashed once. Lookup, LookupFleet, the claim,
// Footprint's admission probe and Commit's publication all need the
// chained hash of every complete block of the sequence — this record is
// their one source (a fork child's is built by its first commit or
// lookup). It is part of the request's state (reqState.h), which lives
// from the first of those calls that names the request to its Release —
// whether or not it ever reserved anything — and each call folds in
// only the tokens appended since the last. A live sequence's tokens are
// only ever appended to — growth may move Out's array but never
// rewrites a token — and IDs are unique among live requests, so a
// record cannot describe another request's tokens as long as every
// request the manager was shown is released: that is the caller's side
// of the contract (Manager.Release). A token that changed under KV the
// request has committed is that contract broken — the sequence reads a
// buffer its owner already handed back — and a jengadebug build panics
// on it (the engine poisons returned token buffers) instead of hashing
// the sequence afresh.
//
// A block's hash depends on the tokens and the block size, not on the
// layer type, so groups that store the same tokens in blocks of the
// same size read one list: a hash class is one (tag, scope, stride)
// among the manager's KV groups, and a record holds one classHashes
// per class. A Mamba group's "block" is its checkpoint interval — its
// pages hold states, not tokens, and a hit lands on a checkpoint.
//
// A sequence's Shared head is hashed once per manager, not once per
// request: the head's record is a headMemo, keyed by the head's array,
// its length and the sequence's Tag, and every live record over that
// head names it, continues the chain from the memo's state after the
// head's last token and stores only the entries of the blocks past the
// head's whole ones. Every read of an entry goes through at and runAt,
// which take the head's entries from the memo. A memo is counted by the
// records that name it and dropped with the last of them, and the head
// must not change while it lives (a jengadebug build compares the head
// with the memo's checksum at each new record). A head shorter than
// the smallest stride (headMin) has no whole block in any class and is
// hashed with the request's own tokens.
//
// A record is recycled with its request state (parkReq), and a memo on
// the manager's spare list (dropHead), both keeping their arrays.

type hashClass struct {
	tag    string
	scope  model.TokenScope
	stride int
}

// classHashes is one request's hashes for one class.
type classHashes struct {
	// chain is the hash chain over the proj projected tokens folded in;
	// entry k, at(k), is its value after the first (k+1) × stride of
	// them. head holds the entries of the borrowed head's whole blocks
	// (the memo's array, nil without one) and hashes the rest.
	chain  uint64
	proj   int
	head   []uint64
	hashes []uint64
	// run is the chain where the current run of the class's tokens
	// (consecutive positions) began, runAt(k) its value for block k's
	// run: BlockPriority's run key, split as head and hashes are. Only a
	// class that skips tokens keeps runs (group.runKey).
	run      uint64
	headRuns []uint64
	runs     []uint64
}

// seqHashes is one request's block hashes: n of the sequence's tokens
// are folded in, last is the n-th.
type seqHashes struct {
	n    int
	last Token
	c    []classHashes
	// head is the memo of the Shared head the record continues (nil:
	// none).
	head *headMemo
	// shared is sharedPrefixBytes' answer for those n tokens at cache
	// generation sharedAt (0: none yet).
	shared   int64
	sharedAt uint64
}

// headKey names a Shared head: its array, its length and the tag of
// the sequences that read it (the tag decides which classes apply).
type headKey struct {
	toks *Token
	n    int
	tag  string
}

// headMemo is the record of a Shared head's tokens, read by refs live
// records. sum is the head's PrefixHash in a jengadebug build, and next
// the next spare memo while this one is spare.
type headMemo struct {
	key  headKey
	refs int
	h    seqHashes
	sum  uint64
	next *headMemo
}

// blocks is the number of entries: whole strides folded in.
func (ch *classHashes) blocks() int { return len(ch.head) + len(ch.hashes) }

// at is entry k's hash: the chain after block k.
//
//jenga:hotpath
func (ch *classHashes) at(k int) uint64 {
	if k < len(ch.head) {
		return ch.head[k]
	}
	return ch.hashes[k-len(ch.head)]
}

// runAt is entry k's run key.
//
//jenga:hotpath
func (ch *classHashes) runAt(k int) uint64 {
	if k < len(ch.headRuns) {
		return ch.headRuns[k]
	}
	return ch.runs[k-len(ch.headRuns)]
}

// stores reports whether the class's groups store KV for t.
func (c *hashClass) stores(t Token) bool {
	return c.scope == model.ScopeAll || (c.scope == model.ScopeImage) == t.Image()
}

// hashClassOf returns the index of the hash class of g, whose table
// entries are stride projected tokens apart, registering it at the
// manager's construction; -1 for a vision-embedding group, which no
// lookup reads.
func (m *Jenga) hashClassOf(g *model.KVGroup, stride int) int {
	if g.Kind == model.VisionEmbedding {
		return -1
	}
	c := hashClass{tag: g.Tag, scope: g.Scope, stride: stride}
	if i := slices.Index(m.hashClasses, c); i >= 0 {
		return i
	}
	m.hashClasses = append(m.hashClasses, c)
	return len(m.hashClasses) - 1
}

// hashesOf returns the block hashes of r, seq's state, with all of
// seq's tokens folded in.
//
//jenga:hotpath
func (m *Jenga) hashesOf(r *reqState, seq *Sequence) *seqHashes {
	sh := &r.h
	ln := seq.Len()
	if sh.n > ln || (sh.n > 0 && seq.at(sh.n-1) != sh.last) {
		if debug.On && sh.n <= min(ln, r.committed) {
			check(false, "request %d's token %d changed under its committed KV: the sequence reads a handed-back buffer", r.id, sh.n-1)
		}
		// Not an extension of what was hashed (a caller reusing an ID it
		// never released, a truncated sequence): start over, the image
		// count too.
		m.resetHashes(sh)
		r.images, r.imagesOf = 0, 0
	}
	if sh.n == ln {
		return sh
	}
	if sh.n == 0 && len(seq.Shared) >= m.headMin {
		m.borrowHead(sh, seq)
	}
	shared, own, out := seq.Span(sh.n, ln)
	m.fold(sh, seq.Tag, [3][]Token{shared, own, out})
	sh.n, sh.last, sh.sharedAt = ln, seq.at(ln-1), 0
	return sh
}

// fold folds parts, the tokens that follow sh's n, into the record's
// classes that apply to tag; the caller advances n and last.
//
//jenga:hotpath
func (m *Jenga) fold(sh *seqHashes, tag string, parts [3][]Token) {
	add := len(parts[0]) + len(parts[1]) + len(parts[2])
	for ci, c := range m.hashClasses {
		if c.tag != "" && c.tag != tag {
			continue
		}
		ch := &sh.c[ci]
		keepRuns := c.scope != model.ScopeAll
		own := (ch.proj+add)/c.stride - len(ch.head)
		if own > cap(ch.hashes) {
			ch.hashes = m.hashSlab.carve(ch.hashes, hashArrayLen(own))
		}
		if keepRuns && own > cap(ch.runs) {
			ch.runs = m.hashSlab.carve(ch.runs, hashArrayLen(own))
		}
		// left counts down the class's tokens to the current block's end.
		h, pl, run, left := ch.chain, ch.proj, ch.run, c.stride-ch.proj%c.stride
		if !keepRuns {
			// Every token is the class's: hash block by block.
			for _, part := range parts {
				for len(part) > 0 {
					n := min(left, len(part))
					for _, t := range part[:n] {
						h = hashChain(h, t)
					}
					part, pl = part[n:], pl+n
					if left -= n; left == 0 {
						ch.hashes = append(ch.hashes, h)
						left = c.stride
					}
				}
			}
			ch.chain, ch.proj = h, pl
			continue
		}
		// A run starts at a token of the class whose predecessor is not.
		img, gap := c.scope == model.ScopeImage, sh.n > 0 && !c.stores(sh.last)
		for _, part := range parts {
			for _, t := range part {
				if t.Image() != img {
					gap = true
					continue
				}
				if gap {
					run, gap = h, false
				}
				h = hashChain(h, t)
				pl++
				if left--; left == 0 {
					ch.hashes = append(ch.hashes, h)
					ch.runs = append(ch.runs, run)
					left = c.stride
				}
			}
		}
		ch.chain, ch.proj, ch.run = h, pl, run
	}
}

// hashArrayLen is what a record carves for n entries of its own: the
// next power of two, at least minHashArray.
//
//jenga:hotpath
func hashArrayLen(n int) int { return max(minHashArray, 1<<bits.Len(uint(n-1))) }

// borrowHead points sh, an empty record, at the memo of seq's Shared
// head — built on the manager's first sight of the head — and leaves
// it as if it had folded the head in itself.
//
//jenga:hotpath
func (m *Jenga) borrowHead(sh *seqHashes, seq *Sequence) {
	key := headKey{toks: &seq.Shared[0], n: len(seq.Shared), tag: seq.Tag}
	hm := m.heads[key]
	switch {
	case hm == nil:
		hm = m.takeHead()
		hm.key = key
		m.fold(&hm.h, seq.Tag, [3][]Token{seq.Shared})
		hm.h.n, hm.h.last = key.n, seq.Shared[key.n-1]
		if debug.On {
			hm.sum = PrefixHash(key.n, seq.Shared)
		}
		m.heads[key] = hm
	case debug.On && PrefixHash(key.n, seq.Shared) != hm.sum:
		check(false, "request %d's Shared head of %d tokens changed while its memo lives", seq.ID, key.n)
	}
	hm.refs++
	sh.head = hm
	for ci := range sh.c {
		ch, hc := &sh.c[ci], &hm.h.c[ci]
		ch.chain, ch.proj, ch.run = hc.chain, hc.proj, hc.run
		ch.head, ch.headRuns = hc.hashes, hc.runs
	}
	sh.n, sh.last = hm.h.n, hm.h.last
}

// Memos are recycled as request states are (lifecycle.go): built
// headSlabMemos at a time, each with its per-class slice — the first
// slab by New, so that a pass over a few heads per manager allocates
// none — parked on a list threaded through them when dropped, and taken
// from the list first.
const headSlabMemos = 16

// takeHead returns an empty memo.
//
//jenga:hotpath
func (m *Jenga) takeHead() *headMemo {
	if hm := m.spareHeads; hm != nil {
		m.spareHeads, hm.next = hm.next, nil
		return hm
	}
	if len(m.headSlab) == 0 {
		m.growHeadSlab()
	}
	hm := &m.headSlab[0]
	m.headSlab = m.headSlab[1:]
	return hm
}

// growHeadSlab builds the next slab of empty memos.
func (m *Jenga) growHeadSlab() {
	nc := len(m.hashClasses)
	//jenga:alloc-ok slab miss: taken only while every memo handed out is live, so one slab per headSlabMemos of the live heads' high-water
	m.headSlab = make([]headMemo, headSlabMemos)
	chs := make([]classHashes, headSlabMemos*nc)
	for i := range m.headSlab {
		m.headSlab[i].h.c = chs[i*nc : (i+1)*nc : (i+1)*nc]
		m.headSlab[i].h.reset()
	}
}

// resetHashes empties a request's record, dropping its memo reference.
//
//jenga:hotpath
func (m *Jenga) resetHashes(sh *seqHashes) {
	if hm := sh.head; hm != nil {
		if hm.refs--; hm.refs == 0 {
			m.dropHead(hm)
		}
	}
	sh.reset()
}

// dropHead forgets a memo no record names and parks it.
//
//jenga:hotpath
func (m *Jenga) dropHead(hm *headMemo) {
	delete(m.heads, hm.key)
	hm.h.reset()
	*hm = headMemo{h: hm.h, next: m.spareHeads}
	m.spareHeads = hm
}

// runKey is BlockPriority's run key for entry k of g's class in ch: a
// ScopeAll class has one run, from the seed.
func (g *group) runKey(ch *classHashes, k int) uint64 {
	if g.spec.Scope == model.ScopeAll {
		return blockHashSeed
	}
	return ch.runAt(k)
}

// hashPoison is what a released request's block hashes read as in a
// jengadebug build.
const hashPoison uint64 = 0xDEADB10C4A5E5EED

// reset empties the record, keeping its own arrays and letting go of a
// memo's (the caller has dropped the reference: resetHashes). A
// jengadebug build scribbles over its own arrays first, so a lookup
// still reading a released request's hashes — or a dropped memo's —
// finds no block under them and trips the claim's checks instead of
// describing the arrays' next tenant.
//
//jenga:hotpath
func (sh *seqHashes) reset() {
	for ci := range sh.c {
		ch := &sh.c[ci]
		if debug.On {
			for _, a := range [2][]uint64{ch.hashes, ch.runs} {
				all := a[:cap(a)]
				for i := range all {
					all[i] = hashPoison
				}
			}
		}
		*ch = classHashes{chain: blockHashSeed, hashes: ch.hashes[:0], run: blockHashSeed, runs: ch.runs[:0]}
	}
	*sh = seqHashes{c: sh.c}
}

// scribbled reports whether the class's own arrays read hashPoison to
// their capacity, as a jengadebug build leaves a reset record's.
func (ch *classHashes) scribbled() bool {
	for _, a := range [2][]uint64{ch.hashes, ch.runs} {
		if slices.ContainsFunc(a[:cap(a)], func(h uint64) bool { return h != hashPoison }) {
			return false
		}
	}
	return true
}
