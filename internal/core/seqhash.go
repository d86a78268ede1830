package core

import (
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
// A record is recycled with its request state (parkReq), its arrays
// kept across tenants.

type hashClass struct {
	tag    string
	scope  model.TokenScope
	stride int
}

// classHashes is one request's hashes for one class.
type classHashes struct {
	// chain is the hash chain over the proj projected tokens folded in,
	// hashes[k] its value after the first (k+1) × stride of them.
	chain  uint64
	proj   int
	hashes []uint64
	// run is the chain where the current run of the class's tokens
	// (consecutive positions) began, runs[k] its value for block k's run:
	// BlockPriority's run key. Only a class that skips tokens keeps runs
	// (group.runKey).
	run  uint64
	runs []uint64
}

// seqHashes is one request's block hashes: n of the sequence's tokens
// are folded in, last is the n-th.
type seqHashes struct {
	n    int
	last Token
	c    []classHashes
	// shared is sharedPrefixBytes' answer for those n tokens at cache
	// generation sharedAt (0: none yet).
	shared   int64
	sharedAt uint64
}

// stores reports whether the class's groups store KV for t.
func (c *hashClass) stores(t Token) bool {
	return c.scope == model.ScopeAll || (c.scope == model.ScopeImage) == t.Image()
}

// hashClassOf returns the index of g's hash class, registering it at
// the manager's construction; -1 for a vision-embedding group, which no
// lookup reads.
func (m *Jenga) hashClassOf(g *model.KVGroup, tpp int) int {
	c := hashClass{tag: g.Tag, scope: g.Scope, stride: tpp}
	switch g.Kind {
	case model.VisionEmbedding:
		return -1
	case model.Mamba:
		c.stride = g.Checkpoint()
	}
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
		// never released, a truncated sequence): start over.
		sh.reset()
	}
	if sh.n == ln {
		return sh
	}
	shared, own, out := seq.Span(sh.n, ln)
	for ci, c := range m.hashClasses {
		if c.tag != "" && c.tag != seq.Tag {
			continue
		}
		ch := &sh.c[ci]
		keepRuns := c.scope != model.ScopeAll
		whole := (ch.proj + ln - sh.n) / c.stride
		if whole > cap(ch.hashes) {
			ch.hashes = m.hashSlab.carve(ch.hashes, whole)
		}
		if keepRuns && whole > cap(ch.runs) {
			ch.runs = m.hashSlab.carve(ch.runs, whole)
		}
		// left counts down the class's tokens to the current block's end.
		h, pl, run, left := ch.chain, ch.proj, ch.run, c.stride-ch.proj%c.stride
		if !keepRuns {
			// Every token is the class's: hash block by block.
			for _, part := range [3][]Token{shared, own, out} {
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
		for _, part := range [3][]Token{shared, own, out} {
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
	sh.n, sh.last, sh.sharedAt = ln, seq.at(ln-1), 0
	return sh
}

// runKey is BlockPriority's run key for entry k of g's class in ch: a
// ScopeAll class has one run, from the seed.
func (g *group) runKey(ch *classHashes, k int) uint64 {
	if g.spec.Scope == model.ScopeAll {
		return blockHashSeed
	}
	return ch.runs[k]
}

// hashPoison is what a released request's block hashes read as in a
// jengadebug build.
const hashPoison uint64 = 0xDEADB10C4A5E5EED

// reset empties the record, keeping its arrays. A jengadebug build
// scribbles over them first, so a lookup still reading a released
// request's hashes finds no block under them and trips the claim's
// checks instead of describing the arrays' next tenant.
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
