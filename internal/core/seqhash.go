package core

import (
	"slices"

	"jenga/internal/debug"
	"jenga/internal/model"
)

// A request's blocks are hashed once. Lookup, LookupFleet, the claim's
// lookups and Footprint's admission probe all need the chained hash of
// every complete block of the sequence; the manager keeps them, one
// seqHashes per request, from the first of those calls that names the
// request to its Release — whether or not it ever reserved anything —
// and each call folds in only the tokens appended since the last. A
// live sequence's tokens are only ever appended to — growth may move
// the array (the engine's switch from the borrowed prompt to a private
// decode buffer) but never rewrites a token — and IDs are unique among
// live requests, so a record cannot describe another request's tokens
// as long as every request the manager was shown is released: that is
// the caller's side of the contract (Manager.Release).
//
// A block's hash depends on the tokens and the block size, not on the
// layer type, so groups that store the same tokens in blocks of the
// same size read one list: a hash class is one (tag, scope, stride)
// among the manager's KV groups, and a record holds one classHashes
// per class. A Mamba group's "block" is its checkpoint interval — its
// pages hold states, not tokens, and a hit lands on a checkpoint.
//
// Records are recycled like request states (takeReq): slabs of
// hashSlabRecords, a free list, a record built only while the list is
// empty, arrays kept across tenants.

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
	// next links released records (m.spareHashes).
	next *seqHashes
}

const hashSlabRecords = 64

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

// hashesOf returns seq's block hashes with all of seq.Tokens folded in,
// registering an empty record at the manager's first sight of seq.
//
//jenga:hotpath
func (m *Jenga) hashesOf(seq *Sequence) *seqHashes {
	sh, ok := m.hashes[seq.ID]
	if !ok {
		if sh = m.spareHashes; sh != nil {
			m.spareHashes, sh.next = sh.next, nil
		} else {
			if len(m.hashRecSlab) == 0 {
				m.growHashRecSlab()
			}
			sh, m.hashRecSlab = &m.hashRecSlab[0], m.hashRecSlab[1:]
			m.hashRecsBuilt++
		}
		m.hashes[seq.ID] = sh
	}
	toks := seq.Tokens
	if sh.n > len(toks) || (sh.n > 0 && toks[sh.n-1] != sh.last) {
		// Not an extension of what was hashed (a caller reusing an ID it
		// never released, a truncated sequence): start over.
		sh.reset()
	}
	if sh.n == len(toks) {
		return sh
	}
	fresh := toks[sh.n:]
	for ci, c := range m.hashClasses {
		if c.tag != "" && c.tag != seq.Tag {
			continue
		}
		ch := &sh.c[ci]
		if whole := (ch.proj + len(fresh)) / c.stride; whole > cap(ch.hashes) {
			ch.hashes = m.carveHashes(ch.hashes, whole)
		}
		h, pl := ch.chain, ch.proj
		for _, t := range fresh {
			if (c.scope == model.ScopeText && t.Image()) || (c.scope == model.ScopeImage && !t.Image()) {
				continue
			}
			h = hashChain(h, t)
			if pl++; pl%c.stride == 0 {
				ch.hashes = append(ch.hashes, h)
			}
		}
		ch.chain, ch.proj = h, pl
	}
	sh.n, sh.last, sh.sharedAt = len(toks), toks[len(toks)-1], 0
	return sh
}

// growHashRecSlab builds the next slab of empty records.
func (m *Jenga) growHashRecSlab() {
	nc := len(m.hashClasses)
	//jenga:alloc-ok slab miss: taken only while every record handed out is live, so one slab per hashSlabRecords of the live high-water, not per request
	m.hashRecSlab = make([]seqHashes, hashSlabRecords)
	cs := make([]classHashes, hashSlabRecords*nc)
	for i := range m.hashRecSlab {
		m.hashRecSlab[i].c = cs[i*nc : (i+1)*nc : (i+1)*nc]
		m.hashRecSlab[i].reset()
	}
}

// dropHashes forgets request id's block hashes, if it has any, and
// parks the record.
//
//jenga:hotpath
func (m *Jenga) dropHashes(id RequestID) {
	sh, ok := m.hashes[id]
	if !ok {
		return
	}
	delete(m.hashes, id)
	sh.reset()
	sh.next, m.spareHashes = m.spareHashes, sh
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
			all := ch.hashes[:cap(ch.hashes)]
			for i := range all {
				all[i] = hashPoison
			}
		}
		*ch = classHashes{chain: blockHashSeed, hashes: ch.hashes[:0]}
	}
	sh.n, sh.sharedAt = 0, 0
}

// Block-hash arrays are cut from slabs the manager owns, so that a cold
// batch of long prompts costs the allocator a slab per few hundred
// requests, not an array per request. A record keeps its arrays when it
// is recycled; one that meets a longer sequence cuts a larger array and
// abandons the old one to its slab. Sizes are rounded up to
// hashArrayQuantum so that sequences of similar length do not each do
// that. Slabs double up to maxHashSlab.
const (
	hashArrayQuantum = 64
	minHashSlab      = 1 << 12
	maxHashSlab      = 1 << 15
)

// carveHashes returns an array for at least n block hashes that holds
// old's.
func (m *Jenga) carveHashes(old []uint64, n int) []uint64 {
	n = (n + hashArrayQuantum - 1) / hashArrayQuantum * hashArrayQuantum
	if n > len(m.hashSlab) {
		m.hashSlabLen = max(n, minHashSlab, min(2*m.hashSlabLen, maxHashSlab))
		//jenga:alloc-ok slab miss: one per hashSlabLen block hashes of the live high-water, not per request
		m.hashSlab = make([]uint64, m.hashSlabLen)
	}
	a := append(m.hashSlab[:0:n], old...)
	m.hashSlab = m.hashSlab[n:]
	return a
}
