package engine

import (
	"math/bits"

	"jenga/internal/core"
)

// Token ownership. A run's seq.Tokens starts as a borrow of the
// caller's req.Prompt — cap-clamped, so a stray append reallocates
// instead of writing into the caller's array — and stays one for as
// long as the sequence is only read: queueing, prefill, prefix lookups,
// recompute passes over a prompt. The engine takes a private buffer,
// sized for the request's whole prompt-plus-output lifetime, only when
// the first generated token is appended (ownTokens), and gives it back
// at every exit (returnTokens). Buffers come from an engine-local free
// list keyed by power-of-two capacity, so token memory follows the
// running set, not the number of requests submitted or finished.

// tokenPool holds idle private buffers: class k holds buffers with
// capacity in [1<<k, 1<<(k+1)) — exactly 1<<k for the engine's own,
// possibly more for one adopted through MigrateIn.
type tokenPool [bits.UintSize][][]core.Token

// takeTokens returns an empty buffer with capacity for n ≥ 1 tokens.
//
//jenga:hotpath
func (e *Engine) takeTokens(n int) []core.Token {
	k := bits.Len(uint(n - 1)) // smallest class whose buffers all hold n
	if free := e.tokFree[k]; len(free) > 0 {
		buf := free[len(free)-1]
		free[len(free)-1] = nil
		e.tokFree[k] = free[:len(free)-1]
		return buf
	}
	//jenga:alloc-ok free-list miss: taken only while every buffer of this class is lent out, so misses are bounded by the high-water running set, not by requests served
	return make([]core.Token, 0, 1<<k)
}

// ownTokens moves r's tokens into a private buffer if they still borrow
// the caller's prompt (or a Migrated record's slice); the decode path
// calls it before its first append.
//
//jenga:hotpath
func (e *Engine) ownTokens(r *run) {
	if r.owned {
		return
	}
	buf := e.takeTokens(r.promptLen() + r.req.OutputLen)
	r.seq.Tokens = append(buf, r.seq.Tokens...)
	r.owned = true
}

// returnTokens ends r's use of its tokens: a private buffer goes back
// to the free list. A class keeps at most MaxRunning idle buffers —
// buffers adopted through MigrateIn arrive without a matching take, so
// without the cap a replica that only receives migrations would grow
// its list by one per request.
//
//jenga:hotpath
func (e *Engine) returnTokens(r *run) {
	if !r.owned {
		return
	}
	buf := r.seq.Tokens[:0]
	r.seq.Tokens, r.owned = nil, false
	k := bits.Len(uint(cap(buf))) - 1
	if len(e.tokFree[k]) < e.cfg.MaxRunning {
		e.tokFree[k] = append(e.tokFree[k], buf)
	}
}

// borrowTokens is the read-only view of toks a run starts with.
func borrowTokens(toks []core.Token) []core.Token {
	return toks[:len(toks):len(toks)]
}
