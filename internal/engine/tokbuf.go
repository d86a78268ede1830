package engine

import (
	"math/bits"

	"jenga/internal/core"
	"jenga/internal/debug"
)

// Token ownership. A run's sequence has two parts with two owners
// (core.Sequence). seq.Tokens is the caller's req.Prompt, borrowed for
// the run's whole life — cap-clamped, so a stray append reallocates
// instead of writing into the caller's array — and only ever read: no
// path copies a prompt, not decode, not a fork, not a migration (make
// guard). seq.Out, the generated tail, is the engine's: a private
// buffer with room for the request's OutputLen−1 decode steps, taken
// when the first generated token is appended (ownTokens) and given back
// at every exit (returnTokens). A fork child borrows its parent's
// prompt as well and copies only the parent's Out; a Migrated record
// carries Out to its destination, which adopts it. Buffers come from an
// engine-local free list keyed by power-of-two capacity, so token
// memory follows the outputs of the requests holding one — not their
// prompts, and not the number of requests submitted or finished.

// minTokenClass is the smallest buffer class: 64 tokens, below which a
// class of its own saves less than it costs in buffers that cannot
// serve a longer output.
const minTokenClass = 6

// tokenPool is the engine's free list of Out buffers; it survives Reset.
type tokenPool struct {
	// free's class k holds buffers with capacity in [1<<k, 1<<(k+1)) —
	// exactly 1<<k for the engine's own, possibly more for one adopted
	// through MigrateIn.
	free [bits.UintSize][][]core.Token
	// idle is the number of buffers on free, top the largest class
	// takeTokens has made a buffer of.
	idle, top int
	// lent counts buffers that became a run's Out — taken here or
	// adopted through MigrateIn — and back those that stopped being one:
	// returned to free, dropped at its cap, or handed on by MigrateOut
	// (the jengadebug balance; see checkHandBack).
	lent, back int
}

// tokenPoison is what a returned buffer reads as in a jengadebug build:
// no generator emits it (generated and workload tokens' content is at
// most 50,000, and the workload poisons its prompt arrays with an image
// token).
var tokenPoison = core.TextToken(0x7DEC0DED)

// takeTokens returns an empty buffer with capacity for n ≥ 1 tokens:
// the smallest idle one that holds n, or else a new one of the largest
// class made yet. Once the longest output has been seen, every buffer
// made from then on serves every request, so misses are bounded by the
// number of buffers lent at once — as if all were one class — while
// requests with short outputs still reuse the small buffers made
// before.
//
//jenga:hotpath
func (e *Engine) takeTokens(n int) []core.Token {
	p := &e.tok
	p.lent++
	k := max(bits.Len(uint(n-1)), minTokenClass) // smallest class whose buffers all hold n
	for j := k; j < len(p.free); j++ {
		if free := p.free[j]; len(free) > 0 {
			buf := free[len(free)-1]
			free[len(free)-1] = nil
			p.free[j] = free[:len(free)-1]
			p.idle--
			return buf
		}
	}
	p.top = max(p.top, k)
	//jenga:alloc-ok free-list miss: taken only while every buffer that could hold n is lent out, so misses are bounded by the buffers lent at once, not by requests served
	return make([]core.Token, 0, 1<<p.top)
}

// ownTokens gives r an Out buffer if it has none; the decode path calls
// it before its first append.
//
//jenga:hotpath
func (e *Engine) ownTokens(r *run) {
	if r.seq.Out == nil {
		r.seq.Out = e.takeTokens(r.req.OutputLen - 1)
	}
}

// returnTokens ends r's use of its Out buffer, which goes back to the
// free list; a jengadebug build poisons it first, so a sequence still
// reading it trips core's extension check. The list keeps at most
// MaxRunning idle buffers, so what it holds is bounded by MaxRunning
// buffers of the largest class — and buffers adopted through MigrateIn
// arrive without a matching take, so without the cap a replica that
// only receives migrations would grow its list by one per request.
//
//jenga:hotpath
func (e *Engine) returnTokens(r *run) {
	buf := r.seq.Out
	if buf == nil {
		return
	}
	r.seq.Out = nil
	p := &e.tok
	p.back++
	if debug.On {
		all := buf[:cap(buf)]
		for i := range all {
			all[i] = tokenPoison
		}
	}
	if p.idle < e.cfg.MaxRunning {
		k := bits.Len(uint(cap(buf))) - 1
		p.free[k] = append(p.free[k], buf[:0])
		p.idle++
	}
}

// borrowTokens is the read-only view of a prompt a run holds.
func borrowTokens(toks []core.Token) []core.Token {
	return toks[:len(toks):len(toks)]
}
