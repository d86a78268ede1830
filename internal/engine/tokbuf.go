package engine

import (
	"math/bits"
	"slices"

	"jenga/internal/core"
	"jenga/internal/debug"
	"jenga/internal/workload"
)

// Token ownership. A run's sequence has three parts with two owners
// (core.Sequence). seq.Shared and seq.Tokens are the caller's
// req.Shared and req.Prompt — a head other requests share (an article)
// and the request's own tail — borrowed for the run's whole life,
// cap-clamped, so a stray append reallocates instead of writing into
// the caller's arrays, and only ever read: no path copies a prompt, not
// decode, not a fork, not a migration, and the prompt sink gets the
// tail alone (make guard). seq.Out, the generated tail, is the engine's:
// a private buffer with room for the request's OutputLen−1 decode
// steps, taken when the first generated token is appended (ownTokens)
// and given back at every exit (returnTokens). A fork child borrows its
// parent's prompt as well and copies only the parent's Out; a Migrated
// record carries Out to its destination, which adopts it. Buffers come
// from an engine-local free list keyed by power-of-two capacity, a miss
// carving tokenSlab of them at a time from one array, so token memory
// follows the outputs of the requests holding one — not their prompts,
// and not the number of requests submitted or finished.

// minTokenClass is the smallest buffer class: 64 tokens, below which a
// class of its own saves less than it costs in buffers that cannot
// serve a longer output.
const minTokenClass = 6

// tokenSlab is how many buffers a free-list miss makes at once, and
// slabTokens the most tokens one slab holds: a class too large for
// two buffers in slabTokens gets one buffer a miss, as if unslabbed.
const (
	tokenSlab  = 32
	slabTokens = 1 << 14
)

// tokenPool is the engine's free list of Out buffers; it survives Reset.
type tokenPool struct {
	// free's class k holds buffers with capacity in [1<<k, 1<<(k+1)) —
	// exactly 1<<k for the engine's own, possibly more for one adopted
	// through MigrateIn.
	free [bits.UintSize][][]core.Token
	// slab is the uncarved rest of the last slab made: whole buffers of
	// capacity 1<<slabClass.
	slab      []core.Token
	slabClass int
	// idle is the number of buffers on free and left in slab, top the
	// largest class takeTokens has made a buffer of.
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
// the smallest idle one on the free list that holds n, or else the
// slab's next one, from a new slab of the largest class made yet when
// the last is used up or too small (its rest is dropped). Once the
// longest output has been seen, every buffer made from then on serves
// every request, so misses are bounded by the number of buffers lent at
// once — as if all were one class — while requests with short outputs
// still reuse the small buffers made before. A new slab holds no more
// buffers than the idle bound (returnTokens) leaves room for.
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
	if len(p.slab) == 0 || p.slabClass < k {
		p.idle -= len(p.slab) >> p.slabClass
		count := max(min(tokenSlab, slabTokens>>p.top, e.cfg.MaxRunning-p.idle), 1)
		//jenga:alloc-ok free-list miss: a slab of buffers, made only while every buffer that could hold n is lent out, so misses are bounded by the buffers lent at once over tokenSlab, not by requests served
		p.slab, p.slabClass = make([]core.Token, count<<p.top), p.top
		p.idle += count
	}
	c := 1 << p.slabClass
	buf := p.slab[:0:c]
	p.slab = p.slab[c:]
	p.idle--
	return buf
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
// reading it trips core's extension check. The list and the slab's
// rest keep at most MaxRunning idle buffers between them, so what they
// hold is bounded by MaxRunning buffers of the largest class — and
// buffers adopted through MigrateIn arrive without a matching take, so
// without the cap a replica that only receives migrations would grow
// its list by one per request.
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

// borrowPrompt is the sequence of a run holding req: the prompt's two
// parts, each borrowed as a read-only view, then out.
func borrowPrompt(req *workload.Request, out []core.Token) core.Sequence {
	return core.Sequence{
		ID: core.RequestID(req.ID), PromptLen: req.PromptLen(),
		Shared: slices.Clip(req.Shared), Tokens: slices.Clip(req.Prompt), Out: out,
	}
}
