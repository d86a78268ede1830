package engine

import (
	"math/bits"
	"slices"

	"jenga/internal/core"
	"jenga/internal/debug"
	"jenga/internal/workload"
)

// Token ownership. A run's sequence has three parts (core.Sequence).
// seq.Shared is the caller's req.Shared, a head other requests share
// (an article), borrowed for the run's whole life, cap-clamped, so a
// stray append reallocates instead of writing into the caller's array,
// and only ever read. seq.Tokens is the request's own part: hand-built
// tokens (req.Prompt) are borrowed the same way, and a generator's
// recipe (req.Own) stays a recipe while the request is pending — a run
// waiting to arrive holds no tokens — and is filled at its arrival
// (fillPrompt) into a buffer from the engine's prompt pool, which takes
// it back at the request's exit (returnPrompt). seq.Out, the generated
// tail, is the engine's too: a private buffer with room for the
// request's OutputLen−1 decode steps, taken when the first generated
// token is appended (ownTokens) and given back at every exit
// (returnTokens). No path copies a prompt, not decode, not a fork, not
// a migration (make guard): a fork child reads its parent's prompt and
// copies only the parent's Out, and a Migrated record carries a filled
// prompt and Out to its destination, which adopts both. Out buffers
// come from an engine-local free list keyed by power-of-two capacity, a
// miss carving tokenSlab of them at a time from one array, so token
// memory follows the requests holding a buffer — not the number of
// requests submitted or finished.

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

// borrowPrompt is the sequence of a run holding req: the Shared head
// borrowed as a read-only view, then own — the tokens of req's own part
// when the engine filled them, else req.Prompt, borrowed as the head is
// (nil for a recipe not filled yet) — then out.
func borrowPrompt(req *workload.Request, own, out []core.Token) core.Sequence {
	if own == nil {
		own = slices.Clip(req.Prompt)
	}
	return core.Sequence{
		ID: core.RequestID(req.ID), PromptLen: req.PromptLen(),
		Shared: slices.Clip(req.Shared), Tokens: own, Out: out,
	}
}

// promptSlab is the fewest buffers a prompt-pool miss makes at once.
const promptSlab = 8

// promptPool is the engine's free list of prompt buffers, the filled own
// parts of generated requests; it survives Reset.
type promptPool struct {
	// free's class k holds buffers of capacity 1<<k, or within [1<<k,
	// 1<<(k+1)) for one adopted through MigrateIn; a request of n tokens
	// takes from class bits.Len(n−1) alone. A class's capacity is the
	// number of buffers this engine made in it: returnPrompt keeps no
	// more, so buffers adopted through MigrateIn cannot pile up here, and
	// a return never grows the list.
	free [bits.UintSize][][]core.Token
	// slabs counts misses; lent counts the runs that came to hold a
	// buffer — filled here, adopted, or shared by a fork child — and back
	// those that stopped: returned, kept from the list (a fork's shared
	// buffer) or handed on in a Migrated record (the jengadebug balance;
	// see checkHandBack).
	slabs, lent, back int
}

// fillPrompt gives r, arriving, the tokens of its own part: a recipe is
// filled into a buffer from the prompt pool, whose miss makes one slab
// for every arrival of this step in the class; hand-built tokens were
// borrowed at Submit already.
//
//jenga:hotpath
func (e *Engine) fillPrompt(r *run) {
	n := r.req.Own.Len()
	if n == 0 {
		return
	}
	p := &e.prompts
	p.lent++
	k := bits.Len(uint(n - 1))
	free := p.free[k]
	if len(free) == 0 {
		count := max(e.arriving(k)+1, promptSlab)
		//jenga:alloc-ok prompt-pool miss: one slab for the step's arrivals in the class, and the list with room for every buffer of the class, made only while every buffer of the class is lent, so misses are bounded by the prompts live at once, not by requests served
		slab, list := make([]core.Token, count<<k), make([][]core.Token, count, cap(free)+count)
		for i := range list {
			list[i] = slab[i<<k : (i+1)<<k : (i+1)<<k]
		}
		free = list
		p.slabs++
	}
	buf := free[len(free)-1]
	free[len(free)-1] = nil
	p.free[k] = free[:len(free)-1]
	r.req.Own.Fill(buf[:n])
	r.seq.Tokens = buf[:n]
}

// arriving counts the requests still pending whose arrival this step
// processes — with k ≥ 0, those of them whose own part takes a class-k
// prompt buffer.
func (e *Engine) arriving(k int) int {
	count := 0
	for _, r := range e.pending.items() {
		if r.req.Arrival > e.clock {
			break
		}
		if n := r.req.Own.Len(); k < 0 || n > 0 && bits.Len(uint(n-1)) == k {
			count++
		}
	}
	return count
}

// ownsPrompt reports whether r holds a prompt buffer: a filled recipe.
func (r *run) ownsPrompt() bool { return r.req.Own.Len() > 0 && r.seq.Tokens != nil }

// returnPrompt ends r's hold on its prompt buffer, which goes back to
// the pool — poisoned first in a jengadebug build, so a sequence still
// reading it trips core's extension check — unless a fork shares it,
// when it is left to the GC: its other readers may outlive r here or on
// another engine.
//
//jenga:hotpath
func (e *Engine) returnPrompt(r *run) {
	if !r.ownsPrompt() {
		return
	}
	buf := r.seq.Tokens
	r.seq.Tokens = nil
	p := &e.prompts
	p.back++
	buf = buf[:cap(buf)]
	k := bits.Len(uint(len(buf))) - 1
	if r.promptShared || len(p.free[k]) == cap(p.free[k]) {
		return
	}
	if debug.On {
		for i := range buf {
			buf[i] = tokenPoison
		}
	}
	p.free[k] = append(p.free[k], buf)
}
