package workload

import (
	"math/bits"

	"jenga/internal/core"
	"jenga/internal/debug"
)

// Prompt buffers. Every generator makes each prompt with one call to
// takePrompt, at its exact size, and a consumer that is done with a
// prompt may hand the array back through the source (Recycler): it then
// waits on the Gen's free list for a later request of about its size.
// A consumer that hands nothing back — Collect, a slice workload —
// never puts anything on the list, and every take is the one exact-size
// allocation it always was.

// Recycler is the optional capability of a Source whose prompts can be
// reused: Recycle hands back the array of a prompt an earlier Next
// returned — its Prompt, never its Shared head. The caller — and everything it passed the request to — must
// hold no reference to it any more: the next request's tokens are
// written over it. Recycle is called from the goroutine that calls
// Next. The generator-backed sources implement it and the combinators
// (PoissonSource, Apply) forward it; SliceSource does
// not, because its prompts belong to whoever built the slice.
type Recycler interface {
	Recycle(prompt []core.Token)
}

// promptPool holds handed-back prompt arrays: class k holds those with
// capacity in [1<<k, 1<<(k+1)).
type promptPool struct {
	free [bits.UintSize][][]core.Token
	// lent counts prompts taken and not yet handed back; no class keeps
	// more idle arrays than its high-water mark, peak, so arrays made by
	// another Gen (merged sources) cannot pile up here unused.
	lent, peak int
}

// poisonToken is what a jengadebug build fills a handed-back array
// with: an image token no generator produces, so a prompt still read
// after its hand-back changes hashes and modality counts at once.
var poisonToken = core.ImageToken(0x7EADBEEF)

// takePrompt returns a prompt of n tokens for the caller to fill: a
// handed-back array when the free list has one that fits — the top of
// n's own class if it is large enough, else the top of the class above,
// where every array is — and a fresh exact-size one otherwise.
//
//jenga:hotpath
func (g *Gen) takePrompt(n int) []core.Token {
	p := &g.prompts
	p.lent++
	p.peak = max(p.peak, p.lent)
	if n > 0 {
		k := bits.Len(uint(n)) - 1
		for _, class := range [2]int{k, k + 1} {
			free := p.free[class]
			if top := len(free) - 1; top >= 0 && cap(free[top]) >= n {
				buf := free[top]
				free[top] = nil
				p.free[class] = free[:top]
				return buf[:n]
			}
		}
	}
	//jenga:alloc-ok free-list miss: the request's prompt, made once at its exact size; with a recycling consumer misses are bounded by the prompts in flight at once, not by requests generated
	return make([]core.Token, n)
}

// takeMemo returns a fresh array of n tokens for a generator's group
// prefixes (groupPrefix). It is the Gen's own, made once per generator
// shape: never lent as a prompt, never handed back, so the free list and
// its hand-over counts never see it.
func takeMemo(n int) []core.Token {
	return make([]core.Token, n)
}

// recyclePrompt puts a handed-back array on the free list.
//
//jenga:hotpath
func (g *Gen) recyclePrompt(buf []core.Token) {
	p := &g.prompts
	p.lent = max(p.lent-1, 0)
	if cap(buf) == 0 {
		return
	}
	buf = buf[:cap(buf)]
	if debug.On {
		for i := range buf {
			buf[i] = poisonToken
		}
	}
	if k := bits.Len(uint(cap(buf))) - 1; len(p.free[k]) < p.peak {
		p.free[k] = append(p.free[k], buf)
	}
}
