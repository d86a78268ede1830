package workload

import (
	"container/heap"
	"time"

	"jenga/internal/core"
)

// Source is a streaming request iterator: million-request runs pull
// requests one at a time instead of materializing the whole slice up
// front, so a workload's memory footprint is O(1) in its length. Each
// streaming generator consumes its Gen's randomness in exactly the
// same order as its slice counterpart — same seed, same request
// sequence (the equivalence tests pin this). nil, false marks
// exhaustion.
//
// Ownership: Next returns a pointer into the source, good until the
// next call — a consumer that keeps the request copies the header (the
// engine's Submit does). The Prompt array behind it is handed over for
// good: the source never touches it again unless the consumer hands it
// back through Recycle, which the generator-backed sources offer (see
// Recycler) and a consumer is free never to call.
//
// The one flow difference from the slice pipeline: slice workloads
// typically reuse one Gen for generation and then for PoissonArrivals,
// which consumes all generation randomness before any arrival
// randomness. A streaming pipeline interleaves the two per request, so
// each stage needs its own Gen (its own seed) for results to be
// reproducible independent of stage composition.
type Source interface {
	Next() (*Request, bool)
}

// funcSource adapts a generator's pull function to Source; prompts
// handed back rejoin the generator's free list.
type funcSource struct {
	g    *Gen
	n    int // remaining
	pull func() Request
	req  Request
}

//jenga:hotpath
func (s *funcSource) Recycle(prompt []core.Token) { s.g.recyclePrompt(prompt) }

func (s *funcSource) Next() (*Request, bool) {
	if s.n <= 0 {
		return nil, false
	}
	s.n--
	s.req = s.pull()
	return &s.req, true
}

// MMLUProSource streams the MMLUPro workload: same seed, same request
// sequence as the slice generator.
func (g *Gen) MMLUProSource(n int, sharedPrefix int) Source {
	return &funcSource{g: g, n: n, pull: func() Request { return g.mmluProOne(sharedPrefix) }}
}

// MMMUProSource streams the MMMUPro workload.
func (g *Gen) MMMUProSource(n int, tokensPerImage int) Source {
	return &funcSource{g: g, n: n, pull: func() Request { return g.mmmuProOne(tokensPerImage) }}
}

// ArxivQASource streams the ArxivQA workload over a shared article
// pool (the pool itself stays materialized — it is the prefix-sharing
// substrate, not the stream).
func (g *Gen) ArxivQASource(arts []Article, n int, questionLen int) Source {
	return &funcSource{g: g, n: n, pull: func() Request { return g.arxivQAOne(arts, questionLen) }}
}

// LongDocQASource streams the LongDocQA workload.
func (g *Gen) LongDocQASource(n int) Source {
	return &funcSource{g: g, n: n, pull: func() Request { return g.longDocQAOne() }}
}

// ShareGPTSource streams the ShareGPT workload.
func (g *Gen) ShareGPTSource(n int) Source {
	return &funcSource{g: g, n: n, pull: func() Request { return g.shareGPTOne() }}
}

// PrefixGroupsSource streams the PrefixGroups workload in the slice
// generator's interleaved order (request i belongs to group i%groups).
func (g *Gen) PrefixGroupsSource(groups, perGroup, prefixLen, suffixLen int) Source {
	i := 0
	return &funcSource{g: g, n: groups * perGroup, pull: func() Request {
		r := g.prefixGroupsOne(i%groups, prefixLen, suffixLen)
		i++
		return r
	}}
}

// ChurnGroupsSource streams the ChurnGroups workload.
func (g *Gen) ChurnGroupsSource(groups, perGroup, prefixLen, suffixLen, phases int) Source {
	if phases < 1 {
		phases = 1
	}
	total := groups * perGroup
	i := 0
	return &funcSource{g: g, n: total, pull: func() Request {
		r := g.churnGroupsOne(i, total, groups, prefixLen, suffixLen, phases)
		i++
		return r
	}}
}

// FanOutSource streams fan-out roots.
func (g *Gen) FanOutSource(n, promptLen, forkAfter, outLen, branch int) Source {
	return &funcSource{g: g, n: n, pull: func() Request { return g.fanOutOne(promptLen, forkAfter, outLen, branch) }}
}

// poissonSource lays exponential arrival gaps over an inner source.
type poissonSource struct {
	src  Source
	g    *Gen
	rate float64
	t    float64
}

func (s *poissonSource) Next() (*Request, bool) {
	r, ok := s.src.Next()
	if !ok {
		return nil, false
	}
	gap := s.g.rng.ExpFloat64() / s.rate
	s.t += gap
	r.Arrival = time.Duration(s.t * float64(time.Second))
	return r, true
}

//jenga:hotpath
func (s *poissonSource) Recycle(prompt []core.Token) { recycleTo(s.src, prompt) }

// recycleTo forwards a handed-back prompt to src if it can take one.
//
//jenga:hotpath
func recycleTo(src Source, prompt []core.Token) {
	if r, ok := src.(Recycler); ok {
		r.Recycle(prompt)
	}
}

// PoissonSource is the streaming counterpart of PoissonArrivals: it
// assigns exponential inter-arrival gaps at ratePerSec as requests
// flow through. Same-seeded Gens produce the same gap sequence in
// both forms; give the arrival process its own Gen (see Source).
func PoissonSource(src Source, g *Gen, ratePerSec float64) Source {
	return &poissonSource{src: src, g: g, rate: ratePerSec}
}

// applySource runs a transform over every request of an inner source.
type applySource struct {
	src Source
	fn  func(*Request)
}

func (s *applySource) Next() (*Request, bool) {
	r, ok := s.src.Next()
	if !ok {
		return nil, false
	}
	s.fn(r)
	return r, true
}

//jenga:hotpath
func (s *applySource) Recycle(prompt []core.Token) { recycleTo(s.src, prompt) }

// Apply returns a source that applies fn to each request as it
// streams past — the streaming form of in-place slice passes like
// SetDeadlines or priority assignment.
func Apply(src Source, fn func(*Request)) Source {
	return &applySource{src: src, fn: fn}
}

// DeadlineSource is the streaming counterpart of SetDeadlines.
func DeadlineSource(src Source, d time.Duration) Source {
	return Apply(src, func(r *Request) { r.Deadline = d })
}

// sliceSource yields a materialized slice (bridging old generators
// into streaming consumers).
type sliceSource struct {
	reqs []Request
	i    int
}

func (s *sliceSource) Next() (*Request, bool) {
	if s.i >= len(s.reqs) {
		return nil, false
	}
	r := &s.reqs[s.i]
	s.i++
	return r, true
}

// SliceSource streams an already materialized request slice in order.
func SliceSource(reqs []Request) Source { return &sliceSource{reqs: reqs} }

// Collect drains a source into a slice (tests and small workloads).
func Collect(src Source) []Request {
	var out []Request
	for {
		r, ok := src.Next()
		if !ok {
			return out
		}
		out = append(out, *r)
	}
}

// mergeItem is one source's pending head inside mergeSource.
type mergeItem struct {
	req *Request
	idx int // source index: the tie-break that mirrors Merge's stable sort
}

type mergeHeap []mergeItem

func (h mergeHeap) Len() int { return len(h) }
func (h mergeHeap) Less(i, j int) bool {
	if h[i].req.Arrival != h[j].req.Arrival {
		return h[i].req.Arrival < h[j].req.Arrival
	}
	return h[i].idx < h[j].idx
}
func (h mergeHeap) Swap(i, j int)    { h[i], h[j] = h[j], h[i] }
func (h *mergeHeap) Push(x any)      { *h = append(*h, x.(mergeItem)) }
func (h *mergeHeap) Pop() any        { old := *h; n := len(old); it := old[n-1]; *h = old[:n-1]; return it }
func (h mergeHeap) head() *mergeItem { return &h[0] }
func (h mergeHeap) emptied() bool    { return len(h) == 0 }

type mergeSource struct {
	srcs []Source
	h    mergeHeap
	out  Request
	// last is the source the latest request came from.
	last int
}

func (s *mergeSource) Next() (*Request, bool) {
	if s.h.emptied() {
		return nil, false
	}
	it := s.h.head()
	s.out = *it.req // copy out before refilling overwrites the head's buffer
	s.last = it.idx
	if r, ok := s.srcs[it.idx].Next(); ok {
		it.req = r
		heap.Fix(&s.h, 0)
	} else {
		heap.Pop(&s.h)
	}
	return &s.out, true
}

// Recycle hands the prompt to the source that supplied the latest
// request: arrays of one size class are interchangeable, and a source
// is "latest" as often as it is pulled, so each generator's free list
// is fed in step with what it lends.
//
//jenga:hotpath
func (s *mergeSource) Recycle(prompt []core.Token) { recycleTo(s.srcs[s.last], prompt) }

// MergeSources k-way-merges sources whose arrivals are each
// non-decreasing into one stream ordered by arrival — the streaming
// counterpart of Merge, with ties broken by source position exactly
// as Merge's stable sort breaks them by concatenation order. Memory
// is O(k), not O(total requests).
func MergeSources(srcs ...Source) Source {
	m := &mergeSource{srcs: srcs}
	for i, src := range srcs {
		if r, ok := src.Next(); ok {
			m.h = append(m.h, mergeItem{req: r, idx: i})
		}
	}
	heap.Init(&m.h)
	return m
}
