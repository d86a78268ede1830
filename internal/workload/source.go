package workload

import "time"

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
// engine's Submit does). A generated request's own part is a recipe in
// the header (Request.Own), so there is no prompt array to hand over or
// back: whoever needs the tokens fills them into a buffer of its own
// (the engine, at the request's arrival). A Shared head is only lent:
// it is the generator's, read by every request over it.
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

// funcSource adapts a generator's pull function to Source.
type funcSource struct {
	n    int // remaining
	pull func() Request
	req  Request
}

func (s *funcSource) Next() (*Request, bool) {
	if s.n <= 0 {
		return nil, false
	}
	s.n--
	s.req = s.pull()
	return &s.req, true
}

// PrefixGroupsSource streams the PrefixGroups workload in the slice
// generator's interleaved order (request i belongs to group i%groups).
func (g *Gen) PrefixGroupsSource(groups, perGroup, prefixLen, suffixLen int) Source {
	i := 0
	return &funcSource{n: groups * perGroup, pull: func() Request {
		r := g.prefixGroupsOne(groups, i%groups, prefixLen, suffixLen)
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
	return &funcSource{n: total, pull: func() Request {
		r := g.churnGroupsOne(i, total, groups, prefixLen, suffixLen, phases)
		i++
		return r
	}}
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

// Apply returns a source that applies fn to each request as it
// streams past — the streaming form of in-place slice passes like
// SetDeadlines or priority assignment.
func Apply(src Source, fn func(*Request)) Source {
	return &applySource{src: src, fn: fn}
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
