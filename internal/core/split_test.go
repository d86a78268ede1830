package core

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"jenga/internal/model"
)

// splitPair drives two managers built alike through one op sequence:
// a holds each request as the engine does — the prompt in Tokens, the
// generated tail in Out — and b holds the same content whole in Tokens.
type splitPair struct {
	t    *testing.T
	name string
	a, b *Jenga
	// step counts the observations made, for the failure message.
	step int
}

// observe fails unless both managers answer alike for every pair of
// sequences given: Lookup, Footprint, CachedPrefix, UsageTotals and
// CheckInvariants.
func (p *splitPair) observe(seqs ...[2]*Sequence) {
	p.t.Helper()
	p.step++
	for _, s := range seqs {
		sa, sb := s[0], s[1]
		if sa.Len() != sb.Len() {
			p.t.Fatalf("%s, step %d: request %d is %d tokens split, %d whole", p.name, p.step, sa.ID, sa.Len(), sb.Len())
		}
		if la, lb := p.a.Lookup(sa), p.b.Lookup(sb); la != lb {
			p.t.Fatalf("%s, step %d: request %d: Lookup %d split, %d whole", p.name, p.step, sa.ID, la, lb)
		}
		if fa, fb := p.a.Footprint(sa), p.b.Footprint(sb); fa != fb {
			p.t.Fatalf("%s, step %d: request %d: Footprint %d split, %d whole", p.name, p.step, sa.ID, fa, fb)
		}
		if ca, cb := p.a.CachedPrefix(sa), p.b.CachedPrefix(sb); ca != cb {
			p.t.Fatalf("%s, step %d: request %d: CachedPrefix %d split, %d whole", p.name, p.step, sa.ID, ca, cb)
		}
	}
	if ua, ub := p.a.UsageTotals(), p.b.UsageTotals(); !reflect.DeepEqual(ua, ub) {
		p.t.Fatalf("%s, step %d: UsageTotals\n split %+v\n whole %+v", p.name, p.step, ua, ub)
	}
	if ea, eb := p.a.CheckInvariants(), p.b.CheckInvariants(); ea != nil || eb != nil {
		p.t.Fatalf("%s, step %d: CheckInvariants: split %v, whole %v", p.name, p.step, ea, eb)
	}
}

// serveTo runs the prefill of both sequences of s from what they have
// committed up to n tokens, in chunks of chunk tokens: images encoded
// first, consumed embeddings dropped after each chunk, as the engine
// does. Each chunk is observed.
func (p *splitPair) serveTo(s [2]*Sequence, from, n, chunk int, now Tick) {
	p.t.Helper()
	for i, m := range []*Jenga{p.a, p.b} {
		if err := m.EncodeImages(s[i], n, now); err != nil {
			p.t.Fatalf("%s: EncodeImages: %v", p.name, err)
		}
	}
	for at := from; at < n; {
		at = min(at+chunk, n)
		for i, m := range []*Jenga{p.a, p.b} {
			if err := m.Reserve(s[i], at, now); err != nil {
				p.t.Fatalf("%s: Reserve %d: %v", p.name, at, err)
			}
			m.Commit(s[i], at, now)
			m.DropImages(s[i], at)
		}
		p.observe(s)
	}
}

// TestSplitSequenceMatchesWhole: the manager reads a sequence only
// through Len and Span, so where Tokens ends and Out begins makes no
// difference to it. For every model of the zoo, prefix cache on and
// off, a request is prefilled in chunks, decodes with Out growing one
// token at a time, is preempted and recomputed through its own cached
// blocks, and a second request with the same prompt and tail looks up
// and claims them — once with the prompt ending exactly on a block
// boundary, once with a block straddling it — and the split sequences
// are answered exactly as the whole ones are.
func TestSplitSequenceMatchesWhole(t *testing.T) {
	const tpp, chunk, decodes = 16, 23, 40
	for _, spec := range model.All() {
		geo, err := spec.Geometry(tpp)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		images := 0
		if spec.Vision != nil {
			images = 1
		}
		for _, cache := range []bool{true, false} {
			for _, over := range []int{0, 5} {
				p := &splitPair{t: t, name: fmt.Sprintf("%s cache=%v prompt=4 blocks+%d", spec.Name, cache, over)}
				for _, m := range []**Jenga{&p.a, &p.b} {
					if *m, err = New(Config{Spec: spec, CapacityBytes: 256 * int64(geo.LargePageBytes), TokensPerPage: tpp,
						EnablePrefixCache: cache, RequestAware: true}); err != nil {
						t.Fatalf("%s: %v", p.name, err)
					}
				}
				// The prompt is the images, then text up to four blocks
				// past them plus over tokens.
				perImage := 0
				if images > 0 {
					perImage = spec.Vision.TokensPerImage
				}
				text := (images*perImage+tpp-1)/tpp*tpp - images*perImage + 4*tpp + over
				prompt := chargeSeq(1, "", 1, images, perImage, text).Tokens
				r1 := [2]*Sequence{
					{ID: 1, Tokens: prompt, PromptLen: len(prompt)},
					{ID: 1, Tokens: slices.Clone(prompt), PromptLen: len(prompt)},
				}
				if r1[0].Len()%tpp != over {
					t.Fatalf("%s: prompt of %d tokens", p.name, r1[0].Len())
				}
				p.observe(r1)
				p.serveTo(r1, 0, len(prompt), chunk, 1)
				for i := 0; i < decodes; i++ {
					tok := TextToken(int32(50_001 + i))
					r1[0].Out = append(r1[0].Out, tok)
					r1[1].Tokens = append(r1[1].Tokens, tok)
					now := Tick(2 + i)
					for j, m := range []*Jenga{p.a, p.b} {
						if err := m.Reserve(r1[j], r1[j].Len(), now); err != nil {
							t.Fatalf("%s: decode %d: %v", p.name, i, err)
						}
						m.Commit(r1[j], r1[j].Len(), now)
					}
					p.observe(r1)
				}
				// Preempted with its blocks cached, then recomputed: the
				// claim and the chunks cross the prompt's end.
				p.a.Release(r1[0], true)
				p.b.Release(r1[1], true)
				p.observe(r1)
				p.serveTo(r1, p.a.Lookup(r1[0]), r1[0].Len(), chunk, 100)
				// A second request whose prompt is the first's whole
				// sequence, held split the same way.
				r2 := [2]*Sequence{
					{ID: 2, Tokens: prompt, Out: slices.Clone(r1[0].Out), PromptLen: len(prompt)},
					{ID: 2, Tokens: slices.Clone(r1[1].Tokens), PromptLen: len(prompt)},
				}
				p.observe(r1, r2)
				p.serveTo(r2, 0, r2[0].Len(), chunk, 200)
				p.observe(r1, r2)
				for j, m := range []*Jenga{p.a, p.b} {
					m.Release(r1[j], true)
					m.Release(r2[j], false)
				}
				p.observe()
				if len(p.a.reqs) != 0 || len(p.b.reqs) != 0 {
					t.Fatalf("%s: %d and %d request states outlived their requests", p.name, len(p.a.reqs), len(p.b.reqs))
				}
			}
		}
	}
}
