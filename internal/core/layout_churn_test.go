package core

import (
	"testing"

	"jenga/internal/arena"
	"jenga/internal/model"
)

// TestBackedLayoutUnderChurn drives a backed manager through the full
// lifecycle — prefill, window demotion, release-to-cache, prefix-hit
// claims and evictions — writing a fingerprint into every slot at
// commit time and re-verifying every slot of every *live* page after
// each phase. Any allocator bug that reuses bytes still referenced by a
// live page shows up as a corrupted fingerprint.
func TestBackedLayoutUnderChurn(t *testing.T) {
	spec := &model.Spec{
		Name: "churn", Params: 1000, WeightBytes: 2, HiddenSize: 8,
		Groups: []model.KVGroup{
			{Name: "full", Kind: model.FullAttention, Layers: 2, BytesPerToken: 64},
			{Name: "win", Kind: model.SlidingWindow, Layers: 3, BytesPerToken: 64, Window: 8},
		},
	}
	m, err := New(Config{
		Spec: spec, CapacityBytes: 1 << 15, TokensPerPage: 2,
		EnablePrefixCache: true, RequestAware: true, Backed: true,
	})
	if err != nil {
		t.Fatal(err)
	}

	// write stamps fingerprints for every filled slot of every held
	// page of seq; expected records them for later verification.
	type slotKey struct {
		group string
		page  arena.SmallPageID
		layer int
		slot  int
	}
	expected := map[slotKey]uint64{}
	stamp := func(seq *Sequence) {
		r := m.reqs[seq.ID]
		for gi, g := range m.groups {
			rg := &r.g[gi]
			for b := rg.base; b < rg.end(); b++ {
				ref := rg.at(b)
				if !ref.held() {
					continue
				}
				pg := &g.pages[ref.id()]
				for layer := 0; layer < g.spec.Layers; layer++ {
					kv, err := g.view.Kernel(layer, []arena.SmallPageID{ref.id()})
					if err != nil {
						t.Fatal(err)
					}
					for s := 0; s < int(pg.filled); s++ {
						fp := arena.TokenFingerprint(uint64(seq.ID), layer*1_000_003+gi, b*g.tpp+s)
						if err := kv.WriteFingerprint(0, s, fp); err != nil {
							t.Fatal(err)
						}
						expected[slotKey{g.spec.Name, ref.id(), layer, s}] = fp
					}
				}
			}
		}
	}
	// verify checks every slot of every page still held by live
	// sequences; pages that were demoted/evicted drop out of expected.
	verify := func(label string, seqs ...*Sequence) {
		t.Helper()
		for _, seq := range seqs {
			r, ok := m.reqs[seq.ID]
			if !ok {
				continue
			}
			for gi, g := range m.groups {
				rg := &r.g[gi]
				for _, ref := range rg.table {
					if !ref.held() {
						continue
					}
					pg := &g.pages[ref.id()]
					for layer := 0; layer < g.spec.Layers; layer++ {
						kv, err := g.view.Kernel(layer, []arena.SmallPageID{ref.id()})
						if err != nil {
							t.Fatal(err)
						}
						for s := 0; s < int(pg.filled); s++ {
							want, ok := expected[slotKey{g.spec.Name, ref.id(), layer, s}]
							if !ok {
								continue
							}
							got, err := kv.ReadFingerprint(0, s)
							if err != nil {
								t.Fatal(err)
							}
							if got != want {
								t.Fatalf("%s: seq %d group %s page %d layer %d slot %d: %#x != %#x (bytes reused under a live page)",
									label, seq.ID, g.spec.Name, ref.id(), layer, s, got, want)
							}
						}
					}
				}
			}
		}
	}

	// Phase 1: two sequences prefill in interleaved chunks.
	a := textSeq(1, 32)
	a.PromptLen = 32
	b := textSeq(2, 32)
	b.Tokens[0].ID = 999
	b.PromptLen = 32
	for _, upTo := range []int{8, 16, 24, 32} {
		for i, s := range []*Sequence{a, b} {
			if err := m.Reserve(s, upTo, Tick(upTo+i)); err != nil {
				t.Fatal(err)
			}
			m.Commit(s, upTo, Tick(upTo+i))
		}
		stamp(a)
		stamp(b)
		verify("prefill", a, b)
	}
	audit(t, m)

	// Phase 2: a releases to cache; c claims a's prefix and continues.
	m.Release(a, true)
	verify("after release", b)
	c := textSeq(3, 32)
	c.PromptLen = 32
	if err := m.Reserve(c, 32, 100); err != nil {
		t.Fatal(err)
	}
	if m.CachedPrefix(c) == 0 {
		t.Fatal("expected c to claim a's cache")
	}
	m.Commit(c, 32, 100)
	stamp(c)
	verify("after claim", b, c)
	audit(t, m)

	// Phase 3: eviction pressure from a fourth sequence must never
	// touch bytes under b's or c's held pages.
	d := textSeq(4, 64)
	d.Tokens[0].ID = 777
	d.PromptLen = 64
	_ = m.Reserve(d, 64, 200) // may hit ErrNoSpace; pressure is the point
	verify("under pressure", b, c)
	m.Release(b, false)
	m.Release(c, false)
	m.Release(d, false)
	audit(t, m)
}
