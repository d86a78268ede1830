package workload

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"testing"

	"jenga/internal/core"
)

// streamHash fingerprints everything a generator decides about a
// stream: per request the ID, arrival, group, output length, deadline,
// fan-out shape, and every prompt token's content and modality — the
// whole prompt, Shared head then the own part (its recipe filled), as
// one sequence.
type streamHash struct {
	h hash.Hash64
}

func newStreamHash() streamHash { return streamHash{fnv.New64a()} }

func (s streamHash) add(r *Request) {
	var b [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		s.h.Write(b[:])
	}
	put(r.ID)
	put(int64(r.Arrival))
	put(r.Group)
	put(int64(r.OutputLen))
	put(int64(r.Deadline))
	put(int64(r.Fanout))
	put(int64(r.ForkAfter))
	put(int64(r.PromptLen()))
	for _, part := range [2][]core.Token{r.Shared, own(r)} {
		for _, t := range part {
			v := int64(t.Content())
			if t.Image() {
				v |= 1 << 40
			}
			put(v)
		}
	}
}

func streamFNV(reqs []Request) uint64 {
	s := newStreamHash()
	for i := range reqs {
		s.add(&reqs[i])
	}
	return s.h.Sum64()
}

// genCase is one generator in its slice and streaming forms, with the
// per-request body both share and the stream fingerprints captured at
// the commit before the generators were rewritten to fill one
// exact-size prompt in place (when tokens were {ID int32; Image bool}
// and prompts were built copy-then-grow).
type genCase struct {
	name  string
	slice func(g *Gen) []Request
	src   func(g *Gen) Source
	one   func(g *Gen) Request
	want  map[int64]uint64 // seed → fingerprint
}

func genCases() []genCase {
	arts := NewGen(1).Articles(4, 2048)
	return []genCase{
		{"mmlu_pro",
			func(g *Gen) []Request { return g.MMLUPro(40, 512) },
			func(g *Gen) Source { return stream(g, 40, func() Request { return g.mmluProOne(512) }) },
			func(g *Gen) Request { return g.mmluProOne(512) },
			map[int64]uint64{7: 0xe976d966e3f747a6, 42: 0xee799b0c50bb609c}},
		{"mmmu_pro",
			func(g *Gen) []Request { return g.MMMUPro(12, 576) },
			func(g *Gen) Source { return stream(g, 12, func() Request { return g.mmmuProOne(576) }) },
			func(g *Gen) Request { return g.mmmuProOne(576) },
			map[int64]uint64{7: 0x133f70da6d29c044, 42: 0xc92ee12fa0005f5d}},
		{"arxiv_qa",
			func(g *Gen) []Request { return g.ArxivQA(g.Articles(4, 2048), 20, 64) },
			func(g *Gen) Source {
				arts := g.Articles(4, 2048)
				return stream(g, 20, func() Request { return g.arxivQAOne(arts, 64) })
			},
			func(g *Gen) Request { return g.arxivQAOne(arts, 64) },
			map[int64]uint64{7: 0xcf7c424c17223a06, 42: 0x9ca6f3fba108d1d7}},
		{"longdoc_qa",
			func(g *Gen) []Request { return g.LongDocQA(2) },
			func(g *Gen) Source { return stream(g, 2, g.longDocQAOne) },
			func(g *Gen) Request { return g.longDocQAOne() },
			map[int64]uint64{7: 0xf5a0797698c74f3f, 42: 0xd5321a79e5cb3e5e}},
		{"sharegpt",
			func(g *Gen) []Request { return g.ShareGPT(40) },
			func(g *Gen) Source { return stream(g, 40, g.shareGPTOne) },
			func(g *Gen) Request { return g.shareGPTOne() },
			map[int64]uint64{7: 0x46507007499de707, 42: 0xe52e5d4c44dcfe59}},
		{"prefix_groups",
			func(g *Gen) []Request { return g.PrefixGroups(4, 5, 128, 32) },
			func(g *Gen) Source { return g.PrefixGroupsSource(4, 5, 128, 32) },
			func(g *Gen) Request { return g.prefixGroupsOne(4, 1, 128, 32) },
			map[int64]uint64{7: 0x7c762ad333d6b2a0, 42: 0xf4195bac0883a53c}},
		{"churn_groups",
			func(g *Gen) []Request { return g.ChurnGroups(6, 5, 128, 32, 3) },
			func(g *Gen) Source { return g.ChurnGroupsSource(6, 5, 128, 32, 3) },
			func(g *Gen) Request { return g.churnGroupsOne(3, 30, 6, 128, 32, 3) },
			map[int64]uint64{7: 0x056a399074c84b93, 42: 0x3e2a1ee066d479db}},
		{"fan_out", // content is a function of the request ID alone
			func(g *Gen) []Request { return g.FanOut(10, 100, 4, 32, 3) },
			func(g *Gen) Source { return stream(g, 10, func() Request { return g.fanOutOne(100, 4, 32, 3) }) },
			func(g *Gen) Request { return g.fanOutOne(100, 4, 32, 3) },
			map[int64]uint64{7: 0x89be692cce2bc100, 42: 0x89be692cce2bc100}},
	}
}

// TestGeneratorsBitIdentical pins every generator's output, in slice
// and Source form at two seeds, to fingerprints taken before the
// generators filled prompts in place: the same RNG draws in the same
// order, the same g.id() sequence, the same token contents and
// modalities, now read by filling each request's recipe. No generated
// request carries tokens of its own (Prompt).
func TestGeneratorsBitIdentical(t *testing.T) {
	for _, c := range genCases() {
		for seed, want := range c.want {
			for form, reqs := range map[string][]Request{
				"slice":  c.slice(NewGen(seed)),
				"source": Collect(c.src(NewGen(seed))),
			} {
				if got := streamFNV(reqs); got != want {
					t.Errorf("%s seed %d %s form: fingerprint %#016x, want %#016x", c.name, seed, form, got, want)
				}
				for i := range reqs {
					if p := reqs[i].Prompt; p != nil {
						t.Fatalf("%s seed %d %s form: request %d holds a %d-token Prompt; a generator emits a recipe", c.name, seed, form, i, len(p))
					}
				}
			}
		}
	}
}

// TestGeneratedRequestAllocatesNothing: a generated request costs no
// heap allocation — its own part is a recipe, and a shared article or
// group prefix is lent, not copied (a shape's prefixes are filled once,
// in the warm-up call AllocsPerRun makes first).
func TestGeneratedRequestAllocatesNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation accounting is not meaningful under -short/-race runs")
	}
	var sink Request
	for _, c := range genCases() {
		g := NewGen(7)
		if allocs := testing.AllocsPerRun(20, func() { sink = c.one(g) }); allocs != 0 {
			t.Errorf("%s: %.1f allocations per request, want 0", c.name, allocs)
		}
	}
	_ = sink
}

// TestGroupPrefixesMatchFill: a group's shared prefix is filled once
// per generator and lent to each request as its Shared head, and every
// whole prompt (Shared ++ Prompt) must hold
// exactly what filling it in place would have written — the prefix from
// the group's content seed, the suffix from the request's own. Checked
// per request, token by token, for PrefixGroups, ChurnGroups and
// MMLUPro, in slice and streamed form, and for two shapes drawn from
// one Gen in turn.
func TestGroupPrefixesMatchFill(t *testing.T) {
	type shape struct {
		name      string
		prefix    int
		suffixMul int64 // the suffix's content seed is (ID−1)·suffixMul
		slice     func(g *Gen) []Request
		src       func(g *Gen) Source
	}
	shapes := []shape{
		{"prefix_groups", 128, 15485863,
			func(g *Gen) []Request { return g.PrefixGroups(4, 6, 128, 32) },
			func(g *Gen) Source { return g.PrefixGroupsSource(4, 6, 128, 32) }},
		{"churn_groups", 96, 15485863,
			func(g *Gen) []Request { return g.ChurnGroups(6, 5, 96, 40, 3) },
			func(g *Gen) Source { return g.ChurnGroupsSource(6, 5, 96, 40, 3) }},
		{"mmlu_pro", 512, 7919,
			func(g *Gen) []Request { return g.MMLUPro(30, 512) },
			func(g *Gen) Source { return stream(g, 30, func() Request { return g.mmluProOne(512) }) }},
	}
	check := func(t *testing.T, s shape, form string, r *Request) {
		t.Helper()
		prompt := fullPrompt(r)
		want := make([]core.Token, len(prompt))
		fillTokens(want[:s.prefix], r.Group, 0, false)
		fillTokens(want[s.prefix:], (r.ID-1)*s.suffixMul, 0, false)
		for i := range want {
			if prompt[i] != want[i] {
				t.Fatalf("%s %s: request %d token %d is %v, a per-request fill writes %v", s.name, form, r.ID, i, prompt[i], want[i])
			}
		}
	}
	for _, s := range shapes {
		for _, seed := range []int64{7, 42} {
			reqs := s.slice(NewGen(seed))
			for i := range reqs {
				check(t, s, "slice", &reqs[i])
			}
			src := s.src(NewGen(seed))
			n := 0
			for r, ok := src.Next(); ok; r, ok = src.Next() {
				check(t, s, "stream", r)
				n++
			}
			if n != len(reqs) {
				t.Fatalf("%s: the stream yielded %d requests, the slice %d", s.name, n, len(reqs))
			}
		}
	}
	// Shapes from one Gen in turn — two prefix lengths of one base, more
	// groups of a length already filled, another base — each refilling
	// the memo for its own prefixes.
	g := NewGen(3)
	for round := 0; round < 3; round++ {
		for _, r := range g.PrefixGroups(2, 2, 64, 8) {
			check(t, shape{name: "alternating", prefix: 64, suffixMul: 15485863}, "slice", &r)
		}
		for _, r := range g.PrefixGroups(5, 1, 64, 8) {
			check(t, shape{name: "alternating", prefix: 64, suffixMul: 15485863}, "slice", &r)
		}
		for _, r := range g.PrefixGroups(5, 1, 32, 8) {
			check(t, shape{name: "alternating", prefix: 32, suffixMul: 15485863}, "slice", &r)
		}
		for _, r := range g.MMLUPro(3, 64) {
			check(t, shape{name: "alternating", prefix: 64, suffixMul: 7919}, "slice", &r)
		}
	}
}
