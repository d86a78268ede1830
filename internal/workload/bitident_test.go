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
// fan-out shape, and every prompt token's content and modality.
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
	put(int64(len(r.Prompt)))
	for _, t := range r.Prompt {
		v := int64(t.Content())
		if t.Image() {
			v |= 1 << 40
		}
		put(v)
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
			func(g *Gen) Source { return g.MMLUProSource(40, 512) },
			func(g *Gen) Request { return g.mmluProOne(512) },
			map[int64]uint64{7: 0xe976d966e3f747a6, 42: 0xee799b0c50bb609c}},
		{"mmmu_pro",
			func(g *Gen) []Request { return g.MMMUPro(12, 576) },
			func(g *Gen) Source { return g.MMMUProSource(12, 576) },
			func(g *Gen) Request { return g.mmmuProOne(576) },
			map[int64]uint64{7: 0x133f70da6d29c044, 42: 0xc92ee12fa0005f5d}},
		{"arxiv_qa",
			func(g *Gen) []Request { return g.ArxivQA(g.Articles(4, 2048), 20, 64) },
			func(g *Gen) Source { return g.ArxivQASource(g.Articles(4, 2048), 20, 64) },
			func(g *Gen) Request { return g.arxivQAOne(arts, 64) },
			map[int64]uint64{7: 0xcf7c424c17223a06, 42: 0x9ca6f3fba108d1d7}},
		{"longdoc_qa",
			func(g *Gen) []Request { return g.LongDocQA(2) },
			func(g *Gen) Source { return g.LongDocQASource(2) },
			func(g *Gen) Request { return g.longDocQAOne() },
			map[int64]uint64{7: 0xf5a0797698c74f3f, 42: 0xd5321a79e5cb3e5e}},
		{"sharegpt",
			func(g *Gen) []Request { return g.ShareGPT(40) },
			func(g *Gen) Source { return g.ShareGPTSource(40) },
			func(g *Gen) Request { return g.shareGPTOne() },
			map[int64]uint64{7: 0x46507007499de707, 42: 0xe52e5d4c44dcfe59}},
		{"prefix_groups",
			func(g *Gen) []Request { return g.PrefixGroups(4, 5, 128, 32) },
			func(g *Gen) Source { return g.PrefixGroupsSource(4, 5, 128, 32) },
			func(g *Gen) Request { return g.prefixGroupsOne(1, 128, 32) },
			map[int64]uint64{7: 0x7c762ad333d6b2a0, 42: 0xf4195bac0883a53c}},
		{"churn_groups",
			func(g *Gen) []Request { return g.ChurnGroups(6, 5, 128, 32, 3) },
			func(g *Gen) Source { return g.ChurnGroupsSource(6, 5, 128, 32, 3) },
			func(g *Gen) Request { return g.churnGroupsOne(3, 30, 6, 128, 32, 3) },
			map[int64]uint64{7: 0x056a399074c84b93, 42: 0x3e2a1ee066d479db}},
		{"fan_out", // content is a function of the request ID alone
			func(g *Gen) []Request { return g.FanOut(10, 100, 4, 32, 3) },
			func(g *Gen) Source { return g.FanOutSource(10, 100, 4, 32, 3) },
			func(g *Gen) Request { return g.fanOutOne(100, 4, 32, 3) },
			map[int64]uint64{7: 0x89be692cce2bc100, 42: 0x89be692cce2bc100}},
	}
}

// TestGeneratorsBitIdentical pins every generator's output, in slice
// and Source form at two seeds, to fingerprints taken before the
// generators filled prompts in place: the same RNG draws in the same
// order, the same g.id() sequence, the same token contents and
// modalities. Each prompt is exactly as large as its content.
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
					if p := reqs[i].Prompt; len(p) != cap(p) {
						t.Fatalf("%s seed %d %s form: request %d prompt has len %d, cap %d", c.name, seed, form, i, len(p), cap(p))
					}
				}
			}
		}
	}
}

// TestGeneratorsBitIdenticalRecycled: the same fingerprints from a
// consumer that hands every prompt back two requests later, so that
// most requests are written over an earlier one's array — one of another
// length, with room to spare, wherever lengths vary. Reuse changes
// where a prompt lives and how much capacity trails it, never a token.
func TestGeneratorsBitIdenticalRecycled(t *testing.T) {
	reused, roomy := 0, 0
	for _, c := range genCases() {
		for seed, want := range c.want {
			src := c.src(NewGen(seed))
			rec, ok := src.(Recycler)
			if !ok {
				t.Fatalf("%s: the generator source does not take prompts back", c.name)
			}
			sum := newStreamHash()
			seen := map[*core.Token]bool{}
			var held [][]core.Token
			for {
				r, ok := src.Next()
				if !ok {
					break
				}
				sum.add(r)
				if base := &r.Prompt[0]; seen[base] {
					reused++
					if cap(r.Prompt) > len(r.Prompt) {
						roomy++
					}
				} else {
					seen[base] = true
				}
				if held = append(held, r.Prompt); len(held) > 2 {
					rec.Recycle(held[0])
					held = held[1:]
				}
			}
			if got := sum.h.Sum64(); got != want {
				t.Errorf("%s seed %d recycled: fingerprint %#016x, want %#016x", c.name, seed, got, want)
			}
		}
	}
	if reused == 0 || roomy == 0 {
		t.Fatalf("%d prompts were written over a handed-back array, %d of them a larger one; want both", reused, roomy)
	}
}

// TestGeneratorsAllocateOnlyThePrompt: one request costs one heap
// allocation, its prompt — no temporary per segment, no regrowth, no
// copy of a shared article or prefix beyond the prompt itself.
func TestGeneratorsAllocateOnlyThePrompt(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation accounting is not meaningful under -short/-race runs")
	}
	var sink Request
	for _, c := range genCases() {
		g := NewGen(7)
		if allocs := testing.AllocsPerRun(20, func() { sink = c.one(g) }); allocs != 1 {
			t.Errorf("%s: %.1f allocations per request, want 1 (the prompt)", c.name, allocs)
		}
	}
	_ = sink
}
