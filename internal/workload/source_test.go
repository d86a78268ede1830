package workload

import (
	"reflect"
	"testing"
	"time"
)

// stream is the streaming form of a generator that has no exported
// Source: its one-request body pulled n times.
func stream(g *Gen, n int, one func() Request) Source {
	return &funcSource{n: n, pull: one}
}

// requireSameStream asserts a streaming source reproduces its slice
// counterpart request for request.
func requireSameStream(t *testing.T, name string, want []Request, src Source) {
	t.Helper()
	got := Collect(src)
	if len(got) != len(want) {
		t.Fatalf("%s: stream yielded %d requests, slice %d", name, len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("%s: request %d differs:\nstream %+v\nslice  %+v", name, i, got[i], want[i])
		}
	}
}

// Every generator's stream — exported or built from its one-request
// body — must consume its Gen's randomness in exactly the slice
// generator's order: same seed, same sequence.
func TestSourcesMatchSliceGenerators(t *testing.T) {
	cases := []struct {
		name  string
		slice func(g *Gen) []Request
		src   func(g *Gen) Source
	}{
		{"mmlu_pro",
			func(g *Gen) []Request { return g.MMLUPro(40, 512) },
			func(g *Gen) Source { return stream(g, 40, func() Request { return g.mmluProOne(512) }) }},
		{"mmmu_pro",
			func(g *Gen) []Request { return g.MMMUPro(40, 256) },
			func(g *Gen) Source { return stream(g, 40, func() Request { return g.mmmuProOne(256) }) }},
		{"longdoc_qa",
			func(g *Gen) []Request { return g.LongDocQA(40) },
			func(g *Gen) Source { return stream(g, 40, g.longDocQAOne) }},
		{"sharegpt",
			func(g *Gen) []Request { return g.ShareGPT(40) },
			func(g *Gen) Source { return stream(g, 40, g.shareGPTOne) }},
		{"prefix_groups",
			func(g *Gen) []Request { return g.PrefixGroups(4, 10, 256, 64) },
			func(g *Gen) Source { return g.PrefixGroupsSource(4, 10, 256, 64) }},
		{"churn_groups",
			func(g *Gen) []Request { return g.ChurnGroups(4, 10, 256, 64, 3) },
			func(g *Gen) Source { return g.ChurnGroupsSource(4, 10, 256, 64, 3) }},
		{"fan_out",
			func(g *Gen) []Request { return g.FanOut(20, 256, 128, 32, 3) },
			func(g *Gen) Source { return stream(g, 20, func() Request { return g.fanOutOne(256, 128, 32, 3) }) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			requireSameStream(t, tc.name, tc.slice(NewGen(7)), tc.src(NewGen(7)))
		})
	}
}

func TestArxivQASourceMatchesSlice(t *testing.T) {
	// The article pool is generated first in both flows, so one Gen per
	// flow keeps the randomness order identical.
	gs := NewGen(11)
	arts := gs.Articles(6, 2048)
	want := gs.ArxivQA(arts, 40, 64)
	gt := NewGen(11)
	arts2 := gt.Articles(6, 2048)
	requireSameStream(t, "arxiv_qa", want, stream(gt, 40, func() Request { return gt.arxivQAOne(arts2, 64) }))
}

func TestPoissonSourceMatchesPoissonArrivals(t *testing.T) {
	// Slice flow: generate everything, then lay arrivals with the same
	// Gen. Streaming interleaves generation and arrivals, so it needs a
	// dedicated arrival Gen seeded like the slice flow's post-generation
	// state — here each stage simply gets its own seed in both flows.
	want := NewGen(3).PrefixGroups(4, 10, 256, 64)
	NewGen(5).PoissonArrivals(want, 200)
	src := PoissonSource(NewGen(3).PrefixGroupsSource(4, 10, 256, 64), NewGen(5), 200)
	requireSameStream(t, "poisson", want, src)
}

func TestDeadlineSourceMatchesSetDeadlines(t *testing.T) {
	want := NewGen(9).PrefixGroups(3, 10, 128, 32)
	SetDeadlines(want, 250*time.Millisecond)
	src := Apply(NewGen(9).PrefixGroupsSource(3, 10, 128, 32), func(r *Request) { r.Deadline = 250 * time.Millisecond })
	requireSameStream(t, "deadline", want, src)
}

func TestSourceExhaustion(t *testing.T) {
	src := NewGen(1).PrefixGroupsSource(1, 2, 16, 16)
	for i := 0; i < 2; i++ {
		if _, ok := src.Next(); !ok {
			t.Fatalf("source exhausted after %d of 2", i)
		}
	}
	for i := 0; i < 3; i++ {
		if r, ok := src.Next(); ok || r != nil {
			t.Fatal("exhausted source must keep returning nil, false")
		}
	}
}
