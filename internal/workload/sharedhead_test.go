package workload

import (
	"slices"
	"testing"

	"jenga/internal/core"
)

// own is r's own part as tokens: Prompt, or Own filled into a fresh
// array.
func own(r *Request) []core.Token {
	toks, _ := r.OwnTokens(r.OwnLen(), nil)
	return toks
}

// fullPrompt is r's whole prompt, Shared head then its own part, as one
// fresh slice.
func fullPrompt(r *Request) []core.Token {
	return append(slices.Clip(r.Shared), own(r)...)
}

// copiedArxivQA is ArxivQA as it was before requests borrowed their
// article: the same draws in the same order, each prompt one fresh
// array holding a copy of the article and then the question, filled in
// place.
func copiedArxivQA(g *Gen, arts []Article, n, questionLen int) []Request {
	reqs := make([]Request, n)
	for i := range reqs {
		a := arts[g.rng.Intn(len(arts))]
		prompt := make([]core.Token, len(a.Tokens)+questionLen)
		copy(prompt, a.Tokens)
		fillTokens(prompt[len(a.Tokens):], int64(g.id())*131071, 0, false)
		reqs[i] = Request{ID: g.id(), Group: a.Seed, Prompt: prompt, OutputLen: g.uniform(100, 300)}
	}
	return reqs
}

// copiedDrift is DriftLengths as it was, over copied prompts.
func copiedDrift(reqs []Request, loFactor, hiFactor float64) {
	n := len(reqs)
	for i := range reqs {
		f := loFactor + (hiFactor-loFactor)*float64(i)/float64(max(n-1, 1))
		keep := max(int(float64(len(reqs[i].Prompt))*f), 16)
		if keep < len(reqs[i].Prompt) {
			reqs[i].Prompt = reqs[i].Prompt[:keep]
		}
	}
}

// TestArxivQASharedHeadMatchesCopy: a request that borrows its article
// as its Shared head reads, token for token, what the prompt that copied
// the article held — header, article, question — and so does every cut
// of it: fig13's context-limit truncation at any length, inside the
// article or the question, and fig16's DriftLengths. The head is the
// article's own array, never a copy, and the Prompt is the question
// alone.
func TestArxivQASharedHeadMatchesCopy(t *testing.T) {
	const n, questionLen = 60, 64
	arts := NewGen(20250926).Articles(6, 1024)
	for _, seed := range []int64{7, 42} {
		got := NewGen(seed).ArxivQA(arts, n, questionLen)
		want := copiedArxivQA(NewGen(seed), arts, n, questionLen)
		for i := range got {
			g, w := &got[i], &want[i]
			if g.ID != w.ID || g.Group != w.Group || g.OutputLen != w.OutputLen {
				t.Fatalf("seed %d request %d: header %d/%d/%d, want %d/%d/%d", seed, i, g.ID, g.Group, g.OutputLen, w.ID, w.Group, w.OutputLen)
			}
			if !slices.Equal(fullPrompt(g), w.Prompt) || g.PromptLen() != len(w.Prompt) {
				t.Fatalf("seed %d request %d: Shared ++ own part differs from the copied prompt", seed, i)
			}
			if g.OwnLen() != questionLen || !slices.ContainsFunc(arts, func(a Article) bool { return &a.Tokens[0] == &g.Shared[0] }) {
				t.Fatalf("seed %d request %d: want the article's own array as the head and the question alone as the own part", seed, i)
			}
			if cap(g.Shared) != len(g.Shared) {
				t.Fatalf("seed %d request %d: the head has room after it (cap %d, len %d); an append would write into the article", seed, i, cap(g.Shared), len(g.Shared))
			}
			art := len(g.Shared)
			for _, maxLen := range []int{1, art - 1, art, art + 1, art + questionLen - 1, art + questionLen, art + questionLen + 9} {
				cut := *g
				cut.Truncate(maxLen)
				if wantCut := w.Prompt[:min(maxLen, len(w.Prompt))]; !slices.Equal(fullPrompt(&cut), wantCut) {
					t.Fatalf("seed %d request %d: Truncate(%d) kept %d tokens, want the copied prompt's first %d", seed, i, maxLen, cut.PromptLen(), len(wantCut))
				}
			}
		}
		g := NewGen(seed)
		g.DriftLengths(got, 0.3, 1.0)
		copiedDrift(want, 0.3, 1.0)
		cutInArticle := 0
		for i := range got {
			if !slices.Equal(fullPrompt(&got[i]), want[i].Prompt) {
				t.Fatalf("seed %d request %d: DriftLengths kept %d tokens, the copied prompt %d", seed, i, got[i].PromptLen(), len(want[i].Prompt))
			}
			if got[i].OwnLen() == 0 {
				cutInArticle++
			}
		}
		if cutInArticle == 0 {
			t.Fatalf("seed %d: no drift cut reached into the article", seed)
		}
	}
}

// groupHeadWant is what a group request's Shared head must hold: n
// tokens filled from the group's content seed, its Group label.
func groupHeadWant(r *Request, n int) []core.Token {
	want := make([]core.Token, n)
	fillTokens(want, r.Group, 0, false)
	return want
}

// TestGroupHeadsOutliveShapeChanges: a head lent under one generator
// shape reads its own content after the Gen has switched shapes — more
// groups, another prefix length, another seed base, and back — because
// every switch fills a fresh memo and never refills the one lent heads
// point into. Each head is clipped, so an append through it cannot
// write into a neighbouring group's prefix.
func TestGroupHeadsOutliveShapeChanges(t *testing.T) {
	type lent struct {
		reqs []Request
		n    int
	}
	g := NewGen(5)
	var all []lent
	for round := 0; round < 2; round++ {
		all = append(all,
			lent{g.PrefixGroups(3, 2, 64, 8), 64},
			lent{g.PrefixGroups(6, 1, 64, 8), 64},
			lent{g.ChurnGroups(4, 2, 48, 8, 2), 48},
			lent{g.MMLUPro(4, 96), 96},
			lent{g.PrefixGroups(2, 2, 64, 8), 64})
	}
	for i, l := range all {
		for j := range l.reqs {
			r := &l.reqs[j]
			if !slices.Equal(r.Shared, groupHeadWant(r, l.n)) {
				t.Fatalf("shape %d request %d (group %d): the head no longer reads its group's prefix", i, j, r.Group)
			}
			if cap(r.Shared) != len(r.Shared) {
				t.Fatalf("shape %d request %d: head has cap %d beyond its len %d", i, j, cap(r.Shared), len(r.Shared))
			}
		}
	}
}
