package workload

import (
	"testing"
	"time"
)

// TestMMMUImagesAreContiguousRuns: the engine and the image-atomic
// eviction policy treat each maximal run of image tokens as one image,
// so generated images must be contiguous.
func TestMMMUImagesAreContiguousRuns(t *testing.T) {
	reqs := NewGen(9).MMMUPro(10, 256)
	for _, r := range reqs {
		runs := 0
		inRun := false
		for _, tok := range r.Prompt {
			if tok.Image() && !inRun {
				runs++
				inRun = true
			} else if !tok.Image() {
				inRun = false
			}
		}
		if runs == 0 {
			t.Fatal("request without images")
		}
		// Each run should be an exact multiple of the image size.
		count := 0
		for i, tok := range r.Prompt {
			if tok.Image() {
				count++
			}
			if (!tok.Image() || i == len(r.Prompt)-1) && count > 0 {
				if count%256 != 0 {
					t.Fatalf("image run of %d tokens is not a multiple of 256", count)
				}
				count = 0
			}
		}
	}
}

// TestArticleIdentityAcrossGenerators: article content depends only on
// the article index, so two independently seeded generators agree —
// the property Fig. 17's cross-request sharing relies on.
func TestArticleIdentityAcrossGenerators(t *testing.T) {
	a := NewGen(1).Articles(3, 1000)
	b := NewGen(999).Articles(3, 1000)
	for i := range a {
		if a[i].Seed != b[i].Seed {
			t.Fatalf("article %d seeds differ", i)
		}
		n := min(len(a[i].Tokens), len(b[i].Tokens))
		for j := 0; j < n; j++ {
			if a[i].Tokens[j] != b[i].Tokens[j] {
				t.Fatalf("article %d token %d differs across generators", i, j)
			}
		}
	}
}

// TestArxivQAPromptIsArticlePlusQuestion: the question is appended
// after the complete article.
func TestArxivQAPromptIsArticlePlusQuestion(t *testing.T) {
	g := NewGen(4)
	arts := g.Articles(1, 500)
	reqs := g.ArxivQA(arts, 2, 64)
	for _, r := range reqs {
		if len(r.Prompt) != len(arts[0].Tokens)+64 {
			t.Fatalf("prompt len %d != article %d + question 64", len(r.Prompt), len(arts[0].Tokens))
		}
		for j, tok := range arts[0].Tokens {
			if r.Prompt[j] != tok {
				t.Fatalf("prompt diverges from article at %d", j)
			}
		}
	}
	// Questions are unique across requests.
	q0 := reqs[0].Prompt[len(arts[0].Tokens):]
	q1 := reqs[1].Prompt[len(arts[0].Tokens):]
	same := true
	for j := range q0 {
		if q0[j] != q1[j] {
			same = false
			break
		}
	}
	if same {
		t.Error("questions should differ between requests")
	}
}

// TestSpan: the arrival envelope is order-independent and empty-safe.
func TestSpan(t *testing.T) {
	if f, l := Span(nil); f != 0 || l != 0 {
		t.Fatalf("empty Span = %v..%v, want 0..0", f, l)
	}
	reqs := []Request{
		{Arrival: 30 * time.Millisecond},
		{Arrival: 10 * time.Millisecond},
		{Arrival: 20 * time.Millisecond},
	}
	f, l := Span(reqs)
	if f != 10*time.Millisecond || l != 30*time.Millisecond {
		t.Fatalf("Span = %v..%v, want 10ms..30ms", f, l)
	}
}
