package workload

import (
	"testing"
	"time"
)

func TestDeterminism(t *testing.T) {
	a := NewGen(7).MMLUPro(20, 512)
	b := NewGen(7).MMLUPro(20, 512)
	if len(a) != len(b) {
		t.Fatal("length mismatch")
	}
	for i := range a {
		pa, pb := fullPrompt(&a[i]), fullPrompt(&b[i])
		if len(pa) != len(pb) || a[i].OutputLen != b[i].OutputLen {
			t.Fatalf("request %d differs across identical seeds", i)
		}
		for j := range pa {
			if pa[j] != pb[j] {
				t.Fatalf("token %d of request %d differs", j, i)
			}
		}
	}
}

func TestMMLUProSharedPrefix(t *testing.T) {
	reqs := NewGen(1).MMLUPro(40, 256)
	// Requests of the same subject share the first 256 tokens.
	shared := 0
	first := fullPrompt(&reqs[0])
	for i := 1; i < len(reqs); i++ {
		same := true
		p := fullPrompt(&reqs[i])
		for j := 0; j < 256; j++ {
			if p[j] != first[j] {
				same = false
				break
			}
		}
		if same {
			shared++
		}
	}
	if shared == 0 {
		t.Error("expected some requests to share the subject prefix")
	}
	for _, r := range reqs {
		if r.PromptLen() > 3076 {
			t.Errorf("MMLU-pro prompt %d exceeds max 3076", r.PromptLen())
		}
		if r.PromptImages() != 0 {
			t.Error("MMLU-pro is text-only")
		}
	}
}

func TestMMMUProStatistics(t *testing.T) {
	reqs := NewGen(2).MMMUPro(50, 1601)
	var img, txt int64
	for _, r := range reqs {
		i := r.PromptImages()
		img += int64(i)
		txt += int64(len(r.Prompt) - i)
	}
	meanImg := float64(img) / 50
	meanTxt := float64(txt) / 50
	// §3.2: 6193 image and 43 text tokens per request on average.
	if meanImg < 4500 || meanImg > 8000 {
		t.Errorf("mean image tokens = %.0f, want ≈ 6193", meanImg)
	}
	if meanTxt < 25 || meanTxt > 70 {
		t.Errorf("mean text tokens = %.0f, want ≈ 43", meanTxt)
	}
}

func TestArxivQASharing(t *testing.T) {
	g := NewGen(3)
	arts := g.Articles(3, 2000)
	reqs := g.ArxivQA(arts, 30, 128)
	// Two requests over the same article share its full token prefix.
	found := false
outer:
	for i := range reqs {
		for j := i + 1; j < len(reqs); j++ {
			pi, pj := fullPrompt(&reqs[i]), fullPrompt(&reqs[j])
			if len(pi) >= 64 && len(pj) >= 64 {
				same := true
				for k := 0; k < 64; k++ {
					if pi[k] != pj[k] {
						same = false
						break
					}
				}
				if same {
					found = true
					break outer
				}
			}
		}
	}
	if !found {
		t.Error("no article sharing across 30 requests over 3 articles")
	}
}

func TestLongDocQARange(t *testing.T) {
	reqs := NewGen(4).LongDocQA(20)
	for _, r := range reqs {
		if len(r.Prompt) < 55_000 || len(r.Prompt) > 110_000 {
			t.Errorf("input %d outside [55k, 110k]", len(r.Prompt))
		}
		if r.OutputLen < 50 || r.OutputLen > 100 {
			t.Errorf("output %d outside [50, 100]", r.OutputLen)
		}
	}
}

func TestPoissonArrivalsMonotone(t *testing.T) {
	g := NewGen(5)
	reqs := g.ShareGPT(100)
	g.PoissonArrivals(reqs, 2.0)
	var prev time.Duration = -1
	for _, r := range reqs {
		if r.Arrival <= prev {
			t.Fatal("arrivals must be strictly increasing")
		}
		prev = r.Arrival
	}
	// Mean gap ≈ 0.5 s → 100 requests ≈ 50 s total.
	if total := reqs[99].Arrival.Seconds(); total < 25 || total > 100 {
		t.Errorf("total arrival span = %.1fs, want ≈ 50s", total)
	}
	AllAtOnce(reqs)
	for _, r := range reqs {
		if r.Arrival != 0 {
			t.Fatal("AllAtOnce must zero arrivals")
		}
	}
}

func meanPromptLen(reqs []Request) float64 {
	if len(reqs) == 0 {
		return 0
	}
	var s int64
	for i := range reqs {
		s += int64(len(reqs[i].Prompt))
	}
	return float64(s) / float64(len(reqs))
}

func TestDriftLengths(t *testing.T) {
	g := NewGen(6)
	reqs := g.ShareGPT(50)
	before := meanPromptLen(reqs)
	g.DriftLengths(reqs, 0.3, 1.0)
	after := meanPromptLen(reqs)
	if after >= before {
		t.Error("drift with factors < 1 must shrink the mean")
	}
	early := meanPromptLen(reqs[:10])
	late := meanPromptLen(reqs[40:])
	if early >= late {
		t.Error("early requests should be shorter than late ones")
	}
}

func TestShareGPTMean(t *testing.T) {
	reqs := NewGen(8).ShareGPT(300)
	mean := meanPromptLen(reqs)
	if mean < 800 || mean > 1400 {
		t.Errorf("ShareGPT mean = %.0f, want ≈ 1085", mean)
	}
}

func TestPrefixGroupsStructure(t *testing.T) {
	g := NewGen(7)
	reqs := g.PrefixGroups(5, 4, 128, 32)
	if len(reqs) != 20 {
		t.Fatalf("got %d requests, want 20", len(reqs))
	}
	byGroup := SplitByGroup(reqs)
	if len(byGroup) != 5 {
		t.Fatalf("SplitByGroup found %d groups, want 5", len(byGroup))
	}
	for grp, rs := range byGroup {
		if len(rs) != 4 {
			t.Fatalf("group %d has %d requests, want 4", grp, len(rs))
		}
		// All requests in a group share the 128-token prefix exactly;
		// suffixes are unique.
		p0 := fullPrompt(&rs[0])
		for i := 1; i < len(rs); i++ {
			pi := fullPrompt(&rs[i])
			for j := 0; j < 128; j++ {
				if pi[j] != p0[j] {
					t.Fatalf("group %d request %d diverges from shared prefix at token %d", grp, i, j)
				}
			}
			if pi[128] == p0[128] {
				t.Fatalf("group %d request %d suffix collides with request 0", grp, i)
			}
		}
	}
	// Generation order interleaves groups round by round.
	for i := 1; i < 5; i++ {
		if reqs[i].Group == reqs[i-1].Group {
			t.Fatalf("requests %d and %d share group %d; expected interleaving", i-1, i, reqs[i].Group)
		}
	}
}

func TestFanOutShape(t *testing.T) {
	reqs := NewGen(9).FanOut(4, 128, 32, 96, 8)
	if len(reqs) != 4 {
		t.Fatalf("roots = %d, want 4", len(reqs))
	}
	seen := map[int64]bool{}
	for i, r := range reqs {
		if len(r.Prompt) != 128 || r.OutputLen != 96 {
			t.Errorf("root %d: prompt %d out %d", i, len(r.Prompt), r.OutputLen)
		}
		if r.Fanout != 8 || r.ForkAfter != 32 {
			t.Errorf("root %d: fanout %d forkAfter %d", i, r.Fanout, r.ForkAfter)
		}
		if r.Group != r.ID {
			t.Errorf("root %d: group %d != id %d", i, r.Group, r.ID)
		}
		if seen[r.ID] {
			t.Errorf("duplicate id %d", r.ID)
		}
		seen[r.ID] = true
	}
	// Distinct roots have distinct prompts.
	if reqs[0].Prompt[0] == reqs[1].Prompt[0] && reqs[0].Prompt[1] == reqs[1].Prompt[1] &&
		reqs[0].Prompt[2] == reqs[1].Prompt[2] {
		t.Error("roots should not share prompt content")
	}
}

func TestNaiveFanOutExpansion(t *testing.T) {
	gen := NewGen(10)
	reqs := gen.FanOut(3, 64, 16, 48, 4)
	gen.PoissonArrivals(reqs, 5)
	plain := gen.ShareGPT(1)
	reqs = append(reqs, plain...)

	out := NaiveFanOut(reqs)
	if want := 3*4 + 1; len(out) != want {
		t.Fatalf("expanded to %d requests, want %d", len(out), want)
	}
	seen := map[int64]bool{}
	for _, r := range out {
		if r.Fanout != 0 || r.ForkAfter != 0 {
			t.Errorf("request %d still carries fan-out fields", r.ID)
		}
		if seen[r.ID] {
			t.Errorf("duplicate id %d", r.ID)
		}
		seen[r.ID] = true
	}
	// Clones mirror their root's prompt, arrival and group.
	root, clone := out[0], out[1]
	if clone.Group != root.Group || clone.Arrival != root.Arrival ||
		clone.OutputLen != root.OutputLen || len(clone.Prompt) != len(root.Prompt) {
		t.Errorf("clone diverges from root: %+v vs %+v", clone, root)
	}
	for i := range root.Prompt {
		if clone.Prompt[i] != root.Prompt[i] {
			t.Fatalf("clone prompt differs at %d", i)
		}
	}
	// The plain request passes through untouched.
	last := out[len(out)-1]
	if last.ID != plain[0].ID || last.Fanout != 0 {
		t.Errorf("plain request not passed through: %+v", last)
	}
}
