package core

import (
	"math/rand"
	"testing"

	"jenga/internal/model"
)

// TestLongestValidMatchesLinearScan checks longestValid, which skips the
// candidates a rejection rules out, against longestValidLinear, which
// asks every one, over random presence patterns: tokens per page 1, 2
// and 16, each built-in token policy and the attention-sink policy
// alone and all five together, on a text-only sequence (every view's
// ProjCount the identity) and on one with image runs interleaved (each
// view counting its own scope's tokens).
func TestLongestValidMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	type viewSpec struct {
		kind  model.Kind
		scope model.TokenScope
		pol   func(tpp int) Policy
	}
	window := func(tpp int) int { return 1 + rng.Intn(6*tpp) }
	specs := map[string]viewSpec{
		"full":   {model.FullAttention, model.ScopeText, func(int) Policy { return FullPolicy{} }},
		"window": {model.SlidingWindow, model.ScopeText, func(tpp int) Policy { return WindowPolicy{Window: window(tpp)} }},
		"image":  {model.CrossAttention, model.ScopeImage, func(int) Policy { return ImageAtomicPolicy{} }},
		"mamba":  {model.Mamba, model.ScopeAll, func(tpp int) Policy { return MambaPolicy{Every: 1 + rng.Intn(2*tpp)} }},
		"sink": {model.SlidingWindow, model.ScopeText, func(tpp int) Policy {
			return sinkTestPolicy{sink: rng.Intn(3 * tpp), window: window(tpp)}
		}},
	}
	sets := [][]string{{"full"}, {"window"}, {"image"}, {"mamba"}, {"sink"}, {"full", "window", "image", "mamba", "sink"}}

	// view builds one group's view of a sequence whose image mask is
	// images, each complete block (or Mamba checkpoint: a Mamba view's
	// entries are its policy's interval apart) present with probability
	// density.
	view := func(s viewSpec, tpp int, images []bool, density float64) lookupView {
		pol, stride := s.pol(tpp), tpp
		if mp, ok := pol.(MambaPolicy); ok {
			tpp, stride = 1, mp.Every
		}
		g := &group{spec: model.KVGroup{Kind: s.kind, Scope: s.scope}, pol: pol, tpp: tpp, stride: stride}
		v := &GroupSeqView{BlockTokens: stride, ProjCount: make([]int, len(images)+1)}
		for i, img := range images {
			v.ProjCount[i+1] = v.ProjCount[i]
			if s.scope == model.ScopeAll || (s.scope == model.ScopeImage) == img {
				v.ProjCount[i+1]++
			}
		}
		v.Present = make([]bool, v.ProjCount[len(images)]/stride)
		for k := range v.Present {
			v.Present[k] = rng.Float64() < density
		}
		v.buildRuns()
		return lookupView{g, v}
	}

	for _, tpp := range []int{1, 2, 16} {
		for _, mixed := range []bool{false, true} {
			for _, set := range sets {
				for trial := 0; trial < 300; trial++ {
					n := 1 + rng.Intn(24*tpp)
					images := make([]bool, n)
					if mixed {
						// Runs of one kind, a few blocks long at most.
						img := rng.Intn(2) == 0
						for i := range images {
							if rng.Intn(2*tpp+2) == 0 {
								img = !img
							}
							images[i] = img
						}
					}
					density := []float64{0.3, 0.8, 0.95, 1}[rng.Intn(4)]
					var views []lookupView
					for _, name := range set {
						s := specs[name]
						if !mixed {
							s.scope = model.ScopeAll // the identity projection
						}
						views = append(views, view(s, tpp, images, density))
					}
					got, want := longestValid(views, n-1), longestValidLinear(views, n-1)
					if got != want {
						t.Fatalf("tpp %d, images %v, views %v, trial %d (n %d): longestValid = %d, the linear scan %d",
							tpp, mixed, set, trial, n, got, want)
					}
				}
			}
		}
	}
}
