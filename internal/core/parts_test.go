package core

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"jenga/internal/model"
)

// partsSpec has every kind of group a sequence's tokens reach: full
// attention over all tokens, a sliding window over all tokens, and a
// vision-embedding cache over image tokens.
func partsSpec() *model.Spec {
	return &model.Spec{
		Name: "parts", Params: 1000, WeightBytes: 2, HiddenSize: 8,
		Groups: []model.KVGroup{
			{Name: "full", Kind: model.FullAttention, Layers: 2, BytesPerToken: 64},
			{Name: "window", Kind: model.SlidingWindow, Layers: 2, BytesPerToken: 64, Window: 8},
			{Name: "vision", Kind: model.VisionEmbedding, Layers: 1, BytesPerToken: 128, Scope: model.ScopeImage},
		},
		Vision: &model.VisionSpec{Params: 100, TokensPerImage: 6},
	}
}

// partsTrace drives a fresh manager through one request's life with its
// tokens laid out by layout, and records every answer the manager
// gives: chunked prefill (EncodeImages, Reserve, Commit, DropImages)
// with the request's block hashes, Footprint, CachedPrefix and
// UsageTotals after each chunk; a cache-preserving Release; and a
// second request with the same content and layout, whose Lookup,
// admission probe and claim read the first one's blocks.
func partsTrace(t *testing.T, layout func(id RequestID) *Sequence) []string {
	t.Helper()
	m, err := New(Config{Spec: partsSpec(), CapacityBytes: 1 << 20, TokensPerPage: 4, EnablePrefixCache: true, RequestAware: true})
	if err != nil {
		t.Fatal(err)
	}
	var trace []string
	note := func(format string, args ...any) { trace = append(trace, fmt.Sprintf(format, args...)) }
	serve := func(seq *Sequence, now Tick) {
		note("lookup %d footprint %d cached %d", m.Lookup(seq), m.Footprint(seq), m.CachedPrefix(seq))
		note("encode %v", m.EncodeImages(seq, seq.Len(), now))
		for at := 0; at < seq.Len(); {
			at = min(at+5, seq.Len())
			note("reserve %d: %v", at, m.Reserve(seq, at, now))
			m.Commit(seq, at, now)
			m.DropImages(seq, at)
			note("hashes %v", m.reqs[seq.ID].h.c)
			note("footprint %d cached %d usage %+v", m.Footprint(seq), m.CachedPrefix(seq), m.UsageTotals())
		}
	}
	a := layout(1)
	serve(a, 1)
	m.Release(a, true)
	note("released: usage %+v", m.UsageTotals())
	b := layout(2)
	serve(b, 2)
	m.Release(b, false)
	note("done: usage %+v invariants %v", m.UsageTotals(), m.CheckInvariants())
	return trace
}

// TestSequencePartsAreInvisible: the manager reads a sequence only
// through Len, Span and at, so where Shared ends and Tokens begins, and
// where Tokens ends and Out begins, makes no difference to it. One
// token list — text, two images, text — is laid out at every pair of
// boundaries, and each layout gets exactly the answers the list held
// whole in Tokens gets: Lookup, Footprint, Reserve and Commit outcomes,
// block hashes, CachedPrefix and UsageTotals.
func TestSequencePartsAreInvisible(t *testing.T) {
	var toks []Token
	for i, run := range []struct{ n, img int }{{5, 0}, {6, 1}, {7, 0}, {6, 1}, {9, 0}} {
		for j := 0; j < run.n; j++ {
			c := int32(100*i + j + 1)
			if run.img == 1 {
				toks = append(toks, ImageToken(c))
			} else {
				toks = append(toks, TextToken(c))
			}
		}
	}
	n := len(toks)
	want := partsTrace(t, func(id RequestID) *Sequence {
		return &Sequence{ID: id, Tokens: slices.Clone(toks), PromptLen: n}
	})
	for i := 0; i <= n; i++ {
		for j := i; j <= n; j++ {
			got := partsTrace(t, func(id RequestID) *Sequence {
				// Each part its own array, cap-clamped, as the engine
				// lends them.
				c := slices.Clone(toks)
				return &Sequence{ID: id, Shared: c[:i:i], Tokens: c[i:j:j], Out: c[j:n:n], PromptLen: n}
			})
			if !reflect.DeepEqual(got, want) {
				for k := range min(len(got), len(want)) {
					if got[k] != want[k] {
						t.Fatalf("Shared [0,%d) Tokens [%d,%d) Out [%d,%d): answer %d differs\n  parts %s\n  whole %s", i, i, j, j, n, k, got[k], want[k])
					}
				}
				t.Fatalf("Shared [0,%d) Tokens [%d,%d) Out [%d,%d): %d answers, whole %d", i, i, j, j, n, len(got), len(want))
			}
		}
	}
}
