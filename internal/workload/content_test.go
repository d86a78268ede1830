package workload

import (
	"slices"
	"testing"

	"jenga/internal/core"
)

// FuzzContentFill: a recipe filled in part reads as the same cut of the
// whole fill — any prefix of the own part, cut anywhere, inside an
// image or the text after the images — and a request cut by Truncate
// fills, counts its images and reports its length as the same cut of
// the whole prompt, Shared head included.
func FuzzContentFill(f *testing.F) {
	f.Add(int64(7), uint8(0), uint16(576), uint32(100), uint32(5000))
	f.Add(int64(42), uint8(0), uint16(1601), uint32(1601), uint32(1))
	f.Add(int64(3), uint8(1), uint16(0), uint32(0), uint32(2049))
	f.Add(int64(9), uint8(2), uint16(0), uint32(64), uint32(2100))
	f.Add(int64(5), uint8(3), uint16(0), uint32(20), uint32(70))
	f.Fuzz(func(t *testing.T, seed int64, kind uint8, perImage uint16, k, cut uint32) {
		g := NewGen(seed)
		var r Request
		switch kind % 4 {
		case 0:
			r = g.mmmuProOne(int(perImage%2048) + 1)
		case 1:
			r = g.shareGPTOne()
		case 2:
			r = g.arxivQAOne(g.Articles(2, 256), 64)
		default:
			r = g.prefixGroupsOne(3, int(seed&1), 48, 24)
		}
		whole := own(&r)
		if len(whole) != r.OwnLen() || r.Prompt != nil {
			t.Fatalf("the fill has %d tokens, the recipe %d (Prompt %d)", len(whole), r.OwnLen(), len(r.Prompt))
		}
		n := int(k) % (len(whole) + 1)
		part := make([]core.Token, n)
		r.Own.Fill(part)
		if !slices.Equal(part, whole[:n]) {
			t.Fatalf("a %d-token prefix fill differs from the whole fill's first %d tokens", n, n)
		}
		if got, _ := r.OwnTokens(n, nil); !slices.Equal(got, whole[:n]) {
			t.Fatalf("OwnTokens(%d) differs from the whole fill's first %d tokens", n, n)
		}
		full := fullPrompt(&r)
		c := r
		c.Truncate(int(cut) % (len(full) + 2))
		want := full[:min(int(cut)%(len(full)+2), len(full))]
		if got := fullPrompt(&c); !slices.Equal(got, want) || c.PromptLen() != len(want) {
			t.Fatalf("Truncate(%d) fills %d tokens (PromptLen %d), want the whole prompt's first %d", int(cut)%(len(full)+2), len(got), c.PromptLen(), len(want))
		}
		if got, want := c.PromptImages(), core.CountImages(want); got != want {
			t.Fatalf("a cut recipe counts %d image tokens, its fill holds %d", got, want)
		}
	})
}
