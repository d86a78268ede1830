package core

import (
	"testing"
	"testing/quick"
)

// mkView builds a GroupSeqView with the given per-block presence over a
// text-only sequence of n tokens.
func mkView(n, blockTokens int, present []bool) *GroupSeqView {
	v := &GroupSeqView{BlockTokens: blockTokens, Present: present}
	v.ProjCount = make([]int, n+1)
	for i := 0; i <= n; i++ {
		v.ProjCount[i] = i
	}
	v.buildRuns()
	return v
}

func TestFullPolicyValidPrefix(t *testing.T) {
	// Blocks: [ok, ok, miss, ok] of 2 tokens each over 8 tokens.
	v := mkView(8, 2, []bool{true, true, false, true})
	pol := FullPolicy{}
	for p := 0; p <= 4; p++ {
		if !pol.ValidPrefix(v, p) {
			t.Errorf("prefix %d should be valid", p)
		}
	}
	for p := 5; p <= 8; p++ {
		if pol.ValidPrefix(v, p) {
			t.Errorf("prefix %d should be invalid (block 2 missing)", p)
		}
	}
}

// TestWindowPolicyPaperExample checks Fig. 11: request ABCDEFGHIJ with
// blocks of one token, E missing... here we use the §5.2 shape: window 2,
// token1 evicted, [token1 token2 token3] still a valid hit.
func TestWindowPolicyPaperExample(t *testing.T) {
	v := mkView(4, 1, []bool{false, true, true, true})
	pol := WindowPolicy{Window: 2}
	if !pol.ValidPrefix(v, 3) {
		t.Error("[t1̶ t2 t3] should hit with window 2 (§5.2)")
	}
	if (FullPolicy{}).ValidPrefix(v, 3) {
		t.Error("full attention must reject the same prefix")
	}
	if pol.ValidPrefix(v, 1) {
		t.Error("prefix 1 needs token 0 which is evicted")
	}
}

func TestWindowPolicyAccessedAndFree(t *testing.T) {
	pol := WindowPolicy{Window: 4}
	if pol.AccessedFrom(10) != 6 || pol.FreeBelow(10) != 6 {
		t.Errorf("window accounting wrong: %d %d", pol.AccessedFrom(10), pol.FreeBelow(10))
	}
	if pol.AccessedFrom(3) != 0 || pol.FreeBelow(3) != 0 {
		t.Error("short sequences have nothing outside the window")
	}
	full := FullPolicy{}
	if full.AccessedFrom(10) != 0 || full.FreeBelow(10) != 0 {
		t.Error("full attention accesses everything, frees nothing")
	}
}

func TestMambaPolicyValidPrefix(t *testing.T) {
	present := map[int]bool{8: true}
	v := &GroupSeqView{BlockTokens: 1, CheckpointAt: func(p int) bool { return present[p] }}
	v.ProjCount = make([]int, 21)
	for i := range v.ProjCount {
		v.ProjCount[i] = i
	}
	v.buildRuns()
	pol := MambaPolicy{Every: 8}
	if !pol.ValidPrefix(v, 0) {
		t.Error("empty prefix always valid")
	}
	if !pol.ValidPrefix(v, 8) {
		t.Error("checkpointed multiple should be valid")
	}
	for _, p := range []int{4, 7, 9, 16, 20} {
		if pol.ValidPrefix(v, p) {
			t.Errorf("prefix %d should be invalid", p)
		}
	}
	if (MambaPolicy{Every: 0}).ValidPrefix(v, 8) {
		t.Error("zero interval should never hit")
	}
	if pol.AccessedFrom(10) != 9 {
		t.Error("mamba accesses only the last state")
	}
}

func TestImageAtomicPriorityStable(t *testing.T) {
	pol := ImageAtomicPolicy{}
	a := pol.BlockPriority(0, 12345)
	b := pol.BlockPriority(7, 12345)
	if a != b {
		t.Error("blocks of the same image run must share a priority")
	}
	c := pol.BlockPriority(0, 54321)
	if a == c {
		t.Error("different runs should get different priorities")
	}
	if a < 0 {
		t.Error("priority must be non-negative")
	}
}

func TestVisionPolicyNeverGates(t *testing.T) {
	v := mkView(8, 2, []bool{false, false, false, false})
	if !(VisionEmbedPolicy{}).ValidPrefix(v, 8) {
		t.Error("vision embedding cache must never gate KV hits")
	}
}

func TestRangeCachedProperties(t *testing.T) {
	// RangeCached(lo,hi) ⟺ every block overlapping [lo,hi) is present.
	prop := func(bits uint8, lo8, hi8 uint8) bool {
		present := make([]bool, 8)
		for i := range present {
			present[i] = bits&(1<<i) != 0
		}
		n := 16
		v := mkView(n, 2, present)
		lo, hi := int(lo8)%n, int(hi8)%(n+1)
		if lo > hi {
			lo, hi = hi, lo
		}
		want := true
		for i := lo; i < hi; i++ {
			if i/2 >= len(present) || !present[i/2] {
				want = false
				break
			}
		}
		return v.RangeCached(lo, hi) == want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// blockHashes hashes every complete block from the start of the chain.
func blockHashes(tokens []Token, blockTokens int) []uint64 {
	return extendBlockHashes(nil, tokens, blockTokens)
}

func TestBlockHashChaining(t *testing.T) {
	a := []Token{{ID: 1}, {ID: 2}, {ID: 3}, {ID: 4}}
	b := []Token{{ID: 1}, {ID: 2}, {ID: 3}, {ID: 5}}
	ha := blockHashes(a, 2)
	hb := blockHashes(b, 2)
	if ha[0] != hb[0] {
		t.Error("identical first blocks must hash equal")
	}
	if ha[1] == hb[1] {
		t.Error("different second blocks must hash differently")
	}
	// Image flag participates in identity.
	c := []Token{ImageToken(1), {ID: 2}}
	if blockHashes(c, 2)[0] == blockHashes(a[:2], 2)[0] {
		t.Error("image flag must change the hash")
	}
	// Chaining: same content, different parent → different hash.
	d := []Token{{ID: 9}, {ID: 9}, {ID: 3}, {ID: 4}}
	hd := blockHashes(d, 2)
	if hd[1] == ha[1] {
		t.Error("same block content under different prefix must differ")
	}
	if prefixHash(a, 4) != ha[1] {
		t.Error("prefixHash at block boundary must equal the chained block hash")
	}
}

func TestProjectHelpers(t *testing.T) {
	toks := []Token{{ID: 1}, ImageToken(2), {ID: 3}, ImageToken(4)}
	proj := projectInto(nil, toks, true, false)
	if len(proj) != 2 || proj[0] != ImageToken(2) || proj[1] != ImageToken(4) {
		t.Errorf("image projection wrong: %v", proj)
	}
	proj = projectInto(proj[:0], toks, true, true)
	if len(proj) != 4 || proj[2].ID != 3 {
		t.Errorf("identity projection wrong: %v", proj)
	}
	if blockHashes(toks, 0) != nil {
		t.Error("non-positive block size returns nil")
	}
}
