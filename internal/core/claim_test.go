package core

import (
	"runtime"
	"testing"

	"jenga/internal/model"
)

// textOnlySpec is flatSpec with a text-scoped group: a hash class that
// skips tokens, so its record keeps run keys (classHashes.runs).
func textOnlySpec() *model.Spec {
	return &model.Spec{
		Name: "textonly", Params: 1_000_000, WeightBytes: 2, HiddenSize: 64,
		Groups: []model.KVGroup{
			{Name: "kv", Kind: model.FullAttention, Layers: 1, BytesPerToken: 128, Scope: model.ScopeText},
		},
	}
}

// TestLookupKeyDiesWithRequest: a request's block hashes are only good
// while it lives. The engine recycles token buffers and IDs may be
// reused, so a second request can match a released one on ID, array,
// length, first and last token while its content differs in between;
// Lookup must hash it afresh instead of reporting the first request's
// cached prefix.
func TestLookupKeyDiesWithRequest(t *testing.T) {
	const n, tpp = 64, 4
	m := newMgr(t, flatSpec(), 1<<20, tpp, true)
	buf := make([]Token, n)
	fill := func(salt int32) {
		for i := range buf {
			buf[i] = Token{ID: salt + int32(i)}
		}
		buf[0], buf[n-1] = Token{ID: 1}, Token{ID: 2}
	}
	fill(1000)
	a := &Sequence{ID: 7, Tokens: buf}
	if got := m.Lookup(a); got != 0 {
		t.Fatalf("cold cache hit %d tokens", got)
	}
	commitSeq(t, m, a, 1)

	// Same ID, same array, same first and boundary tokens: only the
	// middle is new, and with it every block hash.
	fill(5000)
	b := &Sequence{ID: 7, Tokens: buf}
	if got := m.Lookup(b); got != 0 {
		t.Fatalf("lookup reported the released request's prefix: %d tokens", got)
	}
	if err := m.Reserve(b, n, 2); err != nil {
		t.Fatal(err)
	}
	if got := m.CachedPrefix(b); got != 0 {
		t.Fatalf("claim attached %d tokens of another request's content", got)
	}
	m.Release(b, false)

	// A lookup-only request (never reserved) drops its state, hashes
	// included, all the same, and CrashReset forgets the ones it had.
	m.Lookup(b)
	if r, ok := m.reqs[b.ID]; !ok || len(m.reqs) != 1 || r.h.n != n {
		t.Fatalf("lookup left %d request states", len(m.reqs))
	}
	m.Release(b, false)
	if len(m.reqs) != 0 {
		t.Fatal("a looked-up request's hashes outlived its Release")
	}
	m.Lookup(b)
	if err := m.CrashReset(); err != nil {
		t.Fatal(err)
	}
	if len(m.reqs) != 0 {
		t.Fatal("a looked-up request's hashes outlived CrashReset")
	}
	audit(t, m)
}

// allocsAndBytes is testing.AllocsPerRun that also reports bytes. The
// counters are process-wide, so a stray runtime allocation inside the
// window (about one window in twenty saw 64 B of one) reads as f's; the
// smallest of three windows is f's own cost.
func allocsAndBytes(runs int, f func()) (objs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f() // warm up
	for trial := 0; trial < 3; trial++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		b := float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
		if trial == 0 || b < bytes {
			objs, bytes = float64(after.Mallocs-before.Mallocs)/float64(runs), b
		}
	}
	return objs, bytes
}

// TestClaimAllocatesNothingPerToken: on a warm manager, claiming a
// cached prefix allocates nothing, whatever the prefix length — no
// projected copy of the prefix, no index slice, and the request's own
// state (reqState, its per-group slice, the page table the claim sizes
// by the prefix) comes back from the free list its predecessor's
// Release put it on.
func TestClaimAllocatesNothingPerToken(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation accounting is not meaningful under -short/-race runs")
	}
	const tpp = 16
	for _, spec := range []*model.Spec{flatSpec(), textOnlySpec()} {
		measure := func(n int) (objs, bytes float64) {
			m := newMgr(t, spec, 64<<20, tpp, true)
			commitSeq(t, m, textSeq(1, n+1), 1)
			seq := textSeq(2, n+1)
			return allocsAndBytes(64, func() {
				if err := m.Reserve(seq, n, 2); err != nil {
					t.Fatal(err)
				}
				if m.CachedPrefix(seq) != n {
					t.Fatalf("claimed %d of %d cached tokens", m.CachedPrefix(seq), n)
				}
				m.Release(seq, true)
			})
		}
		objs1k, bytes1k := measure(1 << 10)
		objs8k, bytes8k := measure(8 << 10)
		if objs1k != 0 || objs8k != 0 || bytes1k != 0 || bytes8k != 0 {
			t.Errorf("%s: claim allocates %.1f objects / %.0f B at 1k tokens, %.1f / %.0f B at 8k; want none",
				spec.Name, objs1k, bytes1k, objs8k, bytes8k)
		}
	}
}
