package core

import (
	"errors"
	"math/rand"
	"testing"

	"jenga/internal/model"
)

// heteroSpec exercises four layer types at once.
func heteroSpec() *model.Spec {
	return &model.Spec{
		Name: "hetero", Params: 1000, WeightBytes: 2, HiddenSize: 8,
		Groups: []model.KVGroup{
			{Name: "self", Kind: model.FullAttention, Layers: 3, BytesPerToken: 64, Scope: model.ScopeText},
			{Name: "win", Kind: model.SlidingWindow, Layers: 2, BytesPerToken: 64, Window: 6, Scope: model.ScopeText},
			{Name: "cross", Kind: model.CrossAttention, Layers: 2, BytesPerToken: 64, Scope: model.ScopeImage},
			{Name: "mamba", Kind: model.Mamba, Layers: 1, StateBytes: 384, CheckpointEvery: 8},
		},
	}
}

// simSeq is the fuzzer's view of one in-flight request.
type simSeq struct {
	seq       *Sequence
	reserved  int
	committed int
}

// TestRandomOpsInvariants drives the manager with random interleaved
// reserve/commit/release/lookup traffic under tight memory and audits
// every counter and invariant after each operation. Failures here mean
// memory-accounting corruption.
func TestRandomOpsInvariants(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 7, 42} {
		for _, cache := range []bool{true, false} {
			t.Run("", func(t *testing.T) {
				runRandomOps(t, seed, cache)
			})
		}
	}
}

func runRandomOps(t *testing.T, seed int64, cache bool) {
	rng := rand.New(rand.NewSource(seed))
	spec := heteroSpec()
	geo, err := spec.Geometry(model.LCMPage, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Tight: 24 large pages forces constant eviction and ErrNoSpace.
	m, err := New(Config{
		Spec: spec, CapacityBytes: int64(geo.LargePageBytes) * 24,
		TokensPerPage: 2, EnablePrefixCache: cache, RequestAware: true,
	})
	if err != nil {
		t.Fatal(err)
	}

	live := map[RequestID]*simSeq{}
	var nextID RequestID = 1
	now := Tick(0)

	newSeq := func() *simSeq {
		n := 4 + rng.Intn(40)
		s := &Sequence{ID: nextID}
		nextID++
		// Shared pools of content so prefix hits actually happen.
		base := int32(rng.Intn(3) * 1000)
		for i := 0; i < n; i++ {
			tok := TextToken(base + int32(i))
			if rng.Intn(5) == 0 {
				tok = ImageToken(base + int32(i))
			}
			s.Tokens = append(s.Tokens, tok)
		}
		return &simSeq{seq: s}
	}

	for op := 0; op < 600; op++ {
		now++
		switch r := rng.Intn(10); {
		case r < 4 || len(live) == 0: // start or extend via reserve
			var ss *simSeq
			if len(live) == 0 || rng.Intn(3) == 0 {
				ss = newSeq()
				live[ss.seq.ID] = ss
			} else {
				ss = pickSeq(rng, live)
			}
			target := ss.reserved + 1 + rng.Intn(8)
			if target > len(ss.seq.Tokens) {
				target = len(ss.seq.Tokens)
			}
			err := m.Reserve(ss.seq, target, now)
			if err != nil && !errors.Is(err, ErrNoSpace) {
				t.Fatalf("reserve: %v", err)
			}
			if err == nil {
				ss.reserved = max(ss.reserved, target)
			} else {
				// Treat as preemption: release everything.
				m.Release(ss.seq, rng.Intn(2) == 0)
				delete(live, ss.seq.ID)
			}
		case r < 7: // commit some reserved tokens
			ss := pickSeq(rng, live)
			if ss.committed < ss.reserved {
				upTo := ss.committed + 1 + rng.Intn(ss.reserved-ss.committed)
				m.Commit(ss.seq, upTo, now)
				ss.committed = upTo
			}
		case r < 8: // lookup (pure)
			ss := newSeq()
			p := m.Lookup(ss.seq)
			if p < 0 || p >= len(ss.seq.Tokens) {
				t.Fatalf("lookup out of range: %d of %d", p, len(ss.seq.Tokens))
			}
		default: // release
			ss := pickSeq(rng, live)
			m.Release(ss.seq, rng.Intn(2) == 0)
			delete(live, ss.seq.ID)
		}
		audit(t, m)
	}
	// Drain.
	for _, ss := range live {
		m.Release(ss.seq, false)
	}
	audit(t, m)
}

func pickSeq(rng *rand.Rand, live map[RequestID]*simSeq) *simSeq {
	ids := make([]RequestID, 0, len(live))
	for id := range live {
		ids = append(ids, id)
	}
	// Deterministic order for reproducibility.
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	return live[ids[rng.Intn(len(ids))]]
}

// TestLookupNeverExceedsCommitted: a prefix hit can only cover tokens
// some request actually committed with identical content.
func TestLookupNeverExceedsCommitted(t *testing.T) {
	m := newMgr(t, heteroSpec(), 1<<22, 2, true)
	a := textSeq(1, 20)
	if err := m.Reserve(a, 20, 1); err != nil {
		t.Fatal(err)
	}
	m.Commit(a, 12, 1) // only 12 of 20 committed
	m.Release(a, true)
	b := textSeq(2, 20)
	if p := m.Lookup(b); p > 12 {
		t.Errorf("lookup = %d exceeds committed 12", p)
	}
	audit(t, m)
}
