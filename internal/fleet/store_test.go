package fleet

import (
	"testing"

	"jenga/internal/core"
	"jenga/internal/model"
)

func storeSpec() *model.Spec {
	return &model.Spec{
		Name: "flat", Params: 1_000_000, WeightBytes: 2, HiddenSize: 64,
		Groups: []model.KVGroup{
			{Name: "kv", Kind: model.FullAttention, Layers: 1, BytesPerToken: 128},
		},
	}
}

func newMgr(t *testing.T) core.Manager {
	t.Helper()
	m, err := core.New(core.Config{
		Spec: storeSpec(), CapacityBytes: 1 << 16, TokensPerPage: 4,
		EnablePrefixCache: true, RequestAware: true, Backed: true,
		HostTierBytes: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// seqOf builds a sequence with deterministic token content.
func seqOf(id int64, n int) *core.Sequence {
	toks := make([]core.Token, n)
	for i := range toks {
		toks[i] = core.Token{ID: int32(i%97 + 1)}
	}
	return &core.Sequence{ID: core.RequestID(id), PromptLen: n, Tokens: toks}
}

// TestStoreFetchMovesPrefix: replica 0 computes and spills a prefix;
// a Fetch for replica 1 finds it through the directory, moves the
// pages, and replica 1's local lookup serves the prefix afterwards.
func TestStoreFetchMovesPrefix(t *testing.T) {
	s := NewStore(2)
	mgrs := []core.Manager{newMgr(t), newMgr(t)}
	for i, m := range mgrs {
		if !s.Attach(i, m) {
			t.Fatalf("Attach(%d) failed", i)
		}
	}

	// Replica 0 serves the prefix, then spills it under pressure.
	seq := seqOf(1, 33)
	if err := mgrs[0].Reserve(seq, 33, 1); err != nil {
		t.Fatal(err)
	}
	mgrs[0].Commit(seq, 33, 1)
	mgrs[0].Release(seq, true)
	tm, ok := mgrs[0].(core.TierManager)
	if !ok {
		t.Fatal("manager 0 has no tier capability")
	}
	swapSeq := seqOf(2, 33)
	if err := mgrs[0].Reserve(swapSeq, 33, 2); err != nil {
		t.Fatal(err)
	}
	mgrs[0].Commit(swapSeq, 33, 2)
	if pages, _ := tm.SwapOut(swapSeq); pages == 0 {
		t.Fatal("SwapOut spilled nothing")
	}
	if s.dir.len() == 0 {
		t.Fatal("spill did not register in the directory")
	}

	// Replica 1 misses locally; the fleet store fills its tier.
	probe := seqOf(3, 33)
	if p := mgrs[1].Lookup(probe); p != 0 {
		t.Fatalf("replica 1 local lookup = %d, want 0", p)
	}
	fr := s.Fetch(1, probe, 3)
	if fr.Tokens < 32 || fr.Bytes == 0 {
		t.Fatalf("Fetch = %d tokens/%d bytes, want ≥ 32 tokens and > 0 bytes", fr.Tokens, fr.Bytes)
	}
	if st := s.Stats(); st.Fetched == 0 || st.Skipped != 0 || st.Failed != 0 || st.Retries != 0 {
		t.Fatalf("fault-free fetch: store stats %+v, want every batch fetched on its first attempt", st)
	}
	if ts := tm.TierStats(); ts.PeerExports == 0 {
		t.Fatalf("holder 0 exported nothing: %+v", ts)
	}
	if p := mgrs[1].Lookup(probe); p < 32 {
		t.Fatalf("post-fetch local lookup = %d, want ≥ 32", p)
	}
	tm1, ok := mgrs[1].(core.TierManager)
	if !ok {
		t.Fatal("manager 1 has no tier capability")
	}
	if ts := tm1.TierStats(); ts.PeerImports == 0 || ts.PeerImportBytes != fr.Bytes {
		t.Fatalf("fault-free fetch: replica 1 imported %d bytes, wire %d: %+v", ts.PeerImportBytes, fr.Bytes, ts)
	}

	// A second fetch for the same prefix is a no-op: it is local now.
	if fr := s.Fetch(1, probe, 4); fr.Tokens != 0 || fr.Bytes != 0 {
		t.Fatalf("repeat Fetch = %d/%d, want 0/0", fr.Tokens, fr.Bytes)
	}
	// Unattached or out-of-range destinations are safe no-ops.
	if fr := s.Fetch(7, probe, 5); fr.Tokens != 0 || fr.Bytes != 0 {
		t.Fatalf("out-of-range Fetch = %d/%d, want 0/0", fr.Tokens, fr.Bytes)
	}
}
