package fleet

import (
	"testing"

	"jenga/internal/core"
)

// scriptedFaults fails the first `fails` transfer attempts, then
// succeeds forever.
type scriptedFaults struct{ fails int }

func (f *scriptedFaults) FailTransfer(src, dst int) bool {
	if f.fails > 0 {
		f.fails--
		return true
	}
	return false
}

// storeWithSpill builds a two-replica store where replica 0 holds a
// spilled 33-token prefix the directory knows about.
func storeWithSpill(t *testing.T) (*Store, []core.Manager) {
	t.Helper()
	s := NewStore(2)
	mgrs := []core.Manager{newMgr(t), newMgr(t)}
	for i, m := range mgrs {
		if !s.Attach(i, m) {
			t.Fatalf("Attach(%d) failed", i)
		}
	}
	seq := seqOf(1, 33)
	if err := mgrs[0].Reserve(seq, 33, 1); err != nil {
		t.Fatal(err)
	}
	mgrs[0].Commit(seq, 33, 1)
	mgrs[0].Release(seq, true)
	swapSeq := seqOf(2, 33)
	if err := mgrs[0].Reserve(swapSeq, 33, 2); err != nil {
		t.Fatal(err)
	}
	mgrs[0].Commit(swapSeq, 33, 2)
	tm0, ok := mgrs[0].(core.TierManager)
	if !ok {
		t.Fatal("manager 0 has no tier capability")
	}
	if pages, _ := tm0.SwapOut(swapSeq); pages == 0 {
		t.Fatal("SwapOut spilled nothing")
	}
	if s.dir.len() == 0 {
		t.Fatal("spill did not register in the directory")
	}
	return s, mgrs
}

// TestFetchRetriesWithinBound: a transient transfer fault retries and
// lands within the attempt budget; the timed-out attempt's wire bytes
// are still charged (the pages were in flight when it died).
func TestFetchRetriesWithinBound(t *testing.T) {
	s, mgrs := storeWithSpill(t)
	s.SetFaults(&scriptedFaults{fails: 1}, 3)
	fr := s.Fetch(1, seqOf(3, 33), 3)
	// One batch, fetched on its second attempt.
	if st := s.Stats(); fr.Tokens < 32 || st.Fetched != 1 || st.Retries != 1 || st.Failed != 0 || st.Skipped != 0 {
		t.Fatalf("fetch after transient fault: %+v, store stats %+v", fr, st)
	}
	tm1, ok := mgrs[1].(core.TierManager)
	if !ok {
		t.Fatal("manager 1 has no tier capability")
	}
	if imported := tm1.TierStats().PeerImportBytes; imported == 0 || fr.Bytes != 2*imported {
		t.Fatalf("wasted attempt not charged: wire %d, imported %d", fr.Bytes, imported)
	}
	if p := mgrs[1].Lookup(seqOf(3, 33)); p < 32 {
		t.Fatalf("post-retry lookup = %d, want ≥ 32", p)
	}
}

// TestFetchFailureIsBoundedAndObservable: a persistent fault exhausts
// exactly the attempt budget — never more — reports the holder as
// failed, imports nothing (the caller falls back to local recompute),
// and surfaces the failure in the destination tier's stats.
func TestFetchFailureIsBoundedAndObservable(t *testing.T) {
	s, mgrs := storeWithSpill(t)
	const attempts = 3
	s.SetFaults(&scriptedFaults{fails: 1 << 30}, attempts)
	fr := s.Fetch(1, seqOf(3, 33), 3)
	st := s.Stats()
	if fr.Tokens != 0 || st.Failed == 0 || st.Fetched != 0 {
		t.Fatalf("failed fetch: %+v, store stats %+v", fr, st)
	}
	if fr.Bytes == 0 {
		t.Fatal("failed attempts burned no wire time")
	}
	if st.Retries != st.Failed*(attempts-1) {
		t.Fatalf("%d failed batches retried %d times, want exactly the bound's %d each", st.Failed, st.Retries, attempts-1)
	}
	if p := mgrs[1].Lookup(seqOf(3, 33)); p != 0 {
		t.Fatalf("failed fetch still delivered pages: lookup = %d", p)
	}
	tm1, ok := mgrs[1].(core.TierManager)
	if !ok {
		t.Fatal("manager 1 has no tier capability")
	}
	ts := tm1.TierStats()
	if ts.PeerFails == 0 || ts.PeerImportBytes != 0 {
		t.Fatalf("failure not surfaced in tier stats, or pages imported: %+v", ts)
	}
	// The fault clears; the same fetch then succeeds.
	s.SetFaults(nil, 1)
	if fr := s.Fetch(1, seqOf(3, 33), 4); fr.Tokens < 32 {
		t.Fatalf("post-fault fetch: %+v", fr)
	}
}

// TestStoreCrashInvalidatesHolder: crashing a holder drops every
// directory entry naming it, so later fetches skip it entirely.
func TestStoreCrashInvalidatesHolder(t *testing.T) {
	s, _ := storeWithSpill(t)
	before := s.dir.holderLen(0)
	if before == 0 {
		t.Fatal("setup: holder 0 has no entries")
	}
	if got := s.Crash(0); got != before {
		t.Fatalf("Crash dropped %d entries, want %d", got, before)
	}
	if got := s.dir.holderLen(0); got != 0 {
		t.Fatalf("dangling entries after crash: %d", got)
	}
	fr := s.Fetch(1, seqOf(3, 33), 3)
	if st := s.Stats(); fr.Tokens != 0 || fr.Bytes != 0 || st != (StoreStats{}) {
		t.Fatalf("fetch from crashed holder: %+v, store stats %+v", fr, st)
	}
}
