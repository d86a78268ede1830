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
	if fr.Tokens < 32 || fr.Fetched == 0 || fr.Failed != 0 {
		t.Fatalf("fetch after transient fault: %+v", fr)
	}
	if fr.Retries != 1 {
		t.Fatalf("Retries = %d, want 1", fr.Retries)
	}
	if fr.Bytes <= fr.Imported {
		t.Fatalf("wasted attempt not charged: wire %d, imported %d", fr.Bytes, fr.Imported)
	}
	for _, hr := range fr.Holders {
		if hr.Attempts != 2 {
			t.Fatalf("holder attempts = %d, want 2", hr.Attempts)
		}
	}
	st := s.Stats()
	if st.MaxAttempts != 2 || st.Retries != 1 || st.Fetched == 0 {
		t.Fatalf("store stats: %+v", st)
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
	if fr.Tokens != 0 || fr.Imported != 0 || fr.Failed == 0 || fr.Fetched != 0 {
		t.Fatalf("failed fetch report: %+v", fr)
	}
	if fr.Bytes == 0 {
		t.Fatal("failed attempts burned no wire time")
	}
	for _, hr := range fr.Holders {
		if hr.Attempts != attempts {
			t.Fatalf("holder used %d attempts, want exactly the bound %d", hr.Attempts, attempts)
		}
		if hr.Outcome != FetchFailed || hr.Reason == "" {
			t.Fatalf("holder report: %+v", hr)
		}
	}
	if st := s.Stats(); st.MaxAttempts > attempts {
		t.Fatalf("retry loop exceeded its bound: %+v", st)
	}
	if p := mgrs[1].Lookup(seqOf(3, 33)); p != 0 {
		t.Fatalf("failed fetch still delivered pages: lookup = %d", p)
	}
	tm1, ok := mgrs[1].(core.TierManager)
	if !ok {
		t.Fatal("manager 1 has no tier capability")
	}
	ts := tm1.TierStats()
	if ts.PeerFails == 0 {
		t.Fatalf("failure not surfaced in tier stats: %+v", ts)
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
	if fr.Tokens != 0 || fr.Bytes != 0 || len(fr.Holders) != 0 {
		t.Fatalf("fetch from crashed holder: %+v", fr)
	}
}

// TestInvalidateHolderDefersUnderPin: a crash invalidation arriving
// while the holder is pinned (export in flight) applies only at the
// final Unpin, after earlier deferred invalidations.
func TestInvalidateHolderDefersUnderPin(t *testing.T) {
	d := NewDirectory()
	d.Register(1, "a", []uint64{1, 2, 3})
	d.Pin(1)
	d.Invalidate(1, "a", []uint64{1})
	if got := d.InvalidateHolder(1); got != 0 {
		t.Fatalf("pinned InvalidateHolder removed %d entries immediately", got)
	}
	if got := d.holderLen(1); got != 3 {
		t.Fatalf("pinned holder lost entries early: %d of 3 left", got)
	}
	if _, ok := d.Lookup("a", 2, -1); !ok {
		t.Fatal("pinned holder vanished from Lookup")
	}
	d.Unpin(1)
	if got := d.holderLen(1); got != 0 {
		t.Fatalf("deferred wipe did not apply at Unpin: %d entries left", got)
	}
	if d.len() != 0 {
		t.Fatalf("directory not empty: %d", d.len())
	}
}
