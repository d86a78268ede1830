package core

import (
	"reflect"
	"testing"
)

// TestCrashResetColdRestart: CrashReset wipes the GPU heap, the
// prefix cache and the host tier — the manager restarts cold, its tier
// emptied in its own tables to exactly a new tier's state — while
// preserving pointer identity and the installed tier observer, so a
// restarted replica's new spills keep feeding the fleet directory
// through the same wiring.
func TestCrashResetColdRestart(t *testing.T) {
	m := newTieredMgr(t, flatSpec(), 1<<16, 1<<20, 4)
	obs := newRecObs()
	m.SetTierObserver(obs)
	spillAll(t, m)
	if st := m.TierStats(); st.HostUsed == 0 {
		t.Fatalf("setup: nothing spilled to the tier: %+v", st)
	}
	if len(obs.stored) == 0 {
		t.Fatal("setup: observer saw no stores")
	}

	tier := m.host
	if err := m.CrashReset(); err != nil {
		t.Fatal(err)
	}
	// The restart empties the dead process's tier in place: the same
	// tables, holding exactly what a new manager's tier holds.
	fresh := newTieredMgr(t, flatSpec(), 1<<16, 1<<20, 4).host
	fresh.obs = obs
	if m.host != tier || !reflect.DeepEqual(*m.host, *fresh) {
		t.Fatalf("the restarted tier is not the old one emptied to a new one's state (same tier %v)", m.host == tier)
	}
	st := m.TierStats()
	if st.HostUsed != 0 || st.SwapOuts != 0 || st.SpilledBytes != 0 {
		t.Fatalf("tier not cold after crash: %+v", st)
	}
	probe := textSeq(9, 33)
	probe.PromptLen = 33
	if p := m.Lookup(probe); p != 0 {
		t.Fatalf("prefix cache survived the crash: Lookup = %d", p)
	}

	// The observer wiring survives the reset: new spills register.
	obs.stored = make(map[uint64]bool)
	spillAll(t, m)
	if len(obs.stored) == 0 {
		t.Fatal("observer lost across CrashReset")
	}
}

// TestNotePeerFetch: skip/fail counts accumulate into the tier stats
// and vanish without a tier.
func TestNotePeerFetch(t *testing.T) {
	m := newTieredMgr(t, flatSpec(), 1<<16, 1<<20, 4)
	m.NotePeerFetch(2, 1)
	m.NotePeerFetch(1, 0)
	if st := m.TierStats(); st.PeerSkips != 3 || st.PeerFails != 1 {
		t.Fatalf("peer fetch notes: skips %d fails %d", st.PeerSkips, st.PeerFails)
	}
	tierless, err := New(Config{Spec: flatSpec(), CapacityBytes: 1 << 16, TokensPerPage: 4,
		EnablePrefixCache: true})
	if err != nil {
		t.Fatal(err)
	}
	tierless.NotePeerFetch(1, 1) // must not panic; nowhere to record
	if st := tierless.TierStats(); st.PeerSkips != 0 || st.PeerFails != 0 {
		t.Fatalf("tierless manager recorded peer notes: %+v", st)
	}
}
