package core

import (
	"math/bits"
	"slices"
	"testing"
)

// TestWindowTableBounded: a window group's page table holds its window,
// not the sequence. On a spec with a full and a window group, through a
// chunked prefill, a claim at a shared-prefix boundary, a decode past
// many windows, a fork child and a restore from the host tier, with the
// invariants checked after every call (their reference count reads the
// tables alone, so a page still held below a table's base fails it):
// every window table's array stays within the next power of two of the
// window's blocks plus two, it starts no higher than the window's first
// block, and the blocks the window still reads are held. A full table
// starts at entry 0. A policy with an always-live head (attention sinks)
// keeps its table at entry 0.
func TestWindowTableBounded(t *testing.T) {
	m := newTieredMgr(t, miniWinSpec(), 1<<20, 1<<20, 4)
	full, win := m.groups[m.groupIndex("full")], m.groups[m.groupIndex("window")]
	window := win.spec.Window
	limit := 1 << bits.Len(uint(window/win.tpp+2-1))
	var live []*Sequence
	verify := func(label string) {
		t.Helper()
		audit(t, m)
		for _, s := range live {
			id := s.ID
			fg, wg := &m.reqs[id].g[full.idx], &m.reqs[id].g[win.idx]
			if fg.base != 0 {
				t.Fatalf("%s: request %d's full table starts at entry %d", label, id, fg.base)
			}
			if cap(wg.table) > limit {
				t.Fatalf("%s: request %d's window table carved %d entries, over %d", label, id, cap(wg.table), limit)
			}
			pos := wg.projCommitted
			if lo := win.pol.FreeBelow(pos) / win.tpp; wg.base > lo {
				t.Fatalf("%s: request %d's window table starts at entry %d, above the window's first block %d", label, id, wg.base, lo)
			}
			for k := win.pol.FreeBelow(pos) / win.tpp; k*win.tpp < pos; k++ {
				if !wg.at(k).held() {
					t.Fatalf("%s: request %d's window block %d (of [%d, %d)) reads unheld", label, id, k, win.pol.FreeBelow(pos), pos)
				}
			}
		}
	}
	serve := func(s *Sequence, upTo int, now Tick) {
		t.Helper()
		if !slices.Contains(live, s) {
			live = append(live, s)
		}
		if err := m.Reserve(s, upTo, now); err != nil {
			t.Fatal(err)
		}
		verify("reserve")
		m.Commit(s, upTo, now)
		verify("commit")
	}

	// A chunked prefill: the window moves up the prompt chunk by chunk.
	a := textSeq(1, 300)
	a.PromptLen = 300
	for upTo := 12; ; upTo = min(upTo+12, 300) {
		serve(a, upTo, 1)
		if upTo == 300 {
			break
		}
	}
	// A claim at a shared-prefix boundary: b reads a's first 200 tokens,
	// and its window table starts at the first block the claim reads.
	b := textSeq(2, 240)
	for i := 200; i < len(b.Tokens); i++ {
		b.Tokens[i].ID += 5000
	}
	b.PromptLen = 240
	if p := m.Lookup(b); p != 200 {
		t.Fatalf("b's lookup hits %d tokens, want 200", p)
	}
	serve(b, 240, 2)
	if wg := &m.reqs[b.ID].g[win.idx]; wg.base != (200-window)/win.tpp {
		t.Fatalf("the claim started b's window table at entry %d, want %d", wg.base, (200-window)/win.tpp)
	}
	// A decode past many windows.
	for i := range 8 * window {
		extend(t, m, a, Tick(3+i))
		verify("decode")
	}
	if wg := &m.reqs[a.ID].g[win.idx]; wg.base <= 300/win.tpp {
		t.Fatalf("after %d decoded tokens a's window table still starts at entry %d", 8*window, wg.base)
	}
	// A fork child copies only the parent's span.
	c := forkChild(t, m, a, 3)
	live = append(live, c)
	verify("fork")
	if pg, cg := &m.reqs[a.ID].g[win.idx], &m.reqs[c.ID].g[win.idx]; cg.base != pg.base || cg.end() != pg.end() {
		t.Fatalf("the child's window table covers [%d, %d), the parent's [%d, %d)", cg.base, cg.end(), pg.base, pg.end())
	}
	for i := range 2 * window {
		extend(t, m, c, Tick(1000+i))
		verify("child decode")
	}
	// A restore from the host tier: everything is released, spilled and
	// evicted, and d's claim brings a's prompt back from the host.
	for _, s := range live {
		m.Release(s, true)
	}
	live = nil
	for m.evictLargeLRU() {
	}
	verify("evicted")
	d := textSeq(4, 300)
	d.PromptLen = 300
	p := m.Lookup(d)
	if p < 2*window {
		t.Fatalf("d's lookup hits %d tokens from the host tier, want at least %d", p, 2*window)
	}
	serve(d, 300, 5000)
	if m.Stats().SwapIns == 0 {
		t.Fatal("d's claim restored nothing from the host tier")
	}
	if wg := &m.reqs[d.ID].g[win.idx]; wg.base != (p-window)/win.tpp {
		t.Fatalf("the restore started d's window table at entry %d, want %d", wg.base, (p-window)/win.tpp)
	}

	// Attention sinks: the kept head holds entry 0, so the table never
	// slides.
	ms := newSinkMgr(t)
	sink := ms.groups[ms.groupIndex("sink")]
	s := textSeq(1, 16)
	if err := ms.Reserve(s, 16, 1); err != nil {
		t.Fatal(err)
	}
	ms.Commit(s, 16, 1)
	for i := range 200 {
		extend(t, ms, s, Tick(2+i))
		audit(t, ms)
	}
	if sg := &ms.reqs[s.ID].g[sink.idx]; sg.base != 0 || !sg.at(0).held() {
		t.Fatalf("the sink table starts at entry %d, entry 0 held %v; want 0 and held", sg.base, sg.at(0).held())
	}
}
