package core

import (
	"bytes"
	"slices"
	"testing"
)

// recObs records TierObserver notifications for assertions.
type recObs struct {
	stored, evicted map[uint64]bool
}

func newRecObs() *recObs {
	return &recObs{stored: make(map[uint64]bool), evicted: make(map[uint64]bool)}
}

func (o *recObs) TierStored(group string, hashes []uint64) {
	for _, h := range hashes {
		o.stored[h] = true
	}
}

func (o *recObs) TierEvicted(group string, hashes []uint64) {
	for _, h := range hashes {
		o.evicted[h] = true
		delete(o.stored, h)
	}
}

func (o *recObs) hashes() []uint64 {
	out := make([]uint64, 0, len(o.stored))
	for h := range o.stored {
		out = append(out, h)
	}
	return out
}

// spillAll commits one 33-token sequence on m, stamps its backed
// bytes, releases it and evicts everything so the content sits in the
// host tier. Returns the stamps for round-trip checks.
func spillAll(t *testing.T, m *Jenga) map[uint64]byte {
	t.Helper()
	seq := textSeq(1, 33)
	seq.PromptLen = 33
	if err := m.Reserve(seq, 33, 1); err != nil {
		t.Fatal(err)
	}
	m.Commit(seq, 33, 1)
	stamps := stampPages(t, m, seq)
	if len(stamps) == 0 {
		t.Fatal("no complete blocks stamped")
	}
	m.Release(seq, true)
	for m.evictLargeLRU() {
	}
	if st := m.TierStats(); st.SwapOuts == 0 {
		t.Fatalf("eviction did not spill: %+v", st)
	}
	return stamps
}

// TestFleetExportImportRoundTrip moves spilled pages from replica A to
// replica B through the serializable page-set surface and verifies B
// serves the prefix with byte-exact content — without polluting B's
// spill counters or PCIe transfer budget (peer traffic rides the peer
// link, charged by the engine, not DrainTransfers).
func TestFleetExportImportRoundTrip(t *testing.T) {
	a := newTieredMgr(t, flatSpec(), 1<<16, 1<<20, 4)
	obs := newRecObs()
	a.SetTierObserver(obs)
	stamps := spillAll(t, a)
	if len(obs.stored) == 0 {
		t.Fatal("observer saw no stores")
	}

	ps, ok := a.ExportPrefix("kv", obs.hashes())
	if !ok || ps.NumPages() == 0 {
		t.Fatalf("ExportPrefix failed: ok=%v pages=%d", ok, ps.NumPages())
	}
	if ps.PageBytes <= 0 || ps.Bytes() != int64(ps.NumPages())*ps.PageBytes {
		t.Fatalf("bad page-set accounting: %+v", ps)
	}
	st := a.TierStats()
	if st.PeerExports != int64(ps.NumPages()) || st.PeerExportBytes != ps.Bytes() {
		t.Fatalf("export stats %+v don't match set (%d pages)", st, ps.NumPages())
	}

	b := newTieredMgr(t, flatSpec(), 1<<16, 1<<20, 4)
	pages, bytes := b.ImportPrefix(ps, 2)
	if pages != ps.NumPages() || bytes != ps.Bytes() {
		t.Fatalf("ImportPrefix = %d pages/%d bytes, want %d/%d", pages, bytes, ps.NumPages(), ps.Bytes())
	}
	bst := b.TierStats()
	if bst.PeerImports != int64(pages) || bst.PeerImportBytes != bytes {
		t.Fatalf("import stats %+v", bst)
	}
	if bst.SwapOuts != 0 || bst.SpilledBytes != 0 {
		t.Fatalf("peer import polluted spill counters: %+v", bst)
	}
	if h2d, d2h := b.DrainTransfers(); h2d != 0 || d2h != 0 {
		t.Fatalf("peer import charged PCIe: %d/%d", h2d, d2h)
	}

	// B never computed this prefix, but its tier now holds it.
	probe := textSeq(9, 33)
	probe.PromptLen = 33
	if p := b.Lookup(probe); p < 32 {
		t.Fatalf("B Lookup = %d, want ≥ 32", p)
	}
	if err := b.Reserve(probe, 33, 3); err != nil {
		t.Fatal(err)
	}
	if got := b.CachedPrefix(probe); got < 32 {
		t.Fatalf("B CachedPrefix = %d, want ≥ 32", got)
	}
	// Restored bytes on B must match A's stamps exactly.
	r := b.reqs[probe.ID]
	checked := 0
	for gi, g := range b.groups {
		rg := &r.g[gi]
		for blk := range rg.pages {
			if !rg.pages[blk].held {
				continue
			}
			pg := &g.pages[rg.pages[blk].id]
			want, ok := stamps[pg.hash]
			if !ok {
				continue
			}
			buf, err := g.view.SmallSlice(rg.pages[blk].id)
			if err != nil {
				t.Fatal(err)
			}
			for i := range buf {
				if buf[i] != want {
					t.Fatalf("block %d byte %d = %#x, want %#x", blk, i, buf[i], want)
				}
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no transferred blocks verified")
	}
	audit(t, a)
	audit(t, b)
}

// TestFleetImportDedup: re-importing a page set whose blocks are
// already resident admits nothing (and keeps the stats clean).
func TestFleetImportDedup(t *testing.T) {
	a := newTieredMgr(t, flatSpec(), 1<<16, 1<<20, 4)
	obs := newRecObs()
	a.SetTierObserver(obs)
	spillAll(t, a)
	ps, ok := a.ExportPrefix("kv", obs.hashes())
	if !ok {
		t.Fatal("export failed")
	}

	b := newTieredMgr(t, flatSpec(), 1<<16, 1<<20, 4)
	if pages, _ := b.ImportPrefix(ps, 1); pages == 0 {
		t.Fatal("first import admitted nothing")
	}
	ps2, ok := a.ExportPrefix("kv", obs.hashes())
	if !ok {
		t.Fatal("second export failed")
	}
	if pages, bytes := b.ImportPrefix(ps2, 2); pages != 0 || bytes != 0 {
		t.Fatalf("duplicate import admitted %d pages/%d bytes, want 0/0", pages, bytes)
	}
	// Unknown group: rejected outright.
	ps3 := ps2
	ps3.Group = "no-such-group"
	if pages, _ := b.ImportPrefix(ps3, 3); pages != 0 {
		t.Fatal("unknown-group import admitted pages")
	}
	audit(t, b)
}

// TestFleetExportSkipsPinned: a page pinned by an in-flight restore is
// never exported.
func TestFleetExportSkipsPinned(t *testing.T) {
	m := newTieredMgr(t, flatSpec(), 1<<16, 1<<20, 4)
	obs := newRecObs()
	m.SetTierObserver(obs)
	spillAll(t, m)
	hashes := obs.hashes()
	ps, ok := m.ExportPrefix("kv", hashes)
	if !ok {
		t.Fatal("baseline export failed")
	}
	baseline := ps.NumPages()

	// Pin every page, as a mid-claim restore would.
	kv := m.byName["kv"]
	var pins []tierPin
	for _, h := range hashes {
		pins = append(pins, m.host.pin(kv, h))
	}
	if _, ok := m.ExportPrefix("kv", hashes); ok {
		t.Fatal("export succeeded with every page pinned")
	}
	// Unpin: exports flow again.
	for _, p := range pins {
		m.host.unpin(p)
	}
	ps2, ok := m.ExportPrefix("kv", hashes)
	if !ok || ps2.NumPages() != baseline {
		t.Fatalf("post-unpin export = %d pages, want %d", ps2.NumPages(), baseline)
	}
}

// TestFleetObserverEviction: budget evictions notify TierEvicted for
// exactly the hashes whose live copy died.
func TestFleetObserverEviction(t *testing.T) {
	// Tier budget of exactly one large page: every store evicts the
	// previous page (page size read off a throwaway manager).
	pageBytes := newTieredMgr(t, flatSpec(), 1<<16, 1<<20, 4).host.pageBytes
	m := newTieredMgr(t, flatSpec(), 1<<16, pageBytes, 4)
	obs := newRecObs()
	m.SetTierObserver(obs)
	spillAll(t, m)
	if len(obs.evicted) == 0 {
		t.Fatal("one-page tier spilled many pages but evicted none")
	}
	for h := range obs.stored {
		if _, ok := m.host.lookup(m.byName["kv"], h); !ok {
			t.Fatalf("observer thinks %#x is stored but the index lost it", h)
		}
	}
	for h := range obs.evicted {
		if _, ok := m.host.lookup(m.byName["kv"], h); ok {
			t.Fatalf("observer thinks %#x was evicted but it is still resident", h)
		}
	}
}

// TestLookupFleetPeerExtension: a peer-presence oracle extends the
// prefix past what the local tiers hold, and the fetch list names
// exactly the peer-only blocks; once imported, the same lookup goes
// local and the fetch list empties.
func TestLookupFleetPeerExtension(t *testing.T) {
	a := newTieredMgr(t, flatSpec(), 1<<16, 1<<20, 4)
	obs := newRecObs()
	a.SetTierObserver(obs)
	spillAll(t, a)

	b := newTieredMgr(t, flatSpec(), 1<<16, 1<<20, 4)
	probe := textSeq(7, 33)
	probe.PromptLen = 33
	if p := b.Lookup(probe); p != 0 {
		t.Fatalf("B local lookup = %d, want 0", p)
	}
	peer := func(group string, hash uint64) (int, bool) { return 5, group == "kv" && obs.stored[hash] }
	p, fetch := b.LookupFleet(probe, peer)
	if p < 32 || len(fetch) == 0 {
		t.Fatalf("LookupFleet = %d with %d fetch blocks, want ≥ 32 with > 0", p, len(fetch))
	}
	for _, fb := range fetch {
		if fb.Group != "kv" || !obs.stored[fb.Hash] || fb.Holder != 5 {
			t.Fatalf("fetch block %+v not held by the peer the oracle named", fb)
		}
	}
	// Nil oracle: the fleet path is off.
	if p, fetch := b.LookupFleet(probe, nil); p != 0 || fetch != nil {
		t.Fatalf("nil-peer LookupFleet = %d/%v, want 0/nil", p, fetch)
	}

	// Transfer, then the same lookup is local: no fetch needed.
	hashes := make([]uint64, 0, len(fetch))
	for _, fb := range fetch {
		hashes = append(hashes, fb.Hash)
	}
	ps, ok := a.ExportPrefix("kv", hashes)
	if !ok {
		t.Fatal("export failed")
	}
	if pages, _ := b.ImportPrefix(ps, 2); pages == 0 {
		t.Fatal("import admitted nothing")
	}
	p2, fetch2 := b.LookupFleet(probe, peer)
	if p2 < p || len(fetch2) != 0 {
		t.Fatalf("post-import LookupFleet = %d with %d fetch blocks, want ≥ %d with 0", p2, len(fetch2), p)
	}
	if lp := b.Lookup(probe); lp < p {
		t.Fatalf("post-import local Lookup = %d, want ≥ %d", lp, p)
	}
}

// TestPageSetValidUntilNextExport: an exported set is a view into the
// exporting manager's scratch — intact across imports elsewhere and
// lookups on the holder, overwritten by the holder's next export.
func TestPageSetValidUntilNextExport(t *testing.T) {
	a := newTieredMgr(t, flatSpec(), 1<<16, 1<<20, 4)
	obs := newRecObs()
	a.SetTierObserver(obs)
	stamps := spillAll(t, a)
	hashes := obs.hashes()
	slices.Sort(hashes)
	if len(hashes) < 4 {
		t.Fatalf("want ≥ 4 spilled blocks, got %d", len(hashes))
	}
	// The larger export first, so the second fits the grown scratch.
	first, rest := hashes[:len(hashes)-2], hashes[len(hashes)-2:]

	ps, ok := a.ExportPrefix("kv", first)
	if !ok {
		t.Fatal("export failed")
	}
	type blockCopy struct {
		PageBlock
		data []byte
	}
	var snap []blockCopy
	for _, b := range ps.Blocks {
		if want, ok := stamps[b.Hash]; !ok || len(b.Data) == 0 || b.Data[0] != want {
			t.Fatalf("exported block %#x does not carry its stamped bytes", b.Hash)
		}
		snap = append(snap, blockCopy{b, slices.Clone(b.Data)})
	}
	intact := func() bool {
		if len(ps.Blocks) != len(snap) {
			return false
		}
		for i, b := range ps.Blocks {
			if b.Hash != snap[i].Hash || b.Filled != snap[i].Filled || b.Priority != snap[i].Priority || !bytes.Equal(b.Data, snap[i].data) {
				return false
			}
		}
		return true
	}

	// Imports into a peer — twice, as a retried transfer would — and
	// lookups on the holder leave the set alone.
	b := newTieredMgr(t, flatSpec(), 1<<16, 1<<20, 4)
	if pages, _ := b.ImportPrefix(ps, 1); pages != ps.NumPages() {
		t.Fatalf("import admitted %d of %d pages", pages, ps.NumPages())
	}
	if pages, _ := b.ImportPrefix(ps, 2); pages != 0 {
		t.Fatalf("re-import of a resident set admitted %d pages", pages)
	}
	probe := textSeq(9, 33)
	a.Lookup(probe)
	a.LookupFleet(probe, func(string, uint64) (int, bool) { return 1, true })
	if !intact() {
		t.Fatal("page set changed before the holder's next export")
	}
	// The importer copied: its tier does not share the holder's bytes.
	for _, blk := range ps.Blocks {
		hb, ok := b.host.lookup(0, blk.Hash)
		if !ok || !bytes.Equal(hb.data, blk.Data) || &hb.data[0] == &blk.Data[0] {
			t.Fatalf("imported block %#x missing, different, or sharing the exporter's buffer", blk.Hash)
		}
	}

	// The next export reuses the scratch: the old set now reads as the
	// new one.
	ps2, ok := a.ExportPrefix("kv", rest)
	if !ok {
		t.Fatal("second export failed")
	}
	if &ps.Blocks[0] != &ps2.Blocks[0] {
		t.Fatal("second export did not reuse the first's block array: a page set would be a per-export allocation")
	}
	if intact() {
		t.Fatal("first page set still intact after the holder exported other blocks")
	}
}
