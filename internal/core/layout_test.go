package core

import (
	"testing"

	"jenga/internal/arena"
	"jenga/internal/model"
)

// TestBackedLayoutFingerprints runs two interleaved requests on a
// backed arena, simulates the KV writes of every layer through the
// Fig. 7c kernel views, and then reads everything back. Any aliasing
// between (request, group, layer, position) slots — i.e. any allocator
// bug that hands the same bytes to two owners — corrupts a fingerprint.
func TestBackedLayoutFingerprints(t *testing.T) {
	spec := fig6Spec()
	m, err := New(Config{
		Spec: spec, CapacityBytes: 64 * 768, TokensPerPage: 2,
		Backed: true, RequestAware: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	a := mixedSeq(1, 6, 8)
	b := mixedSeq(2, 4, 10)
	b.Tokens[0].ID = 777 // distinct content
	for _, s := range []*Sequence{a, b} {
		if err := m.Reserve(s, len(s.Tokens), 1); err != nil {
			t.Fatal(err)
		}
		m.Commit(s, len(s.Tokens), 1)
	}

	// Write fingerprints for every (seq, group, layer, projected pos).
	type loc struct {
		kv   arena.KernelView
		slot int
		fp   uint64
	}
	var locs []loc
	for _, s := range []*Sequence{a, b} {
		r := m.reqs[s.ID]
		for gi, g := range m.groups {
			rg := &r.g[gi]
			if g.spec.Kind == model.Mamba || g.isVision() {
				continue
			}
			for layer := 0; layer < g.spec.Layers; layer++ {
				for b0, ref := range rg.pages {
					if !ref.held {
						continue
					}
					kv, err := g.view.Kernel(layer, []arena.SmallPageID{ref.id})
					if err != nil {
						t.Fatal(err)
					}
					pg := &g.pages[ref.id]
					for slot := 0; slot < int(pg.filled); slot++ {
						pos := b0*g.tpp + slot
						fp := arena.TokenFingerprint(uint64(s.ID)<<32|uint64(gi), layer, pos)
						if err := kv.WriteFingerprint(0, slot, fp); err != nil {
							t.Fatal(err)
						}
						locs = append(locs, loc{kv: kv, slot: slot, fp: fp})
					}
				}
			}
		}
	}
	if len(locs) < 50 {
		t.Fatalf("expected many slots, got %d", len(locs))
	}
	// Read back after all writes: overlaps would have clobbered values.
	for i, l := range locs {
		got, err := l.kv.ReadFingerprint(0, l.slot)
		if err != nil {
			t.Fatal(err)
		}
		if got != l.fp {
			t.Fatalf("slot %d: fingerprint %#x, want %#x (aliased allocation)", i, got, l.fp)
		}
	}
	m.Release(a, false)
	m.Release(b, false)
	audit(t, m)
}

// TestKernelTripleMatchesPaper: the manager's per-layer kernel view for
// a group reproduces the (start_ptr, page_size_exec, pageid_exec)
// interface of Fig. 7c.
func TestKernelTripleMatchesPaper(t *testing.T) {
	m, err := New(Config{
		Spec: fig6Spec(), CapacityBytes: 8 * 768, TokensPerPage: 1, Backed: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	kv, err := m.groups[m.groupIndex("cross")].view.Kernel(1, []arena.SmallPageID{0, 4})
	if err != nil {
		t.Fatal(err)
	}
	if kv.StartOff != 128 || kv.PageSizeExec != 256 {
		t.Errorf("kernel triple = (%d, %d), want (128, 256)", kv.StartOff, kv.PageSizeExec)
	}
}
