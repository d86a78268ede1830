package core

import (
	"slices"
	"strings"
	"testing"

	"jenga/internal/debug"
)

// TestCheckInvariantsHeldHashes: every complete page a live request
// holds carries the hash the request's record gives its block. The
// record is corrupted at a token block and at a finalized Mamba
// checkpoint, and CheckInvariants must name each; the intact manager
// passes, and so does one with a fork child whose record is still empty.
func TestCheckInvariantsHeldHashes(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(t *testing.T, m *Jenga, seq *Sequence)
		want    string // "" means the manager must still pass
	}{
		{"intact", func(*testing.T, *Jenga, *Sequence) {}, ""},
		{"fork child without a record", func(t *testing.T, m *Jenga, seq *Sequence) {
			child := &Sequence{ID: 2, Tokens: slices.Clone(seq.Tokens)}
			if err := m.Fork(seq, child, 2); err != nil {
				t.Fatal(err)
			}
			if m.reqs[child.ID].h.n != 0 {
				t.Fatal("Fork built the child's record")
			}
		}, ""},
		{"token block", func(t *testing.T, m *Jenga, seq *Sequence) {
			m.reqs[seq.ID].h.c[m.groups[0].hclass].hashes[1]++
		}, "group attn, entry 1 of 4"},
		{"Mamba checkpoint", func(t *testing.T, m *Jenga, seq *Sequence) {
			m.reqs[seq.ID].h.c[m.groups[1].hclass].hashes[0]++
		}, "group mamba, entry 0 of 2"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := newMgr(t, mambaSpec(4), 1<<20, 2, true)
			seq := textSeq(1, 9) // attention blocks 0-3 complete, checkpoints at 4 and 8
			commitAll(t, m, seq, 1)
			c.corrupt(t, m, seq)
			err := m.CheckInvariants()
			switch {
			case c.want == "" && err != nil:
				t.Fatalf("sound manager reported: %v", err)
			case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
				t.Fatalf("got %v, want an error naming %q", err, c.want)
			}
		})
	}
}

// TestCheckInvariantsParkedStates: a parked request state holds no page
// and an empty block-hash record, which a jengadebug build has
// scribbled. A state parked after serving blocks, checkpoints and
// embeddings is corrupted one property at a time, and CheckInvariants
// must name each; the intact one passes.
func TestCheckInvariantsParkedStates(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(t *testing.T, r *reqState)
		want    string // "" means the manager must still pass
	}{
		{"intact", func(*testing.T, *reqState) {}, ""},
		{"working state", func(_ *testing.T, r *reqState) {
			r.g[1].work = heldRef(0)
		}, "still references a page of group 1"},
		{"stale table entry", func(_ *testing.T, r *reqState) {
			r.g[0].table[:1][0] = heldRef(3)
		}, "still references a page of group 0"},
		{"table not emptied", func(_ *testing.T, r *reqState) {
			r.g[2].table = r.g[2].table[:1]
		}, "table of 1 entries for group 2"},
		{"hashes left in the record", func(_ *testing.T, r *reqState) {
			r.h.c[0].hashes = r.h.c[0].hashes[:1]
		}, "still holds 0 tokens, 1 hashes"},
		{"record not scribbled", func(t *testing.T, r *reqState) {
			if !debug.On {
				t.Skip("only a jengadebug build scribbles a parked record")
			}
			r.h.c[0].hashes[:1][0] = 7
		}, "not scribbled"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := newMgr(t, recycleSpec(), 1<<20, 2, true)
			seq := recycleSeq(1, 23)
			if err := serve(m, seq, 1); err != nil {
				t.Fatal(err)
			}
			m.Release(seq, true)
			c.corrupt(t, m.spareReqs[0])
			err := m.CheckInvariants()
			switch {
			case c.want == "" && err != nil:
				t.Fatalf("sound manager reported: %v", err)
			case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
				t.Fatalf("got %v, want an error naming %q", err, c.want)
			}
		})
	}
}

// TestCheckInvariantsHostTier corrupts one host-tier property at a time
// on a manager whose content sits in the tier, and CheckInvariants must
// name it. The untouched manager passes, and so does one whose pins are
// all held by a pending restore.
func TestCheckInvariantsHostTier(t *testing.T) {
	// anyEntry returns one entry of group 0's index: its table slot and
	// the block it names.
	anyEntry := func(m *Jenga) (int, int32) {
		for i, s := range m.host.index[0].slots {
			if s != 0 {
				return i, s - 1
			}
		}
		t.Fatal("the tier indexes nothing")
		return 0, 0
	}
	// emptyAfter returns the first empty table slot after slot i.
	emptyAfter := func(m *Jenga, i int) int {
		slots := m.host.index[0].slots
		for j := (i + 1) % len(slots); ; j = (j + 1) % len(slots) {
			if slots[j] == 0 {
				return j
			}
		}
	}
	freeSlot := func(m *Jenga) int32 {
		if n := len(m.host.free); n > 0 {
			return m.host.free[n-1]
		}
		return m.host.fresh
	}
	cases := []struct {
		name    string
		corrupt func(m *Jenga)
		want    string // "" means the manager must still pass
	}{
		{"intact", func(*Jenga) {}, ""},
		{"pending restore holds the pin", func(m *Jenga) {
			_, id := anyEntry(m)
			h := m.host.hash[id]
			m.claimPending = append(m.claimPending, pendingRestore{g: m.groups[0], hash: h, pin: m.host.pin(0, h)})
		}, ""},
		{"live block not indexed", func(m *Jenga) {
			_, id := anyEntry(m)
			m.host.index[0].drop(id)
		}, "is not indexed"},
		{"second entry for a key", func(m *Jenga) {
			i, id := anyEntry(m)
			ix := &m.host.index[0]
			ix.slots[emptyAfter(m, i)] = id + 1
			ix.n++
		}, "holds too"},
		{"entry unreachable from its home", func(m *Jenga) {
			i, id := anyEntry(m)
			ix := &m.host.index[0]
			ix.slots[i] = 0
			ix.slots[emptyAfter(m, i)] = id + 1
		}, "is unreachable"},
		{"entry names another block", func(m *Jenga) {
			// The block's key changes under its entry.
			i, id := anyEntry(m)
			h := &m.host.hash[id]
			for *h++; m.host.index[0].probe(*h) == i; *h++ {
			}
		}, "is unreachable"},
		{"entry names a free slot", func(m *Jenga) {
			i, _ := anyEntry(m)
			m.host.index[0].slots[i] = freeSlot(m)*m.host.stride + 1
		}, "holds no live block"},
		{"entry names a slot past the slab", func(m *Jenga) {
			i, _ := anyEntry(m)
			m.host.index[0].slots[i] = int32(len(m.host.blocks)) + 1
		}, "names block"},
		{"index over its load bound", func(m *Jenga) {
			ix := &m.host.index[0]
			var ids []int32
			for _, s := range ix.slots {
				if s != 0 {
					ids = append(ids, s-1)
				}
			}
			if len(ids) < 4 {
				t.Fatalf("%d entries cannot overfill a table", len(ids))
			}
			// A count that is no power of two, in a table of the next one
			// up: more than half full, never full.
			for len(ids)&(len(ids)-1) == 0 {
				ids = ids[1:]
			}
			size := 1
			for size <= len(ids) {
				size <<= 1
			}
			ix.init(ix.keys, size/2)
			for _, id := range ids {
				ix.put(id)
			}
		}, "at most half"},
		{"negative pins", func(m *Jenga) {
			_, id := anyEntry(m)
			m.host.pageOf(id).pins = -1
		}, "holds -1 pins"},
		{"pinned free slot", func(m *Jenga) {
			m.host.pages[freeSlot(m)].pins = 1
		}, "free slot"},
		{"queued free slot", func(m *Jenga) {
			m.host.evict.push(hostEvictEntry{touch: 1, seq: 99, id: freeSlot(m)})
		}, "free slot"},
		{"live page queued at a stale key", func(m *Jenga) {
			_, id := anyEntry(m)
			m.host.pageOf(id).touch++
		}, "not queued at its key"},
		{"pin no restore holds", func(m *Jenga) {
			_, id := anyEntry(m)
			m.host.pin(0, m.host.hash[id])
		}, "pages hold 1 pins, pending restores 0"},
		{"pending restore's pin outlived its page", func(m *Jenga) {
			_, id := anyEntry(m)
			h := m.host.hash[id]
			pin := m.host.pin(0, h)
			pin.seq = m.host.pageOf(id).seq + 1
			m.claimPending = append(m.claimPending, pendingRestore{g: m.groups[0], hash: h, pin: pin})
		}, "pending restore's pin"},
		{"bytes used", func(m *Jenga) {
			m.host.used += m.host.pageBytes
		}, "bytes used"},
		{"live count", func(m *Jenga) {
			m.host.live++
		}, "live pages"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := newTieredMgr(t, flatSpec(), 1<<16, 1<<20, 4)
			spillAll(t, m)
			c.corrupt(m)
			err := m.CheckInvariants()
			switch {
			case c.want == "" && err != nil:
				t.Fatalf("sound tier reported: %v", err)
			case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
				t.Fatalf("got %v, want an error naming %q", err, c.want)
			}
		})
	}
}

// TestCheckInvariantsFreeLarge: the free large pages are the returned
// stack plus every page from the high-water mark up, and only a stacked
// group has free-stack tops. One property at a time is corrupted on a
// manager with pages owned, returned and never handed out, and
// CheckInvariants must name each; the untouched manager passes.
func TestCheckInvariantsFreeLarge(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(m *Jenga)
		want    string // "" means the manager must still pass
	}{
		{"intact", func(*Jenga) {}, ""},
		{"a returned page owned", func(m *Jenga) {
			m.large[m.largeTop].owner = 0
		}, "which group 0 owns"},
		{"a returned page dropped", func(m *Jenga) {
			m.largeTop = int32(m.large[m.largeTop].ts) - 1
		}, "on the returned stack"},
		{"a page on the stack twice", func(m *Jenga) {
			m.large[m.largeTop].ts = Tick(m.largeTop) + 1
		}, "a cycle, or a page on it twice"},
		{"a fresh page on the stack", func(m *Jenga) {
			m.large[m.largeFresh].ts = Tick(m.largeTop) + 1
			m.largeTop = m.largeFresh
		}, "the returned stack holds page"},
		{"a free page records a count", func(m *Jenga) {
			m.large[len(m.large)-1].cached = 1
		}, "free page"},
		{"a ratio-1 group with a stack top", func(m *Jenga) {
			m.groups[m.groupIndex("pad")].assocTop[7] = 0
		}, "group pad: 1 stack tops in a group that keeps no stacks"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			spec := churnSpec()
			geo, err := spec.Geometry(4)
			if err != nil {
				t.Fatal(err)
			}
			m := newMgr(t, spec, int64(32*geo.LargePageBytes), 4, false)
			var seqs []*Sequence
			for i := range 3 {
				seq := &Sequence{ID: RequestID(i + 1)}
				for j := range 32 { // two large pages of kv blocks
					seq.Tokens = append(seq.Tokens, Token{ID: int32(i*64 + j + 1)})
				}
				commitAll(t, m, seq, Tick(i+1))
				seqs = append(seqs, seq)
			}
			m.Release(seqs[1], false)
			if m.largeTop < 0 || int(m.largeFresh) >= len(m.large) {
				t.Fatalf("returned stack top %d, %d of %d pages handed out: want pages in all three states", m.largeTop, m.largeFresh, len(m.large))
			}
			c.corrupt(m)
			err = m.CheckInvariants()
			switch {
			case c.want == "" && err != nil:
				t.Fatalf("sound manager reported: %v", err)
			case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
				t.Fatalf("got %v, want an error naming %q", err, c.want)
			}
		})
	}
}
