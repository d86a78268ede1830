package core

import (
	"strings"
	"testing"
)

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
