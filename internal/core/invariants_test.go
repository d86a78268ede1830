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
	// anyEntry returns one index entry of group 0.
	anyEntry := func(m *Jenga) (uint64, tierRef) {
		for h, ref := range m.host.index[0] {
			return h, ref
		}
		t.Fatal("the tier indexes nothing")
		return 0, tierRef{}
	}
	freeSlot := func(m *Jenga) int32 { return m.host.free[len(m.host.free)-1] }
	cases := []struct {
		name    string
		corrupt func(m *Jenga)
		want    string // "" means the manager must still pass
	}{
		{"intact", func(*Jenga) {}, ""},
		{"pending restore holds the pin", func(m *Jenga) {
			h, _ := anyEntry(m)
			m.claimPending = append(m.claimPending, pendingRestore{g: m.groups[0], hash: h, pin: m.host.pin(0, h)})
		}, ""},
		{"entry names another block", func(m *Jenga) {
			_, ref := anyEntry(m)
			m.host.page(ref.slot).blocks[ref.pos].hash ^= 1
		}, "which does not hold it"},
		{"entry names a slot past the slab", func(m *Jenga) {
			h, _ := anyEntry(m)
			m.host.index[0][h] = tierRef{slot: int32(len(m.host.chunks) * tierChunkPages)}
		}, "names slot"},
		{"negative pins", func(m *Jenga) {
			_, ref := anyEntry(m)
			m.host.page(ref.slot).pins = -1
		}, "holds -1 pins"},
		{"pinned free slot", func(m *Jenga) {
			m.host.page(freeSlot(m)).pins = 1
		}, "free slot"},
		{"queued free slot", func(m *Jenga) {
			m.host.evict.push(hostEvictEntry{touch: 1, seq: 99, id: freeSlot(m)})
		}, "free slot"},
		{"live page queued at a stale key", func(m *Jenga) {
			_, ref := anyEntry(m)
			m.host.page(ref.slot).touch++
		}, "not queued at its key"},
		{"pin no restore holds", func(m *Jenga) {
			h, _ := anyEntry(m)
			m.host.pin(0, h)
		}, "pages hold 1 pins, pending restores 0"},
		{"pending restore's pin outlived its page", func(m *Jenga) {
			h, ref := anyEntry(m)
			pin := m.host.pin(0, h)
			pin.seq = m.host.page(ref.slot).seq + 1
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
