package fleet

import "testing"

// refDirectory is the map-based reference model: identical semantics
// to Directory, naive data structures. The fuzz target cross-checks
// every Lookup and Len against it.
type refDirectory struct {
	holders map[string]map[uint64]map[int]bool
}

func newRefDirectory() *refDirectory {
	return &refDirectory{holders: make(map[string]map[uint64]map[int]bool)}
}

func (d *refDirectory) register(replica int, group string, hash uint64) {
	gm := d.holders[group]
	if gm == nil {
		gm = make(map[uint64]map[int]bool)
		d.holders[group] = gm
	}
	if gm[hash] == nil {
		gm[hash] = make(map[int]bool)
	}
	gm[hash][replica] = true
}

func (d *refDirectory) invalidate(replica int, group string, hash uint64) {
	delete(d.holders[group][hash], replica)
}

// invalidateHolder returns the number of entries removed, as
// Directory.InvalidateHolder does.
func (d *refDirectory) invalidateHolder(replica int) int {
	n := 0
	for _, gm := range d.holders {
		for _, hs := range gm {
			if hs[replica] {
				n++
			}
			delete(hs, replica)
		}
	}
	return n
}

func (d *refDirectory) lookup(group string, hash uint64, exclude int) (int, bool) {
	best, ok := 0, false
	for r := range d.holders[group][hash] {
		if r == exclude {
			continue
		}
		if !ok || r < best {
			best, ok = r, true
		}
	}
	return best, ok
}

func (d *refDirectory) holderLen(replica int) int {
	n := 0
	for _, gm := range d.holders {
		for _, hs := range gm {
			if hs[replica] {
				n++
			}
		}
	}
	return n
}

func (d *refDirectory) len() int {
	n := 0
	for _, gm := range d.holders {
		for _, hs := range gm {
			n += len(hs)
		}
	}
	return n
}

// FuzzFleetDirectory drives random register/invalidate/lookup/crash
// interleavings over a small key space against the map-based
// reference, checking after every op that the directory's table is
// sound (check), that (a) every (group, hash, exclude) lookup agrees,
// (b) Len and every HolderLen agree, and (c) a crash reports the entry
// count the reference removed. Every invalidation acts at once: the
// cluster runs transfers and crashes in barrier sections, so none is
// ever in flight when one arrives. The four replica IDs span three mask
// words (0, 1, 64, 130), so lowest-holder-wins and exclusion are
// exercised across cells as well as within one.
func FuzzFleetDirectory(f *testing.F) {
	f.Add([]byte{0x01, 0x12, 0x23, 0x34, 0x40})
	f.Add([]byte{0x30, 0x10, 0x11, 0x20, 0x40, 0x20})
	f.Add([]byte{0x01, 0x05, 0x31})             // register two holders, crash one
	f.Add([]byte{0x01, 0x11, 0x31, 0x01, 0x13}) // invalidate, crash, re-register
	f.Add([]byte{0x19, 0x01})                   // invalidate a group never seen
	f.Add([]byte{})
	const hashes = 8
	replicaIDs := []int{0, 1, 64, 130}
	groups := []string{"a", "b"}
	f.Fuzz(func(t *testing.T, ops []byte) {
		d := NewDirectory()
		ref := newRefDirectory()
		for _, b := range ops {
			op := int(b >> 4 % 4)
			replica := replicaIDs[int(b)%len(replicaIDs)]
			h := uint64(b>>2) % hashes
			g := groups[int(b>>1)%len(groups)]
			switch op {
			case 0:
				d.Register(replica, g, []uint64{h})
				ref.register(replica, g, h)
			case 1:
				d.Invalidate(replica, g, []uint64{h})
				ref.invalidate(replica, g, h)
			case 2:
				// lookup correctness is checked exhaustively below
			case 3:
				if got, want := d.InvalidateHolder(replica), ref.invalidateHolder(replica); got != want {
					t.Fatalf("InvalidateHolder(%d) = %d, reference %d", replica, got, want)
				}
			}
			if err := d.check(); err != nil {
				t.Fatalf("after op %#x: %v", b, err)
			}
			if got, want := d.len(), ref.len(); got != want {
				t.Fatalf("Len = %d, reference %d", got, want)
			}
			for _, r := range replicaIDs {
				if got, want := d.holderLen(r), ref.holderLen(r); got != want {
					t.Fatalf("HolderLen(%d) = %d, reference %d", r, got, want)
				}
			}
			for _, gg := range groups {
				for hh := uint64(0); hh < hashes; hh++ {
					for _, ex := range append([]int{-1, 2}, replicaIDs...) {
						gr, gok := d.Lookup(gg, hh, ex)
						wr, wok := ref.lookup(gg, hh, ex)
						if gok != wok || (gok && gr != wr) {
							t.Fatalf("Lookup(%s,%d,%d) = %d/%v, reference %d/%v",
								gg, hh, ex, gr, gok, wr, wok)
						}
					}
				}
			}
		}
	})
}
