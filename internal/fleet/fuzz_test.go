package fleet

import "testing"

// refDirectory is the map-based reference model: identical semantics
// to Directory (including pin-deferred invalidation), naive data
// structures. The fuzz target cross-checks every Lookup and Len
// against it.
type refDirectory struct {
	holders  map[string]map[uint64]map[int]bool
	pins     map[int]int
	deferred map[int][]refInv
}

// refInv mirrors deferredInv: one deferred block invalidation, or a
// deferred holder-wide wipe (crash while pinned).
type refInv struct {
	group string
	hash  uint64
	all   bool
}

func newRefDirectory() *refDirectory {
	return &refDirectory{
		holders:  make(map[string]map[uint64]map[int]bool),
		pins:     make(map[int]int),
		deferred: make(map[int][]refInv),
	}
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
	if d.pins[replica] > 0 {
		d.deferred[replica] = append(d.deferred[replica], refInv{group: group, hash: hash})
		return
	}
	delete(d.holders[group][hash], replica)
}

// invalidateHolder returns the number of entries removed at once (0
// for a deferred wipe), as Directory.InvalidateHolder does.
func (d *refDirectory) invalidateHolder(replica int) int {
	if d.pins[replica] > 0 {
		d.deferred[replica] = append(d.deferred[replica], refInv{all: true})
		return 0
	}
	return d.wipeHolder(replica)
}

func (d *refDirectory) wipeHolder(replica int) int {
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

func (d *refDirectory) pin(replica int) { d.pins[replica]++ }

func (d *refDirectory) unpin(replica int) {
	if d.pins[replica] == 0 {
		return
	}
	d.pins[replica]--
	if d.pins[replica] > 0 {
		return
	}
	delete(d.pins, replica)
	for _, inv := range d.deferred[replica] {
		if inv.all {
			d.wipeHolder(replica)
		} else {
			delete(d.holders[inv.group][inv.hash], replica)
		}
	}
	delete(d.deferred, replica)
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

// FuzzFleetDirectory drives random register/invalidate/lookup/pin/
// unpin/crash interleavings over a small key space against the
// map-based reference, checking after every op that (a) every
// (group, hash, exclude) lookup agrees, (b) Len and every HolderLen
// agree, (c) a crash reports the entry count the reference removed, and
// (d) the pinned-holder exclusion invariant holds: an invalidation —
// single block or a crash's holder-wide wipe — against a pinned replica
// never removes its entries until the final Unpin. The four replica IDs
// span three mask words (0, 1, 64, 130), so lowest-holder-wins and
// exclusion are exercised across cells as well as within one.
func FuzzFleetDirectory(f *testing.F) {
	f.Add([]byte{0x01, 0x12, 0x23, 0x34, 0x40})
	f.Add([]byte{0x30, 0x10, 0x11, 0x20, 0x40, 0x20})
	f.Add([]byte{0x01, 0x05, 0x51})             // register two holders, crash one
	f.Add([]byte{0x31, 0x01, 0x51, 0x01, 0x41}) // crash deferred behind a pin
	f.Add([]byte{})
	const hashes = 8
	replicaIDs := []int{0, 1, 64, 130}
	groups := []string{"a", "b"}
	f.Fuzz(func(t *testing.T, ops []byte) {
		d := NewDirectory()
		ref := newRefDirectory()
		for _, b := range ops {
			op := int(b >> 4 % 6)
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
				d.Pin(replica)
				ref.pin(replica)
			case 4:
				d.Unpin(replica)
				ref.unpin(replica)
			case 5:
				if got, want := d.InvalidateHolder(replica), ref.invalidateHolder(replica); got != want {
					t.Fatalf("InvalidateHolder(%d) = %d, reference %d", replica, got, want)
				}
			}
			if got, want := d.Len(), ref.len(); got != want {
				t.Fatalf("Len = %d, reference %d", got, want)
			}
			for _, r := range replicaIDs {
				if got, want := d.HolderLen(r), ref.holderLen(r); got != want {
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
		// Drain every pin: deferred invalidations must all apply and
		// the two models must still agree.
		for _, r := range replicaIDs {
			for i := 0; i < len(ops)+1; i++ {
				d.Unpin(r)
				ref.unpin(r)
			}
		}
		if got, want := d.Len(), ref.len(); got != want {
			t.Fatalf("post-drain Len = %d, reference %d", got, want)
		}
		for _, gg := range groups {
			for hh := uint64(0); hh < hashes; hh++ {
				gr, gok := d.Lookup(gg, hh, -1)
				wr, wok := ref.lookup(gg, hh, -1)
				if gok != wok || (gok && gr != wr) {
					t.Fatalf("post-drain Lookup(%s,%d) = %d/%v, reference %d/%v",
						gg, hh, gr, gok, wr, wok)
				}
			}
		}
	})
}
