package core

import (
	"slices"
	"testing"

	"jenga/internal/arena"
)

// FuzzPageIndex drives a prefix index and a map[uint64]SmallPageID with one
// byte-coded op stream over eight pages (sixteen slots) and requires
// the same answer from every put and get. Each byte is op<<6 | hash<<3
// | page: op 0 and 1 publish the page under one of eight hashes (as a
// block-boundary commit does: refused when another page holds the
// hash), 2 unpublishes it, 3 looks the hash up. Four hashes share a
// home slot, a fifth starts in the middle of their run and three more
// make a run that wraps around the table's end, so every stream probes
// past collisions; eight pages published fill the table to the half it
// can ever reach.
func FuzzPageIndex(f *testing.F) {
	var ix pageIndex[arena.SmallPageID]
	ix.init(make([]uint64, 8), 8)
	// Search the small hashes for four that share home slot 3, one homed
	// at 4, two at the last slot and one at slot 0 (a run that wraps).
	var hashes []uint64
	for _, home := range []int{3, 3, 3, 3, 4, 15, 15, 0} {
		for h := uint64(1); ; h++ {
			if ix.home(h) == home && !slices.Contains(hashes, h) {
				hashes = append(hashes, h)
				break
			}
		}
	}

	put := func(hash, pg byte) byte { return hash<<3 | pg }
	del := func(pg byte) byte { return 2<<6 | pg }
	get := func(hash byte) byte { return 3<<6 | hash<<3 }
	// Delete in the middle of a run: the three entries behind the hole
	// shift back, the one homed further down must not move above its home.
	f.Add([]byte{put(0, 0), put(1, 1), put(4, 4), put(2, 2), put(3, 3), del(1), get(0), get(2), get(3), get(4), get(1), del(0), get(4), get(3)})
	// A refused duplicate publish, then a full table emptied from the
	// front of each run.
	f.Add([]byte{put(0, 0), put(1, 1), put(2, 2), put(3, 3), put(4, 4), put(5, 5), put(6, 6), put(0, 7), put(7, 7),
		del(0), del(1), del(2), del(3), del(4), del(5), get(6), get(7), del(6), del(7), get(7), put(0, 7), get(0)})

	f.Fuzz(func(t *testing.T, data []byte) {
		pages := make([]page, 8)
		g := &group{pages: pages, hash: make([]uint64, len(pages))}
		g.index.init(g.hash, len(pages))
		ix := &g.index
		ref := map[uint64]arena.SmallPageID{}
		for i, b := range data {
			hash, id := hashes[b>>3&7], arena.SmallPageID(b&7)
			pg := &pages[id]
			switch b >> 6 {
			case 0, 1:
				if pg.has(pageHashed) {
					continue // an indexed page's hash does not change
				}
				g.hash[id], pg.status = hash, pageUsed
				_, dup := ref[hash]
				if !dup {
					ref[hash] = id
				}
				pg.set(pageHashed, ix.put(id))
				if pg.has(pageHashed) == dup {
					t.Fatalf("op %d: put(page %d, %x) = %v with the hash held: %v", i, id, hash, pg.has(pageHashed), dup)
				}
			case 2:
				if pg.has(pageHashed) {
					ix.del(id)
					delete(ref, g.hash[id])
					pg.set(pageHashed, false)
				}
			default:
				got, ok := ix.get(hash)
				if want, wantOK := ref[hash]; ok != wantOK || got != want {
					t.Fatalf("op %d: get(%x) = page %d (%v), map says %d (%v)", i, hash, got, ok, want, wantOK)
				}
			}
			if err := checkPrefixIndex(g); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
			if ix.len() != len(ref) {
				t.Fatalf("op %d: %d entries, map holds %d", i, ix.len(), len(ref))
			}
		}
	})
}
