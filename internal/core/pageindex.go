package core

import (
	"math/bits"

	"jenga/internal/arena"
)

// pageIndex is a group's prefix index: published block hash → the page
// that owns the entry, as an open-addressed table of page IDs. Entries
// are distinct pages, so at twice len(pages) slots (rounded up to a
// power of two) the load factor stays at or below one half and the
// table, sized once, never grows or rehashes. Keys are not stored: an
// entry's hash is the hash field of its page, which must not change
// while the page is indexed (pg.hashed). Probing is linear from one
// Fibonacci multiply of the chain hash (already mixed; the multiply
// spreads the small synthetic hashes tests publish), and deletion
// shifts the rest of the run back over the hole, so there are no
// tombstones and a miss ends at the first empty slot.
type pageIndex struct {
	// slots holds page ID + 1; 0 is an empty slot.
	slots []int32
	pages []page // the owning group's page array
	shift uint   // 64 − log₂ len(slots)
	n     int
}

func (ix *pageIndex) init(pages []page) {
	size := 2
	for size < 2*len(pages) {
		size <<= 1
	}
	ix.slots = make([]int32, size)
	ix.pages = pages
	ix.shift = uint(64 - bits.TrailingZeros(uint(size)))
	ix.n = 0
}

func (ix *pageIndex) len() int { return ix.n }

func (ix *pageIndex) home(hash uint64) int {
	return int((hash * 0x9E3779B97F4A7C15) >> ix.shift)
}

// get returns the page indexed under hash.
//
//jenga:hotpath
func (ix *pageIndex) get(hash uint64) (arena.SmallPageID, bool) {
	mask := len(ix.slots) - 1
	for i := ix.home(hash); ; i = (i + 1) & mask {
		s := ix.slots[i]
		if s == 0 {
			return 0, false
		}
		if ix.pages[s-1].hash == hash {
			return arena.SmallPageID(s - 1), true
		}
	}
}

// put indexes page id under its own hash unless another page already
// holds that hash, and reports whether it did.
//
//jenga:hotpath
func (ix *pageIndex) put(id arena.SmallPageID) bool {
	hash := ix.pages[id].hash
	mask := len(ix.slots) - 1
	for i := ix.home(hash); ; i = (i + 1) & mask {
		s := ix.slots[i]
		if s == 0 {
			ix.slots[i] = int32(id) + 1
			ix.n++
			return true
		}
		if ix.pages[s-1].hash == hash {
			return false
		}
	}
}

// del removes page id's entry; the page must be indexed, its hash
// unchanged since put.
//
//jenga:hotpath
func (ix *pageIndex) del(id arena.SmallPageID) {
	mask := len(ix.slots) - 1
	i := ix.home(ix.pages[id].hash)
	for ix.slots[i] != int32(id)+1 {
		if ix.slots[i] == 0 {
			check(false, "pageIndex: page %d is not indexed", id)
		}
		i = (i + 1) & mask
	}
	// An entry further down the run moves into the hole unless its home
	// lies cyclically inside (hole, entry].
	for j := (i + 1) & mask; ix.slots[j] != 0; j = (j + 1) & mask {
		h := ix.home(ix.pages[ix.slots[j]-1].hash)
		if (j-h)&mask >= (j-i)&mask {
			ix.slots[i] = ix.slots[j]
			i = j
		}
	}
	ix.slots[i] = 0
	ix.n--
}
