package core

import "math/bits"

// pageIndex is a hash → entry index whose keys live outside it: an
// open-addressed table of entry IDs, entry id's key being keys[id], an
// array its owner keeps by ID. A group's prefix index maps a published
// block hash to the page that owns it (keys: the group's page hashes);
// the host tier's, a resident block hash to the tier block holding it
// (keys: the tier's block hashes). Entries are distinct IDs, so at
// twice the number of entries the owner can ever index (rounded up to
// a power of two) the load factor stays at or below one half and the
// table, sized once, never grows or rehashes. An entry's key must not
// change while it is indexed. Probing is linear from one Fibonacci
// multiply of the chain hash (already mixed; the multiply spreads the
// small synthetic hashes tests publish), and deletion shifts the rest
// of the run back over the hole, so there are no tombstones and a miss
// ends at the first empty slot.
type pageIndex[I ~int32] struct {
	// slots holds entry ID + 1; 0 is an empty slot.
	slots []I
	keys  []uint64
	shift uint // 64 − log₂ len(slots)
	n     int
}

// init sizes the table for up to entries entries, keyed by keys.
func (ix *pageIndex[I]) init(keys []uint64, entries int) {
	size := 2
	for size < 2*entries {
		size <<= 1
	}
	ix.slots = make([]I, size)
	ix.keys = keys
	ix.shift = uint(64 - bits.TrailingZeros(uint(size)))
	ix.n = 0
}

// clear empties the table, keeping its size and keys.
func (ix *pageIndex[I]) clear() {
	clear(ix.slots)
	ix.n = 0
}

func (ix *pageIndex[I]) len() int { return ix.n }

func (ix *pageIndex[I]) home(hash uint64) int {
	return int((hash * 0x9E3779B97F4A7C15) >> ix.shift)
}

// get returns the entry indexed under hash. It is probe's loop written
// out again so that it stays small enough to inline: a lookup calls it
// per block.
//
//jenga:hotpath
func (ix *pageIndex[I]) get(hash uint64) (I, bool) {
	mask := len(ix.slots) - 1
	for i := ix.home(hash); ; i = (i + 1) & mask {
		s := ix.slots[i]
		if s == 0 {
			return 0, false
		}
		if ix.keys[s-1] == hash {
			return s - 1, true
		}
	}
}

// probe returns the table slot of hash's entry, or the empty slot that
// ends hash's run when it has none.
//
//jenga:hotpath
func (ix *pageIndex[I]) probe(hash uint64) int {
	mask := len(ix.slots) - 1
	for i := ix.home(hash); ; i = (i + 1) & mask {
		if s := ix.slots[i]; s == 0 || ix.keys[s-1] == hash {
			return i
		}
	}
}

// put indexes id under its own key unless another entry already holds
// that key, and reports whether it did.
//
//jenga:hotpath
func (ix *pageIndex[I]) put(id I) bool {
	i := ix.probe(ix.keys[id])
	if ix.slots[i] != 0 {
		return false
	}
	ix.slots[i] = id + 1
	ix.n++
	return true
}

// set indexes id under its own key, taking the key over from the entry
// that held it, if any, which it returns.
//
//jenga:hotpath
func (ix *pageIndex[I]) set(id I) (prev I, took bool) {
	i := ix.probe(ix.keys[id])
	if prev = ix.slots[i]; prev == 0 {
		ix.n++
	}
	ix.slots[i] = id + 1
	return prev - 1, prev != 0
}

// del removes id's entry; id must be indexed, its key unchanged since
// put.
//
//jenga:hotpath
func (ix *pageIndex[I]) del(id I) {
	if !ix.drop(id) {
		check(false, "pageIndex: entry %d is not indexed", id)
	}
}

// drop removes id's entry if its key is indexed under id (and not under
// an entry that took the key over since), reporting whether it was.
//
//jenga:hotpath
func (ix *pageIndex[I]) drop(id I) bool {
	i := ix.probe(ix.keys[id])
	if ix.slots[i] != id+1 {
		return false
	}
	// An entry further down the run moves into the hole unless its home
	// lies cyclically inside (hole, entry].
	mask := len(ix.slots) - 1
	for j := (i + 1) & mask; ix.slots[j] != 0; j = (j + 1) & mask {
		h := ix.home(ix.keys[ix.slots[j]-1])
		if (j-h)&mask >= (j-i)&mask {
			ix.slots[i] = ix.slots[j]
			i = j
		}
	}
	ix.slots[i] = 0
	ix.n--
	return true
}
