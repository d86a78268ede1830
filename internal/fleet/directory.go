// Package fleet promotes the per-replica host tier (PR 5) to a
// cluster-wide KV store and builds live request migration on the same
// transfer path.
//
// The pieces: a Directory mapping (group, block hash) → the set of
// replicas whose host tiers hold a live copy, kept consistent through
// the core.TierObserver callbacks (registered when a page is stored,
// invalidated when its live copy is evicted); and a Store that wires
// one Directory across N replica managers and runs the transfer path —
// on a local prefix miss it asks core.LookupFleet how far peers extend
// the prefix and who holds each missing block, exports the needed
// pages from those holders, and imports them into the local tier, where
// the ordinary claim path restores them. The engine charges the moved
// bytes as peer-link DMA (gpu.StepWork.PeerBytes), not PCIe.
//
// The directory is one open-addressed table of holder bitmasks keyed by
// (group index, block hash, word), with no Go map anywhere: a call turns
// its group name into an index once, by a scan of the few names seen so
// far, so no probe hashes a string, and a block registered, looked up
// or invalidated is one integer probe and a bit operation. Replica r's
// bit is bit r%64 of the cell keyed with word r/64, so any replica count
// works and a fleet of up to 64 needs one cell a block. The table
// doubles when it would pass half full and never shrinks, so once it has
// reached a fleet's working size nothing allocates.
//
// One rule keeps the fleet consistent: cross-replica state is touched
// only inside the cluster's barrier sections, where every replica is
// parked. Store.Fetch exports from each holder and imports into the
// destination inside one section, so no eviction, crash or restore runs
// between the two; that is why an invalidation acts at once and an
// export never meets a page a restore holds.
//
// Nothing here runs its own goroutines. Observer callbacks arrive from
// the replicas' shard goroutines, concurrently, so everything they
// touch is under the directory mutex; the transfer path (Store.Fetch)
// runs one call at a time and owns its scratch outright.
//
//jenga:concurrent the directory mutex serializes observer callbacks arriving from concurrent replica goroutines
package fleet

import (
	"fmt"
	"math/bits"
	"sync"
)

// Directory tracks which replicas' host tiers hold which prefix
// blocks. Lookup is deterministic: the lowest-numbered holder wins,
// regardless of registration order. Replica numbers are non-negative.
type Directory struct {
	mu sync.Mutex
	// groups are the group names seen so far; a cell names its group by
	// index.
	groups []string
	// cells is the table: linear probing from a Fibonacci hash of the
	// key, deletion by shifting the rest of the run back over the hole,
	// so there are no tombstones. n cells are in use, at most half.
	cells []dirCell
	shift uint // 64 − log₂ len(cells)
	n     int
	// words is one past the highest word any replica registered under:
	// how many cells a Lookup may have to probe.
	words int
}

// dirCell is one table cell: the holder bitmask of replicas
// [64·word, 64·word+64) for one block. group is the group index plus
// one; 0 marks a free cell. A cell in use never holds an empty mask:
// the invalidation that empties it deletes it.
type dirCell struct {
	hash  uint64
	mask  uint64
	group int32
	word  int32
}

// minCells is the table's starting size.
const minCells = 64

// NewDirectory returns an empty directory.
func NewDirectory() *Directory {
	d := &Directory{}
	d.resize(minCells)
	return d
}

// resize rehashes every cell into a table of size cells.
func (d *Directory) resize(size int) {
	old := d.cells
	d.cells = make([]dirCell, size)
	d.shift = uint(64 - bits.TrailingZeros(uint(size)))
	for _, c := range old {
		if c.group != 0 {
			d.cells[d.find(c.group, c.hash, c.word)] = c
		}
	}
}

// home is the first cell a probe for a key visits.
func (d *Directory) home(group int32, hash uint64, word int32) int {
	k := hash + uint64(group)*0x9E3779B97F4A7C15 + uint64(word)*0xC2B2AE3D27D4EB4F
	return int((k * 0x9E3779B97F4A7C15) >> d.shift)
}

// find returns the cell holding the key, or the free cell that ends its
// run when none does.
//
//jenga:hotpath
func (d *Directory) find(group int32, hash uint64, word int32) int {
	mask := len(d.cells) - 1
	for i := d.home(group, hash, word); ; i = (i + 1) & mask {
		if c := &d.cells[i]; c.group == 0 || (c.hash == hash && c.group == group && c.word == word) {
			return i
		}
	}
}

// deleteAt frees cell i, shifting the rest of its run back over the
// hole: a cell further down moves in unless its home lies cyclically
// inside (hole, cell].
func (d *Directory) deleteAt(i int) {
	mask := len(d.cells) - 1
	for j := (i + 1) & mask; d.cells[j].group != 0; j = (j + 1) & mask {
		c := &d.cells[j]
		if h := d.home(c.group, c.hash, c.word); (j-h)&mask >= (j-i)&mask {
			d.cells[i] = *c
			i = j
		}
	}
	d.cells[i] = dirCell{}
	d.n--
}

// groupIndex returns the index plus one of a group name, 0 when the
// directory has never seen it — unless add, which gives it the next
// one. Caller holds the mutex.
func (d *Directory) groupIndex(name string, add bool) int32 {
	for i, g := range d.groups {
		if g == name {
			return int32(i) + 1
		}
	}
	if !add {
		return 0
	}
	d.groups = append(d.groups, name)
	return int32(len(d.groups))
}

// Register records that replica holds a live tier copy of each block.
//
//jenga:hotpath
func (d *Directory) Register(replica int, group string, hashes []uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.words = max(d.words, replica/64+1)
	g, word, bit := d.groupIndex(group, true), int32(replica/64), uint64(1)<<(replica%64)
	for _, h := range hashes {
		i := d.find(g, h, word)
		if c := &d.cells[i]; c.group != 0 {
			c.mask |= bit
			continue
		}
		if 2*(d.n+1) > len(d.cells) {
			//jenga:alloc-ok table growth: doubling, at most log₂ of the fleet's peak cell count over a directory's life
			d.resize(2 * len(d.cells))
			i = d.find(g, h, word)
		}
		d.cells[i] = dirCell{hash: h, mask: bit, group: g, word: word}
		d.n++
	}
}

// Invalidate removes replica as a holder of each block. A group the
// directory has never seen holds nothing to remove.
//
//jenga:hotpath
func (d *Directory) Invalidate(replica int, group string, hashes []uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	g := d.groupIndex(group, false)
	if g == 0 {
		return
	}
	for _, h := range hashes {
		d.remove(replica, g, h)
	}
}

// InvalidateHolder removes every entry naming replica as a holder —
// the crash path: the replica's tier died with its process, so each of
// its entries is dangling — and returns how many it removed. It clears
// replica's bit in every cell in one walk. The walk starts just past a
// free cell, so no run wraps past its start and a deletion only ever
// shifts cells the walk has yet to reach into the one it is at.
func (d *Directory) InvalidateHolder(replica int) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := 0
	word, bit := int32(replica/64), uint64(1)<<(replica%64)
	mask := len(d.cells) - 1
	start := 0
	for d.cells[start].group != 0 {
		start++
	}
	for k := 1; k <= len(d.cells); k++ {
		i := (start + k) & mask
		for c := &d.cells[i]; c.group != 0 && c.word == word && c.mask&bit != 0; {
			n++
			if c.mask &^= bit; c.mask != 0 {
				break
			}
			d.deleteAt(i) // and look at whatever shifted into i
		}
	}
	return n
}

// Lookup returns the lowest-numbered holder of (group, hash) other
// than exclude, or false when no peer holds it. Pass a negative
// exclude to consider every holder.
//
//jenga:hotpath
func (d *Directory) Lookup(group string, hash uint64, exclude int) (int, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	g := d.groupIndex(group, false)
	if g == 0 {
		return 0, false
	}
	for w := 0; w < d.words; w++ {
		mask := d.cells[d.find(g, hash, int32(w))].mask
		if exclude >= 0 && exclude/64 == w {
			mask &^= 1 << (exclude % 64)
		}
		if mask != 0 {
			return 64*w + bits.TrailingZeros64(mask), true
		}
	}
	return 0, false
}

// remove clears replica's bit for (group index, hash). Caller holds
// the mutex.
//
//jenga:hotpath
func (d *Directory) remove(replica int, group int32, hash uint64) {
	i := d.find(group, hash, int32(replica/64))
	c := &d.cells[i]
	if c.group == 0 {
		return
	}
	if c.mask &^= 1 << (replica % 64); c.mask == 0 {
		d.deleteAt(i)
	}
}

// check verifies the table: n cells in use, at most half of them, each
// with a non-empty mask, a group the directory has seen and a word
// below words, and each where a probe for its key leads — reachable
// from its home, and the only cell of its key.
func (d *Directory) check() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	used := 0
	for _, c := range d.cells {
		if c.group != 0 {
			used++
		}
	}
	if used != d.n || 2*used > len(d.cells) {
		return fmt.Errorf("fleet: directory counts %d cells, %d of its %d are in use (at most half may be)", d.n, used, len(d.cells))
	}
	for i, c := range d.cells {
		if c.group == 0 {
			continue
		}
		switch j := d.find(c.group, c.hash, c.word); {
		case c.mask == 0:
			return fmt.Errorf("fleet: directory cell %d (%x, word %d) holds an empty mask", i, c.hash, c.word)
		case int(c.group) > len(d.groups) || c.group < 0 || c.word < 0 || int(c.word) >= d.words:
			return fmt.Errorf("fleet: directory cell %d names group %d of %d, word %d of %d", i, c.group-1, len(d.groups), c.word, d.words)
		case j == i:
		case d.cells[j].group == 0:
			return fmt.Errorf("fleet: directory cell %d (%x) is unreachable: a probe for its key stops at free cell %d", i, c.hash, j)
		default:
			return fmt.Errorf("fleet: directory cells %d and %d hold one key (%x, group %d, word %d)", j, i, c.hash, c.group-1, c.word)
		}
	}
	return nil
}
