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
// The directory is one flat map whose value is a holder bitmask: a
// block registered, looked up or invalidated is one probe of a struct
// key and a bit operation, and allocates nothing beyond the map's own
// growth. Replica r's bit is bit r%64 of the cell keyed with word r/64,
// so any replica count works and a fleet of up to 64 needs one cell a
// block.
//
// Nothing here runs its own goroutines. Observer callbacks arrive from
// the replicas' shard goroutines, concurrently, so everything they
// touch is under the directory mutex; the transfer path (Store.Fetch)
// runs only in the cluster's barrier sections, one call at a time, and
// owns its scratch outright.
//
//jenga:concurrent the directory mutex serializes observer callbacks arriving from concurrent replica goroutines
package fleet

import (
	"math/bits"
	"sync"
)

// Directory tracks which replicas' host tiers hold which prefix
// blocks. Lookup is deterministic: the lowest-numbered holder wins,
// regardless of registration order. Pin defers invalidations for a
// replica while one of its exports is in flight, so a transfer source
// never vanishes from the directory mid-copy (the pinned-holder
// exclusion invariant, fuzzed in FuzzFleetDirectory).
type Directory struct {
	mu sync.Mutex
	// holders maps (group, hash, word) → the holder bitmask of replicas
	// [64·word, 64·word+64); a cell whose mask empties is deleted.
	holders map[dirKey]uint64
	// words is one past the highest word any replica registered under:
	// how many cells a Lookup may have to probe.
	words int
	pins  map[int]int // replica → pin depth
	// deferred holds invalidations that arrived while their replica
	// was pinned; they apply in arrival order at the final Unpin.
	deferred map[int][]deferredInv
}

// dirKey names one directory cell: a block and a 64-replica word.
type dirKey struct {
	group string
	hash  uint64
	word  int
}

// cell returns the key and mask bit of replica's entry for a block.
func cell(replica int, group string, hash uint64) (dirKey, uint64) {
	return dirKey{group, hash, replica / 64}, 1 << (replica % 64)
}

// deferredInv is one pin-deferred invalidation: a single block, or —
// for a crash arriving mid-export — the holder's entire entry set.
type deferredInv struct {
	group string
	hash  uint64
	all   bool
}

// NewDirectory returns an empty directory.
func NewDirectory() *Directory {
	return &Directory{
		holders:  make(map[dirKey]uint64),
		pins:     make(map[int]int),
		deferred: make(map[int][]deferredInv),
	}
}

// Register records that replica holds a live tier copy of each block.
//
//jenga:hotpath
func (d *Directory) Register(replica int, group string, hashes []uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.words = max(d.words, replica/64+1)
	for _, h := range hashes {
		k, bit := cell(replica, group, h)
		d.holders[k] |= bit
	}
}

// Invalidate removes replica as a holder of each block. While the
// replica is pinned (an export in flight) the removal is deferred to
// Unpin so concurrent tier eviction cannot drop a transfer source
// from under a reader.
//
//jenga:hotpath
func (d *Directory) Invalidate(replica int, group string, hashes []uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.pins[replica] > 0 {
		for _, h := range hashes {
			d.deferred[replica] = append(d.deferred[replica], deferredInv{group: group, hash: h})
		}
		return
	}
	for _, h := range hashes {
		d.remove(replica, group, h)
	}
}

// InvalidateHolder removes every entry naming replica as a holder —
// the crash path: the replica's tier died with its process, so each
// of its entries is dangling. While the replica is pinned (an export
// in flight) the wipe is deferred to the final Unpin, ordered after
// any invalidations deferred before it. Returns the number of entries
// removed immediately (a deferred wipe reports 0 and applies later).
func (d *Directory) InvalidateHolder(replica int) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.pins[replica] > 0 {
		d.deferred[replica] = append(d.deferred[replica], deferredInv{all: true})
		return 0
	}
	return d.removeHolder(replica)
}

// removeHolder clears replica's bit in every cell in one walk,
// returning the entry count removed. Caller holds the mutex.
func (d *Directory) removeHolder(replica int) int {
	n := 0
	word, bit := replica/64, uint64(1)<<(replica%64)
	//jenga:order-ok each cell is edited independently and exactly once; the count is a sum
	for k, mask := range d.holders {
		if k.word != word || mask&bit == 0 {
			continue
		}
		n++
		if mask &^= bit; mask == 0 {
			delete(d.holders, k)
		} else {
			d.holders[k] = mask
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
	for w := 0; w < d.words; w++ {
		mask := d.holders[dirKey{group, hash, w}]
		if exclude >= 0 && exclude/64 == w {
			mask &^= 1 << (exclude % 64)
		}
		if mask != 0 {
			return 64*w + bits.TrailingZeros64(mask), true
		}
	}
	return 0, false
}

// Pin marks replica as an in-flight transfer source: invalidations
// against it are deferred until the matching Unpin. Pins nest.
func (d *Directory) Pin(replica int) {
	d.mu.Lock()
	d.pins[replica]++
	d.mu.Unlock()
}

// Unpin releases one Pin; the last release applies any deferred
// invalidations.
func (d *Directory) Unpin(replica int) {
	d.mu.Lock()
	defer d.mu.Unlock()
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
			d.removeHolder(replica)
		} else {
			d.remove(replica, inv.group, inv.hash)
		}
	}
	delete(d.deferred, replica)
}

// HolderLen returns the number of live entries naming replica as a
// holder — the "no directory entry points at a dead holder" recovery
// invariant's test surface.
func (d *Directory) HolderLen(replica int) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := 0
	word, bit := replica/64, uint64(1)<<(replica%64)
	for k, mask := range d.holders {
		if k.word == word && mask&bit != 0 {
			n++
		}
	}
	return n
}

// Len returns the number of live (group, hash, holder) entries —
// test and stats surface.
func (d *Directory) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := 0
	//jenga:order-ok a sum over all cells
	for _, mask := range d.holders {
		n += bits.OnesCount64(mask)
	}
	return n
}

// remove clears replica's bit for (group, hash). Caller holds the
// mutex.
//
//jenga:hotpath
func (d *Directory) remove(replica int, group string, hash uint64) {
	k, bit := cell(replica, group, hash)
	mask, ok := d.holders[k]
	if !ok {
		return
	}
	if mask &^= bit; mask == 0 {
		delete(d.holders, k)
	} else {
		d.holders[k] = mask
	}
}
