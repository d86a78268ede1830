package fleet

import (
	"math/bits"
	"testing"
)

func TestDirectoryLowestHolderWins(t *testing.T) {
	for _, order := range [][]int{{0, 1, 2}, {2, 1, 0}, {1, 2, 0}} {
		d := NewDirectory()
		for _, r := range order {
			d.Register(r, "g", []uint64{42})
		}
		if got, ok := d.Lookup("g", 42, -1); !ok || got != 0 {
			t.Fatalf("order %v: Lookup = %d/%v, want 0/true", order, got, ok)
		}
		if got, ok := d.Lookup("g", 42, 0); !ok || got != 1 {
			t.Fatalf("order %v: Lookup excl 0 = %d/%v, want 1/true", order, got, ok)
		}
	}
}

func TestDirectoryInvalidate(t *testing.T) {
	d := NewDirectory()
	d.Register(0, "g", []uint64{1, 2})
	d.Register(1, "g", []uint64{1})
	d.Invalidate(0, "g", []uint64{1})
	if got, ok := d.Lookup("g", 1, -1); !ok || got != 1 {
		t.Fatalf("Lookup = %d/%v, want 1/true", got, ok)
	}
	d.Invalidate(1, "g", []uint64{1})
	if _, ok := d.Lookup("g", 1, -1); ok {
		t.Fatal("hash 1 still has holders")
	}
	if got, ok := d.Lookup("g", 2, -1); !ok || got != 0 {
		t.Fatalf("hash 2 Lookup = %d/%v, want 0/true", got, ok)
	}
	if d.len() != 1 {
		t.Fatalf("Len = %d, want 1", d.len())
	}
	// Double registration is idempotent.
	d.Register(0, "g", []uint64{2})
	if d.len() != 1 {
		t.Fatalf("Len after re-register = %d, want 1", d.len())
	}
}

func TestDirectoryPinDefersInvalidation(t *testing.T) {
	d := NewDirectory()
	d.Register(0, "g", []uint64{7})
	d.Pin(0)
	d.Invalidate(0, "g", []uint64{7})
	// Pinned: the entry survives (an export may be reading it).
	if got, ok := d.Lookup("g", 7, -1); !ok || got != 0 {
		t.Fatalf("pinned Lookup = %d/%v, want 0/true", got, ok)
	}
	// Nested pins: only the last Unpin applies the deferral.
	d.Pin(0)
	d.Unpin(0)
	if _, ok := d.Lookup("g", 7, -1); !ok {
		t.Fatal("entry vanished while still pinned once")
	}
	d.Unpin(0)
	if _, ok := d.Lookup("g", 7, -1); ok {
		t.Fatal("deferred invalidation never applied")
	}
	// Unpin without a pin is a no-op.
	d.Unpin(0)
	// Invalidation of an unpinned replica applies immediately even
	// while another replica is pinned.
	d.Register(0, "g", []uint64{8})
	d.Register(1, "g", []uint64{8})
	d.Pin(1)
	d.Invalidate(0, "g", []uint64{8})
	if got, ok := d.Lookup("g", 8, -1); !ok || got != 1 {
		t.Fatalf("Lookup = %d/%v, want 1/true", got, ok)
	}
	d.Unpin(1)
}

// holderLen returns the number of live entries naming replica as a
// holder — the "no directory entry points at a dead holder" recovery
// invariant.
func (d *Directory) holderLen(replica int) int {
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

// len returns the number of live (group, hash, holder) entries.
func (d *Directory) len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := 0
	//jenga:order-ok a sum over all cells
	for _, mask := range d.holders {
		n += bits.OnesCount64(mask)
	}
	return n
}
