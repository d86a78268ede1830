package fleet

import (
	"math/bits"
	"math/rand"
	"strings"
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
	word, bit := int32(replica/64), uint64(1)<<(replica%64)
	for _, c := range d.cells {
		if c.group != 0 && c.word == word && c.mask&bit != 0 {
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
	for _, c := range d.cells {
		n += bits.OnesCount64(c.mask)
	}
	return n
}

// TestDirectoryCheck corrupts one property of the directory's table at
// a time, and check must name it; the untouched directory passes.
func TestDirectoryCheck(t *testing.T) {
	// build registers 20 cells' worth of blocks under two groups and two
	// words, and returns the directory with one cell in use.
	build := func() (*Directory, int) {
		d := NewDirectory()
		for r, g := range []string{"a", "b", "a", "b"} {
			d.Register(r*40, g, []uint64{1, 2, 3, 4, uint64(r) + 10})
		}
		for i, c := range d.cells {
			if c.group != 0 {
				return d, i
			}
		}
		t.Fatal("the directory holds nothing")
		return nil, 0
	}
	// freeAfter returns the first free cell after cell i.
	freeAfter := func(d *Directory, i int) int {
		for j := (i + 1) % len(d.cells); ; j = (j + 1) % len(d.cells) {
			if d.cells[j].group == 0 {
				return j
			}
		}
	}
	cases := []struct {
		name    string
		corrupt func(d *Directory, i int)
		want    string // "" means the directory must still pass
	}{
		{"intact", func(*Directory, int) {}, ""},
		{"empty mask", func(d *Directory, i int) { d.cells[i].mask = 0 }, "empty mask"},
		{"unreachable cell", func(d *Directory, i int) {
			j := freeAfter(d, i)
			d.cells[j], d.cells[i] = d.cells[i], dirCell{}
		}, "unreachable"},
		{"two cells for one key", func(d *Directory, i int) {
			d.cells[freeAfter(d, i)] = d.cells[i]
			d.n++
		}, "hold one key"},
		{"unknown group", func(d *Directory, i int) { d.groups = d.groups[:0] }, "names group"},
		{"over the load bound", func(d *Directory, _ int) {
			// The same 20 cells in a table of the next power of two
			// above their count: more than half full.
			size := 1
			for size <= d.n {
				size <<= 1
			}
			d.resize(size)
		}, "at most half"},
		{"count", func(d *Directory, _ int) { d.n++ }, "counts"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			d, i := build()
			c.corrupt(d, i)
			err := d.check()
			switch {
			case c.want == "" && err != nil:
				t.Fatalf("sound directory reported: %v", err)
			case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
				t.Fatalf("got %v, want an error naming %q", err, c.want)
			}
		})
	}
}

// TestDirectoryGrowsAndCrashes: registering past the starting table
// doubles it with every entry still found, and a crash's holder-wide
// wipe — which deletes cells as it walks, shifting their runs back —
// leaves exactly the other holders' entries. Random hashes make the
// runs that sequential ones, spread evenly by the table's multiply,
// would not.
func TestDirectoryGrowsAndCrashes(t *testing.T) {
	d := NewDirectory()
	rng := rand.New(rand.NewSource(3))
	hashes := make([]uint64, 10*minCells)
	for i := range hashes {
		hashes[i] = rng.Uint64()
		d.Register(0, "g", hashes[i:i+1])
		if i%3 == 0 {
			d.Register(1, "g", hashes[i:i+1])
		}
	}
	if len(d.cells) <= minCells {
		t.Fatalf("%d cells for %d blocks: the table never grew", len(d.cells), len(hashes))
	}
	if err := d.check(); err != nil {
		t.Fatal(err)
	}
	if got := d.InvalidateHolder(0); got != len(hashes) {
		t.Fatalf("crash removed %d entries, want %d", got, len(hashes))
	}
	if err := d.check(); err != nil {
		t.Fatal(err)
	}
	for i, h := range hashes {
		r, ok := d.Lookup("g", h, -1)
		if want := i%3 == 0; ok != want || (ok && r != 1) {
			t.Fatalf("block %d: Lookup = %d/%v after the crash, want holder 1: %v", i, r, ok, want)
		}
	}
}
