// Package arena simulates the device memory that holds KV caches.
//
// An Arena is a contiguous region carved into fixed-size large pages —
// the compatibility layer of Jenga's two-level design (§4.1). Typed
// views re-address the same bytes as small pages of a specific layer
// type, using the paper's page-layer partition (§4.2, Fig. 7b): memory
// is partitioned into small pages first and each small page is then
// partitioned into layers, so a small page is contiguous and can move
// between layer types wholesale.
//
// Arenas can be backed (a real []byte, so tests can verify that every
// allocation maps to disjoint bytes and that kernel views address
// exactly the right slots) or unbacked (pure accounting, so experiments
// can model an 80 GB H100 without allocating 80 GB).
package arena

import (
	"encoding/binary"
	"fmt"
)

// LargePageID indexes a large page within an arena.
type LargePageID int32

// SmallPageID indexes a small page within a typed view. Small page p of
// a view with small-page size S occupies arena bytes [p*S, (p+1)*S), so
// large page L contains small pages [L*ratio, (L+1)*ratio).
type SmallPageID int32

// Arena is a simulated device-memory region for KV caches.
type Arena struct {
	buf            []byte // nil when unbacked
	largePageBytes int
	numLarge       int
}

// New creates an accounting-only arena: capacity bytes carved into
// large pages of largePageBytes (partial tail pages are unusable, as on
// a real device).
func New(capacity int64, largePageBytes int) (*Arena, error) {
	if largePageBytes <= 0 {
		return nil, fmt.Errorf("arena: non-positive large page size %d", largePageBytes)
	}
	if capacity < 0 {
		return nil, fmt.Errorf("arena: negative capacity %d", capacity)
	}
	n := capacity / int64(largePageBytes)
	if n > int64(1)<<31-1 {
		return nil, fmt.Errorf("arena: %d large pages exceed id space", n)
	}
	return &Arena{largePageBytes: largePageBytes, numLarge: int(n)}, nil
}

// NewBacked creates an arena backed by real memory so byte-level layout
// can be verified. Intended for tests and examples; capacity should be
// modest.
func NewBacked(capacity int64, largePageBytes int) (*Arena, error) {
	a, err := New(capacity, largePageBytes)
	if err != nil {
		return nil, err
	}
	a.buf = make([]byte, int64(a.numLarge)*int64(largePageBytes))
	return a, nil
}

// Backed reports whether the arena has real bytes behind it.
func (a *Arena) Backed() bool { return a.buf != nil }

// NumLargePages returns the number of large pages.
func (a *Arena) NumLargePages() int { return a.numLarge }

// UsableBytes returns the bytes addressable through large pages.
func (a *Arena) UsableBytes() int64 {
	return int64(a.numLarge) * int64(a.largePageBytes)
}

// LargeSlice returns the bytes of one large page (backed arenas only).
//
//jenga:api the large-page side of a backed arena's bytes, which SmallSlice and the kernel views re-address
func (a *Arena) LargeSlice(id LargePageID) ([]byte, error) {
	if a.buf == nil {
		return nil, fmt.Errorf("arena: LargeSlice on unbacked arena")
	}
	if id < 0 || int(id) >= a.numLarge {
		return nil, fmt.Errorf("arena: large page %d out of range [0,%d)", id, a.numLarge)
	}
	off := int64(id) * int64(a.largePageBytes)
	return a.buf[off : off+int64(a.largePageBytes)], nil
}

// View creates a typed view of the arena for one layer type.
//
// smallPageBytes must divide the large-page size; layers is the number
// of layers in the group; tokensPerPage is how many token slots each
// layer's share of a small page holds (1 for Mamba state pages).
func (a *Arena) View(name string, smallPageBytes, layers, tokensPerPage int) (*View, error) {
	switch {
	case smallPageBytes <= 0:
		return nil, fmt.Errorf("arena view %s: non-positive small page size", name)
	case a.largePageBytes%smallPageBytes != 0:
		return nil, fmt.Errorf("arena view %s: small page %d does not divide large page %d",
			name, smallPageBytes, a.largePageBytes)
	case layers <= 0:
		return nil, fmt.Errorf("arena view %s: non-positive layer count", name)
	case smallPageBytes%layers != 0:
		return nil, fmt.Errorf("arena view %s: small page %d not divisible by %d layers",
			name, smallPageBytes, layers)
	case tokensPerPage <= 0:
		return nil, fmt.Errorf("arena view %s: non-positive tokensPerPage", name)
	case (smallPageBytes/layers)%tokensPerPage != 0:
		return nil, fmt.Errorf("arena view %s: per-layer bytes %d not divisible by %d token slots",
			name, smallPageBytes/layers, tokensPerPage)
	}
	return &View{
		a:          a,
		name:       name,
		smallBytes: smallPageBytes,
		layers:     layers,
		perLayer:   smallPageBytes / layers,
		slotBytes:  smallPageBytes / layers / tokensPerPage,
		tokens:     tokensPerPage,
		ratio:      a.largePageBytes / smallPageBytes,
	}, nil
}

// View addresses the arena as small pages of one layer type.
type View struct {
	a          *Arena
	name       string
	smallBytes int
	layers     int
	perLayer   int
	slotBytes  int
	tokens     int
	ratio      int
}

// Name returns the view's layer-type name.
func (v *View) Name() string { return v.name }

// Ratio returns small pages per large page.
func (v *View) Ratio() int { return v.ratio }

// SmallPageBytes returns the small-page size.
func (v *View) SmallPageBytes() int { return v.smallBytes }

// SmallRange returns the first small-page ID inside a large page and
// the count (always Ratio).
func (v *View) SmallRange(lp LargePageID) (first SmallPageID, n int) {
	return SmallPageID(int(lp) * v.ratio), v.ratio
}

// LargeOf returns the large page containing a small page.
func (v *View) LargeOf(p SmallPageID) LargePageID {
	return LargePageID(int(p) / v.ratio)
}

// ByteRange returns the arena byte range [off, off+len) of a small page.
func (v *View) ByteRange(p SmallPageID) (off int64, length int) {
	return int64(p) * int64(v.smallBytes), v.smallBytes
}

// SmallSlice returns the bytes of one small page (backed arenas
// only) — the D2H/H2D transfer unit a tiered-memory layer copies.
func (v *View) SmallSlice(p SmallPageID) ([]byte, error) {
	if v.a.buf == nil {
		return nil, fmt.Errorf("arena view %s: SmallSlice on unbacked arena", v.name)
	}
	off, length := v.ByteRange(p)
	if off < 0 || off+int64(length) > int64(len(v.a.buf)) {
		return nil, fmt.Errorf("arena view %s: small page %d out of range", v.name, p)
	}
	return v.a.buf[off : off+int64(length)], nil
}

// Kernel builds the attention-kernel arguments of Fig. 7c for one layer
// of the group: the start offset (KV_cache_start_ptr relative to the
// arena base), the execution page stride (page_size_exec) and the small
// page IDs (pageid_exec). Existing PagedAttention kernels consume
// exactly this triple, which is the §4.2 compatibility claim.
//
//jenga:api the §4.2 kernel-compatibility proof the layout tests check the allocator against
func (v *View) Kernel(layer int, pages []SmallPageID) (KernelView, error) {
	if layer < 0 || layer >= v.layers {
		return KernelView{}, fmt.Errorf("arena view %s: layer %d out of range [0,%d)", v.name, layer, v.layers)
	}
	ids := make([]SmallPageID, len(pages))
	copy(ids, pages)
	return KernelView{
		StartOff:     int64(layer) * int64(v.perLayer),
		PageSizeExec: v.smallBytes,
		PageIDs:      ids,
		slotBytes:    v.slotBytes,
		tokens:       v.tokens,
		view:         v,
	}, nil
}

// KernelView is the per-layer argument triple passed to (simulated)
// attention kernels, plus helpers to execute reads against the arena.
type KernelView struct {
	// StartOff is KV_cache_start_ptr as an offset from the arena base.
	StartOff int64
	// PageSizeExec is the per-page stride in bytes.
	PageSizeExec int
	// PageIDs is pageid_exec: the small pages holding this layer's KV.
	PageIDs []SmallPageID

	slotBytes int
	tokens    int
	view      *View
}

// slotOffset computes the arena offset of a token slot the way a GPU
// kernel would: base + page_id*page_size_exec + start_off + slot*slot_bytes.
func (k *KernelView) slotOffset(pageIdx, slot int) (int64, error) {
	if pageIdx < 0 || pageIdx >= len(k.PageIDs) {
		return 0, fmt.Errorf("arena kernel: page index %d out of range", pageIdx)
	}
	if slot < 0 || slot >= k.tokens {
		return 0, fmt.Errorf("arena kernel: slot %d out of range [0,%d)", slot, k.tokens)
	}
	return int64(k.PageIDs[pageIdx])*int64(k.PageSizeExec) + k.StartOff + int64(slot)*int64(k.slotBytes), nil
}

// WriteFingerprint stores a token fingerprint in the slot's first 8
// bytes, simulating the KV write of a forward pass (backed arenas only).
//
//jenga:api the write half of the §4.2 layout proof (see Kernel)
func (k *KernelView) WriteFingerprint(pageIdx, slot int, fp uint64) error {
	off, err := k.slotOffset(pageIdx, slot)
	if err != nil {
		return err
	}
	if k.view.a.buf == nil {
		return fmt.Errorf("arena kernel: write on unbacked arena")
	}
	if k.slotBytes < 8 {
		return fmt.Errorf("arena kernel: slot bytes %d < 8", k.slotBytes)
	}
	binary.LittleEndian.PutUint64(k.view.a.buf[off:off+8], fp)
	return nil
}

// ReadFingerprint reads back a token fingerprint, simulating the KV
// read of an attention kernel.
//
//jenga:api the read half of the §4.2 layout proof (see Kernel)
func (k *KernelView) ReadFingerprint(pageIdx, slot int) (uint64, error) {
	off, err := k.slotOffset(pageIdx, slot)
	if err != nil {
		return 0, err
	}
	if k.view.a.buf == nil {
		return 0, fmt.Errorf("arena kernel: read on unbacked arena")
	}
	return binary.LittleEndian.Uint64(k.view.a.buf[off : off+8]), nil
}

// TokenFingerprint derives a deterministic fingerprint for (request,
// layer, position) used by layout tests: any aliasing of two distinct
// (request, layer, position) triples onto the same slot changes a read
// value and is caught.
//
//jenga:api the values the §4.2 layout proof writes and reads back (see Kernel)
func TokenFingerprint(requestID uint64, layer, position int) uint64 {
	x := requestID*0x9E3779B97F4A7C15 ^ uint64(layer)*0xBF58476D1CE4E5B9 ^ uint64(position)*0x94D049BB133111EB
	x ^= x >> 31
	x *= 0xD6E8FEB86659FD93
	x ^= x >> 29
	return x
}
