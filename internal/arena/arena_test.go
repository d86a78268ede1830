package arena

import (
	"testing"
	"testing/quick"
)

func TestNewErrors(t *testing.T) {
	if _, err := New(100, 0); err == nil {
		t.Error("zero page size should error")
	}
	if _, err := New(-1, 64); err == nil {
		t.Error("negative capacity should error")
	}
}

func TestPartialTailPageUnusable(t *testing.T) {
	a, err := New(1000, 256)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumLargePages() != 3 {
		t.Errorf("pages = %d, want 3", a.NumLargePages())
	}
	if a.UsableBytes() != 768 {
		t.Errorf("usable = %d, want 768", a.UsableBytes())
	}
}

func TestLargeSlice(t *testing.T) {
	a, err := NewBacked(1024, 256)
	if err != nil {
		t.Fatal(err)
	}
	s, err := a.LargeSlice(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(s) != 256 {
		t.Errorf("slice len = %d, want 256", len(s))
	}
	if _, err := a.LargeSlice(4); err == nil {
		t.Error("out-of-range large page should error")
	}
	u, _ := New(1024, 256)
	if _, err := u.LargeSlice(0); err == nil {
		t.Error("unbacked LargeSlice should error")
	}
}

// fig6View builds the paper's Fig. 6/7 example: large page 768, text
// view 384 (3 layers × 128), image view 256 (2 layers × 128),
// tokens_per_page = 1.
func fig6Views(t *testing.T, capacity int64) (*Arena, *View, *View) {
	t.Helper()
	a, err := NewBacked(capacity, 768)
	if err != nil {
		t.Fatal(err)
	}
	text, err := a.View("text", 384, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	img, err := a.View("image", 256, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	return a, text, img
}

func TestViewGeometryPaperExample(t *testing.T) {
	_, text, img := fig6Views(t, 4*768)
	if text.Ratio() != 2 || img.Ratio() != 3 {
		t.Errorf("ratios = %d,%d want 2,3", text.Ratio(), img.Ratio())
	}
	// Fig. 6: large page 1 owned by text → small pages P2, P3.
	first, n := text.SmallRange(1)
	if first != 2 || n != 2 {
		t.Errorf("text SmallRange(1) = %d,%d want 2,2", first, n)
	}
	// Large page 2 owned by image → small pages P6, P7, P8.
	first, n = img.SmallRange(2)
	if first != 6 || n != 3 {
		t.Errorf("img SmallRange(2) = %d,%d want 6,3", first, n)
	}
	if img.LargeOf(7) != 2 {
		t.Errorf("LargeOf(7) = %d, want 2", img.LargeOf(7))
	}
	off, length := img.ByteRange(6)
	if off != 6*256 || length != 256 {
		t.Errorf("ByteRange(6) = %d,%d", off, length)
	}
}

func TestViewErrors(t *testing.T) {
	a, _ := New(768*4, 768)
	cases := []struct {
		name                        string
		small, layers, tokensPerPge int
	}{
		{"non-divisor small", 500, 2, 1},
		{"zero small", 0, 2, 1},
		{"zero layers", 384, 0, 1},
		{"layers not dividing", 384, 5, 1},
		{"zero tokens", 384, 3, 0},
		{"tokens not dividing", 384, 3, 7},
	}
	for _, c := range cases {
		if _, err := a.View("x", c.small, c.layers, c.tokensPerPge); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

// TestKernelViewFig7c reproduces Fig. 7c: layer cross.1 (second layer of
// the image group) with pages [0,4,12,14] must address arena offsets
// pageID*256 + 128.
func TestKernelViewFig7c(t *testing.T) {
	a, err := NewBacked(768*8, 768)
	if err != nil {
		t.Fatal(err)
	}
	img, err := a.View("image", 256, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	kv, err := img.Kernel(1, []SmallPageID{0, 4, 12, 14})
	if err != nil {
		t.Fatal(err)
	}
	if kv.StartOff != 128 {
		t.Errorf("start offset = %d, want 128", kv.StartOff)
	}
	if kv.PageSizeExec != 256 {
		t.Errorf("page size exec = %d, want 256", kv.PageSizeExec)
	}
	for i, want := range []int64{0*256 + 128, 4*256 + 128, 12*256 + 128, 14*256 + 128} {
		off, err := kv.slotOffset(i, 0)
		if err != nil {
			t.Fatal(err)
		}
		if off != want {
			t.Errorf("page %d offset = %d, want %d", i, off, want)
		}
	}
	if _, err := img.Kernel(2, nil); err == nil {
		t.Error("layer out of range should error")
	}
}

func TestFingerprintRoundTrip(t *testing.T) {
	_, text, img := fig6Views(t, 8*768)
	tkv, err := text.Kernel(0, []SmallPageID{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	ikv, err := img.Kernel(1, []SmallPageID{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	// Text layer 0 page 2 starts at byte 768; image layer 1 page 0 at
	// byte 128 — disjoint, so writes must not interfere.
	if err := tkv.WriteFingerprint(0, 0, 0xAAAA); err != nil {
		t.Fatal(err)
	}
	if err := ikv.WriteFingerprint(0, 0, 0xBBBB); err != nil {
		t.Fatal(err)
	}
	got, err := tkv.ReadFingerprint(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0xAAAA {
		t.Errorf("text fingerprint = %#x, want 0xAAAA", got)
	}
	got, err = ikv.ReadFingerprint(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0xBBBB {
		t.Errorf("image fingerprint = %#x, want 0xBBBB", got)
	}
}

func TestFingerprintErrors(t *testing.T) {
	_, text, _ := fig6Views(t, 4*768)
	kv, _ := text.Kernel(0, []SmallPageID{0})
	if err := kv.WriteFingerprint(1, 0, 1); err == nil {
		t.Error("page index out of range should error")
	}
	if err := kv.WriteFingerprint(0, 1, 1); err == nil {
		t.Error("slot out of range should error")
	}
	if _, err := kv.ReadFingerprint(-1, 0); err == nil {
		t.Error("negative page index should error")
	}
	u, _ := New(4*768, 768)
	uv, _ := u.View("text", 384, 3, 1)
	ukv, _ := uv.Kernel(0, []SmallPageID{0})
	if err := ukv.WriteFingerprint(0, 0, 1); err == nil {
		t.Error("write on unbacked arena should error")
	}
	if _, err := ukv.ReadFingerprint(0, 0); err == nil {
		t.Error("read on unbacked arena should error")
	}
}

// TestKernelLayerIsolation writes a distinct fingerprint to every
// (layer, page, slot) of a multi-token view and verifies all of them:
// any overlap between layers or pages would corrupt a read.
func TestKernelLayerIsolation(t *testing.T) {
	a, err := NewBacked(16*1024, 1024)
	if err != nil {
		t.Fatal(err)
	}
	// 4 layers × 4 token slots × 64 bytes = 1024-byte small pages.
	v, err := a.View("g", 1024, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	pages := []SmallPageID{0, 3, 7, 9}
	kvs := make([]KernelView, v.layers)
	for l := 0; l < v.layers; l++ {
		kv, err := v.Kernel(l, pages)
		if err != nil {
			t.Fatal(err)
		}
		kvs[l] = kv
		for pi := range pages {
			for s := 0; s < 4; s++ {
				if err := kv.WriteFingerprint(pi, s, TokenFingerprint(uint64(l), pi, s)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for l := 0; l < v.layers; l++ {
		for pi := range pages {
			for s := 0; s < 4; s++ {
				got, err := kvs[l].ReadFingerprint(pi, s)
				if err != nil {
					t.Fatal(err)
				}
				if want := TokenFingerprint(uint64(l), pi, s); got != want {
					t.Errorf("layer %d page %d slot %d: got %#x want %#x", l, pi, s, got, want)
				}
			}
		}
	}
}

func TestTokenFingerprintDistinct(t *testing.T) {
	prop := func(r1, r2 uint32, l1, l2 uint8, p1, p2 uint16) bool {
		a := TokenFingerprint(uint64(r1), int(l1), int(p1))
		b := TokenFingerprint(uint64(r2), int(l2), int(p2))
		same := r1 == r2 && l1 == l2 && p1 == p2
		return same == (a == b)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestSmallPageDisjointness: distinct small pages of any view map to
// non-overlapping byte ranges (DESIGN.md invariant 1).
func TestSmallPageDisjointness(t *testing.T) {
	a, _ := New(768*64, 768)
	text, _ := a.View("text", 384, 3, 1)
	prop := func(p1, p2 uint8) bool {
		a1, l1 := text.ByteRange(SmallPageID(p1))
		a2, _ := text.ByteRange(SmallPageID(p2))
		if p1 == p2 {
			return a1 == a2
		}
		lo, hi := a1, a2
		if lo > hi {
			lo, hi = hi, lo
		}
		return lo+int64(l1) <= hi
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}
