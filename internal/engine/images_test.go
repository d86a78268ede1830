package engine

import (
	"testing"
	"unsafe"

	"jenga/internal/workload"
)

// TestImagesCountedAtSubmit: a run carries its prompt's image-token
// count from Submit — the prompt is borrowed and never changes, so
// schedulePrefill reads the count on every prefill chunk instead of
// walking the whole prompt again — and the count is the prompt's.
func TestImagesCountedAtSubmit(t *testing.T) {
	spec := miniVLMSpec()
	e, err := New(Config{Spec: spec, Device: smallDevice(), Manager: jengaFor(t, spec, 64<<20, true)})
	if err != nil {
		t.Fatal(err)
	}
	reqs := append(workload.NewGen(3).MMMUPro(3, 64), workload.NewGen(4).ShareGPT(2)...)
	for i := range reqs {
		reqs[i].ID = int64(i)
		if err := e.Submit(&reqs[i]); err != nil {
			t.Fatal(err)
		}
	}
	withImages := 0
	for _, r := range e.pending.items() {
		if want := r.req.PromptImages(); int(r.images) != want {
			t.Errorf("request %d carries %d image tokens, its prompt holds %d", r.req.ID, r.images, want)
		}
		if r.images > 0 {
			withImages++
		}
	}
	if withImages != 3 {
		t.Fatalf("%d of %d submitted runs carry image tokens, want the 3 image requests", withImages, len(reqs))
	}
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
}

// TestRunSize pins the run record: the engine allocates runs 64 to a
// slab, and 8 bytes more per run moved the slab up a size class — a
// quarter of a megabyte on hetero_churn, which submits its 6,000
// requests up front.
func TestRunSize(t *testing.T) {
	if got := unsafe.Sizeof(run{}); got != 336 {
		t.Errorf("run is %d bytes, want 336", got)
	}
}
