package engine

import (
	"reflect"
	"testing"
	"unsafe"

	"jenga/internal/model"
	"jenga/internal/workload"
)

// TestImagesCountedAtSubmit: a run carries its prompt's image-token
// count from Submit — the prompt is borrowed and never changes, so
// schedulePrefill reads the count on every prefill chunk instead of
// walking the whole prompt again — and the count is the prompt's. Only
// a spec with a vision encoder reads the count, so a text spec's Submit
// skips the walk: its runs carry 0 whatever their prompts hold, and the
// records it serves are those of an engine whose runs carry the real
// counts.
func TestImagesCountedAtSubmit(t *testing.T) {
	reqs := func() []workload.Request {
		reqs := append(workload.NewGen(3).MMMUPro(3, 64), workload.NewGen(4).ShareGPT(2)...)
		for i := range reqs {
			reqs[i].ID = int64(i)
		}
		return reqs
	}
	submit := func(spec *model.Spec, reqs []workload.Request) *Engine {
		e, err := New(Config{Spec: spec, Device: smallDevice(), Manager: jengaFor(t, spec, 64<<20, true)})
		if err != nil {
			t.Fatal(err)
		}
		for i := range reqs {
			if err := e.Submit(&reqs[i]); err != nil {
				t.Fatal(err)
			}
		}
		return e
	}
	serve := func(e *Engine) []RequestMetrics {
		if err := e.Drain(); err != nil {
			t.Fatal(err)
		}
		return e.result().PerRequest
	}

	t.Run("vlm", func(t *testing.T) {
		e := submit(miniVLMSpec(), reqs())
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
			t.Fatalf("%d of %d submitted runs carry image tokens, want the 3 image requests", withImages, len(e.pending.items()))
		}
		serve(e)
	})

	t.Run("text", func(t *testing.T) {
		skipped := submit(miniFullSpec(), reqs())
		counted := submit(miniFullSpec(), reqs())
		withImages := 0
		for i, r := range skipped.pending.items() {
			if r.images != 0 {
				t.Errorf("a text spec's request %d carries %d image tokens: Submit walked its prompt", r.req.ID, r.images)
			}
			if n := r.req.PromptImages(); n > 0 {
				withImages++
				counted.pending.items()[i].images = int32(n)
			}
		}
		if withImages != 3 {
			t.Fatalf("%d prompts hold image tokens, want the 3 image requests", withImages)
		}
		got, want := serve(skipped), serve(counted)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("a text spec served %+v without the image counts, %+v with them", got, want)
		}
		if len(got) != 5 {
			t.Fatalf("%d records served, want 5", len(got))
		}
	})
}

// TestRunSize pins the run record: a stream allocates runs 64 to a
// slab, and Run all of its requests' in one (hetero_churn submits its
// 6,000 up front). The prompt's two borrowed parts cost a slice header
// each in the request and in the sequence, and the own part's recipe
// (workload.Content) 32 bytes in the request; 416 bytes times 64 runs
// fits its size class within 3%.
func TestRunSize(t *testing.T) {
	if got := unsafe.Sizeof(run{}); got != 416 {
		t.Errorf("run is %d bytes, want 416", got)
	}
}
