package engine

import (
	"math/bits"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"jenga/internal/sched"
	"jenga/internal/workload"
)

// stepProbe runs check at the start of every step's scheduling, after
// the step's arrivals were processed.
type stepProbe struct {
	sched.Scheduler
	check func()
}

func (p stepProbe) PrefillBudget(v *sched.View, total int) sched.Split {
	p.check()
	return p.Scheduler.PrefillBudget(v, total)
}

// TestPendingHoldsNoTokens: in a Run with arrivals spread over time,
// fan-out roots among them, a request holds no run and no prompt tokens
// until it arrives — it is its caller's header in Run's batch — and from
// then on its one buffer, filled with exactly its recipe's tokens: after
// every step the engine holds one run and one prompt buffer per arrived
// request (a fork's branches each count the root's buffer they read),
// and once drained none.
func TestPendingHoldsNoTokens(t *testing.T) {
	spec := miniFullSpec()
	g := workload.NewGen(17)
	reqs := append(g.MMMUPro(40, 64), g.ShareGPT(160)...)
	for i := range reqs {
		reqs[i].Truncate(256 + 64*(i%8))
		reqs[i].OutputLen = 4 + i%24
		if i%10 == 0 {
			reqs[i].Fanout, reqs[i].ForkAfter = 3, 2
		}
	}
	g.PoissonArrivals(reqs, 300)
	var e *Engine
	steps, sawPending, sawFork := 0, false, false
	check := func() {
		steps++
		sawPending = sawPending || e.batch.len() > 0
		if n := e.pending.len(); n > 0 {
			t.Fatalf("step %d: %d requests of the batch hold a run before they arrive", e.step, n)
		}
		arrived := 0
		for _, q := range [2][]*run{e.running.items(), e.waiting.items()} {
			for _, r := range q {
				arrived++
				sawFork = sawFork || r.promptShared
				want, _ := r.req.OwnTokens(r.req.OwnLen(), nil)
				if !r.ownsPrompt() || !slices.Equal(r.seq.Tokens, want) {
					t.Fatalf("step %d: arrived request %d holds %d prompt tokens, want its %d filled", e.step, r.req.ID, len(r.seq.Tokens), len(want))
				}
			}
		}
		if held := e.prompts.lent - e.prompts.back; held != arrived {
			t.Fatalf("step %d: %d prompt buffers held for %d arrived requests", e.step, held, arrived)
		}
		if held := e.runs.taken - e.runs.returned - len(e.runs.spent); held != arrived {
			t.Fatalf("step %d: %d runs held for %d arrived requests", e.step, held, arrived)
		}
	}
	var err error
	e, err = New(Config{
		Spec: spec, Device: smallDevice(), Manager: jengaFor(t, spec, 8<<20, true),
		MaxBatchTokens: 512, Scheduler: stepProbe{sched.NewFCFS(), check},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Finished < len(reqs) || !sawPending || !sawFork || steps < 100 {
		t.Fatalf("finished %d of %d over %d steps (pending seen %v, fork seen %v): the run does not cover the case", res.Finished, len(reqs), steps, sawPending, sawFork)
	}
	if p := &e.prompts; p.lent != p.back {
		t.Fatalf("drained: %d prompt buffers lent, %d back", p.lent, p.back)
	}
}

// TestPromptFillAllocs: the prompt pool allocates by the class, not by
// the request. 1,600 requests arriving at t=0, their own parts spread
// over six power-of-two classes, are filled from at most eight slabs —
// one per class, sized for the step's arrivals in it — each the class's
// token array and its free list; a lone arrival's slab holds promptSlab
// buffers, or in a large class only what fits in slabTokens; and once
// every class has buffers, requests that arrive, fill, finish and return
// theirs allocate nothing.
func TestPromptFillAllocs(t *testing.T) {
	spec := miniFullSpec()
	newEngine := func() *Engine {
		e, err := New(Config{Spec: spec, Device: smallDevice(), Manager: jengaFor(t, spec, 64<<20, false), MaxBatchTokens: 2048})
		if err != nil {
			t.Fatal(err)
		}
		e.SetRetireSink(func(RequestMetrics) {})
		return e
	}
	reqs := workload.NewGen(3).ShareGPT(1600)
	classes := map[int]bool{}
	for i := range reqs {
		reqs[i].Truncate(1024)
		reqs[i].Arrival = 0
		classes[bits.Len(uint(reqs[i].OwnLen()-1))] = true
	}

	t.Run("burst", func(t *testing.T) {
		if testing.Short() {
			t.Skip("allocation accounting is not meaningful under -short/-race runs")
		}
		e := newEngine()
		for i := range reqs {
			if err := e.Submit(&reqs[i]); err != nil {
				t.Fatal(err)
			}
		}
		arrived := make([]*run, 0, len(reqs))
		// No collection inside the window: its bookkeeping would count.
		runtime.GC()
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for e.pending.len() > 0 {
			r := e.pending.popFront()
			e.fillPrompt(r)
			arrived = append(arrived, r)
		}
		runtime.ReadMemStats(&after)
		if slabs := e.prompts.slabs; slabs > 8 || slabs != len(classes) {
			t.Fatalf("%d arrivals in %d classes took %d slabs, want one per class and at most 8", len(reqs), len(classes), slabs)
		}
		// Each slab is two objects, its tokens and its class's list; the
		// count is the process's, so a few of the runtime's own may land
		// in the window too — a per-request allocation would be 1,600.
		if allocs, want := after.Mallocs-before.Mallocs, uint64(2*e.prompts.slabs+8); allocs > want {
			t.Fatalf("filling %d arrivals allocated %d objects, want at most %d (each slab's tokens and its class's list)", len(reqs), allocs, want)
		}
		for _, r := range arrived {
			if want, _ := r.req.OwnTokens(r.req.OwnLen(), nil); !slices.Equal(r.seq.Tokens, want) {
				t.Fatalf("request %d was filled with other tokens than its recipe's", r.req.ID)
			}
		}
	})

	t.Run("slab size", func(t *testing.T) {
		e := newEngine()
		docs := workload.NewGen(9).LongDocQA(2)
		docs[0].Truncate(100)  // class 7: eight 512-byte buffers
		docs[1].Truncate(6000) // class 13: eight would be 256 KB; slabTokens holds two
		for i := range docs {
			docs[i].OutputLen = 2
			if err := e.Submit(&docs[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Drain(); err != nil {
			t.Fatal(err)
		}
		if small, large := cap(e.prompts.free[7]), cap(e.prompts.free[13]); small != promptSlab || large != 2 {
			t.Fatalf("a lone arrival made %d buffers of 128 tokens and %d of 8,192, want %d and 2", small, large, promptSlab)
		}
	})

	t.Run("steady", func(t *testing.T) {
		if testing.Short() {
			t.Skip("allocation accounting is not meaningful under -short/-race runs")
		}
		e := newEngine()
		next := int64(1 << 20)
		serve := func(i int) {
			req := reqs[i%len(reqs)]
			req.ID, req.Arrival, req.OutputLen = next, e.Clock(), 2
			next++
			if err := e.Submit(&req); err != nil {
				t.Fatal(err)
			}
			for e.Live() {
				if err := e.StepOnce(); err != nil {
					t.Fatal(err)
				}
			}
		}
		for i := 0; i < 400; i++ {
			serve(i)
		}
		slabs, i := e.prompts.slabs, 400
		if allocs := testing.AllocsPerRun(200, func() { serve(i); i++ }); allocs != 0 {
			t.Fatalf("a steady-state arrival allocates %.2f objects, want 0", allocs)
		}
		if e.prompts.slabs != slabs {
			t.Fatalf("steady-state arrivals took %d more slabs", e.prompts.slabs-slabs)
		}
	})
}
