package engine

import (
	"fmt"
	"math"

	"jenga/internal/core"
	"jenga/internal/debug"
	"jenga/internal/workload"
)

// Run ownership. A run holds its request by value — Submit copies the
// caller's header, MigrateIn the record's — so a request costs the host
// no object of its own, and the run itself comes from an engine-local
// free list filled a slab at a time: submitting N requests up front
// costs N/runSlab objects, a stream costs what its in-flight high-water
// mark does. A run that leaves the engine (retire, MigrateOut, CrashOut,
// reset) is parked on spent and rejoins the free list, zeroed, at the
// next step boundary — never inside the step that ended it, where
// stepScratch and committers may still point at it and a fork later in
// the same commit loop would be handed it.

// runSlab is how many runs one free-list miss allocates.
const runSlab = 64

// runPool is the engine's run free list; it survives Reset.
type runPool struct {
	free  []*run
	spent []*run
	// slabs counts free-list misses; taken and returned count runs
	// handed out and runs back on free (the jengadebug balance).
	slabs, taken, returned int
}

// takeRun returns a run for the caller to overwrite whole (*r = run{…}):
// a zeroed one, or under jengadebug whatever scribbleRun left in it.
//
//jenga:hotpath
func (e *Engine) takeRun() *run {
	p := &e.runs
	if len(p.free) == 0 {
		//jenga:alloc-ok free-list miss: one slab per runSlab runs in flight at once, so misses are bounded by the in-flight high-water mark, not by requests served
		slab := make([]run, runSlab)
		for i := range slab {
			p.free = append(p.free, &slab[runSlab-1-i])
		}
		p.slabs++
	}
	r := p.free[len(p.free)-1]
	p.free[len(p.free)-1] = nil
	p.free = p.free[:len(p.free)-1]
	p.taken++
	return r
}

// dropRun parks a run that has left the engine until the step boundary.
//
//jenga:hotpath
func (e *Engine) dropRun(r *run) { e.runs.spent = append(e.runs.spent, r) }

// recycleRuns is the step boundary: no step-local list is in use, so
// every parked run rejoins the free list. It drops its references (the
// prompt, the token buffer's array) as it goes.
//
//jenga:hotpath
func (e *Engine) recycleRuns() {
	p := &e.runs
	for i, r := range p.spent {
		if debug.On {
			scribbleRun(r)
		} else {
			*r = run{}
		}
		p.free = append(p.free, r)
		p.spent[i] = nil
	}
	p.returned += len(p.spent)
	p.spent = p.spent[:0]
}

// scribbleRun fills a returned run with values no live run holds, so a
// stale pointer reads a request that cannot exist (a moved golden, an
// index out of range) instead of the slot's next tenant.
func scribbleRun(r *run) {
	*r = run{
		carried: carried{
			req:          workload.Request{ID: math.MinInt64, Arrival: math.MinInt64, OutputLen: math.MinInt, Fanout: math.MinInt},
			state:        -1,
			decodesDone:  math.MinInt,
			everComputed: math.MinInt,
			firstToken:   math.MinInt64,
			images:       math.MinInt32,
		},
		seq:           core.Sequence{ID: math.MinInt64, PromptLen: math.MinInt},
		computed:      math.MinInt,
		pendingTarget: math.MinInt,
		scheduledStep: math.MinInt,
	}
}

// checkHandBack is the jengadebug conservation check at Drain and
// reset, when nothing is live: every run taken is back on the free
// list, every Out buffer lent is back (returned, dropped at the cap or
// handed on by MigrateOut), and every retired request's prompt went
// one of two ways.
func (e *Engine) checkHandBack(when string) {
	if !debug.On {
		return
	}
	if p := &e.runs; p.taken != p.returned || len(p.spent) != 0 {
		panic(fmt.Sprintf("engine: %s: %d runs taken, %d returned, %d parked", when, p.taken, p.returned, len(p.spent)))
	}
	if p := &e.tok; p.lent != p.back {
		panic(fmt.Sprintf("engine: %s: %d token buffers lent, %d back", when, p.lent, p.back))
	}
	if retired := e.res.Finished + e.res.Failed + e.res.Shed + e.res.Cancelled; e.promptsCollected+e.promptsLeft != retired {
		panic(fmt.Sprintf("engine: %s: %d requests retired, %d prompts collected + %d left to the GC", when, retired, e.promptsCollected, e.promptsLeft))
	}
}
