package engine

import (
	"hash/fnv"
	"math/bits"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"jenga/internal/core"
	"jenga/internal/debug"
	"jenga/internal/workload"
)

// promptMark records everything about a prompt the engine must leave
// alone: where it is, how long, how much room follows it, and the
// content of the whole backing array (spare capacity included — a
// stray append would land there).
type promptMark struct {
	base     *core.Token
	len, cap int
	sum      uint64
}

func markPrompt(p []core.Token) promptMark {
	m := promptMark{len: len(p), cap: cap(p)}
	if cap(p) > 0 {
		m.base = &p[:1][0]
	}
	h := fnv.New64a()
	for _, t := range p[:cap(p)] {
		b := [5]byte{byte(t.ID), byte(t.ID >> 8), byte(t.ID >> 16), byte(t.ID >> 24)}
		if t.Image() {
			b[4] = 1
		}
		h.Write(b[:])
	}
	m.sum = h.Sum64()
	return m
}

// poolStats counts the engine's idle buffers and their capacity.
func poolStats(e *Engine) (bufs, tokens int) {
	for _, class := range e.tok.free {
		bufs += len(class)
		for _, b := range class {
			tokens += cap(b)
		}
	}
	return
}

// lentBuffers counts live runs holding an Out buffer.
func lentBuffers(e *Engine) int {
	n := 0
	for _, q := range e.queues() {
		for _, r := range q {
			if r.seq.Out != nil {
				n++
			}
		}
	}
	return n
}

// borrowScenario drives one workload through every path that used to
// copy tokens: a pressured engine A (preemptions in the given mode,
// fan-out forks), a live migration of a decoding request to B, then a
// crash of A with everything redispatched to B.
func borrowScenario(t *testing.T, mode PreemptMode, reqs []workload.Request) (a, b *Result) {
	t.Helper()
	spec := miniWindowSpec()
	mk := func() *Engine {
		e, err := New(Config{
			Spec: spec, Device: smallDevice(), Manager: tieredJengaFor(t, spec, 1<<20, 16<<20),
			MaxBatchTokens: 512, MaxPrefills: 2, MaxRunning: 16, PreemptMode: mode,
		})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	ea, eb := mk(), mk()
	forks := 0
	ea.SetEventSink(func(ev Event) {
		if ev.Type == EventQueued && ev.ID >= forkIDBase {
			forks++
		}
	})
	for i := range reqs {
		if err := ea.Submit(&reqs[i]); err != nil {
			t.Fatal(err)
		}
	}
	for ea.res.Preemptions == 0 || forks == 0 {
		if !ea.Live() {
			t.Fatalf("source drained with %d preemptions and %d forks; the scenario needs both", ea.res.Preemptions, forks)
		}
		if err := ea.StepOnce(); err != nil {
			t.Fatal(err)
		}
	}
	migrated := false
	for _, r := range ea.running {
		if r.seq.Out != nil && r.decodesDone > 0 {
			m, ok := ea.MigrateOut(r.req.ID)
			if !ok {
				t.Fatal("MigrateOut missed a running request")
			}
			eb.MigrateIn(m)
			migrated = true
			break
		}
	}
	if !migrated {
		t.Fatal("no decoding request to migrate")
	}
	if err := ea.AdvanceTo(ea.Clock() + 50*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if !ea.Live() {
		t.Fatal("source drained before the crash")
	}
	for _, m := range ea.CrashOut() {
		eb.MigrateIn(m)
	}
	if lent := lentBuffers(ea); lent != 0 {
		t.Fatalf("crashed engine still lends %d buffers", lent)
	}
	if err := eb.Drain(); err != nil {
		t.Fatal(err)
	}
	if lent := lentBuffers(eb); lent != 0 {
		t.Fatalf("drained engine still lends %d buffers", lent)
	}
	a, b = ea.ResultSnapshot(), eb.ResultSnapshot()
	if b.MigratedIn < 2 || b.RecomputedTokens == 0 || b.Finished == 0 {
		t.Fatalf("destination saw too little: %+v", b)
	}
	return a, b
}

// TestPromptsAreBorrowedNotTouched: the engine reads req.Prompt in
// place through preemption (recompute and swap), fan-out, migration
// and crash/redispatch, and never writes to it — not even into the
// array's spare capacity — nor to the caller's request: what a fork
// records about its root (the Group label of one that had none) goes
// into the engine's own copy of the header. Length, capacity, address
// and content of every prompt and every field of every request
// survive, and a second pass over the same request slice on fresh
// managers repeats the first exactly.
func TestPromptsAreBorrowedNotTouched(t *testing.T) {
	for _, mode := range []PreemptMode{PreemptRecompute, PreemptSwap} {
		g := workload.NewGen(42)
		reqs := g.PrefixGroups(24, 8, 600, 64)
		g.PoissonArrivals(reqs, 400)
		spare := 0
		for i := range reqs {
			if i%16 == 0 {
				reqs[i].Fanout, reqs[i].ForkAfter = 3, 5
			}
			if i%32 == 0 { // an unlabelled root: its fork names the group after it
				reqs[i].Group = 0
			}
			if i%3 == 0 { // room behind the prompt for a stray append to land in
				reqs[i].Prompt = reqs[i].Prompt[:len(reqs[i].Prompt)-7]
			}
			spare += cap(reqs[i].Prompt) - len(reqs[i].Prompt)
		}
		if spare == 0 {
			t.Fatal("no prompt has spare capacity; the cap clamp is untested")
		}
		marks := make([]promptMark, len(reqs))
		for i := range reqs {
			marks[i] = markPrompt(reqs[i].Prompt)
		}
		submitted := append([]workload.Request(nil), reqs...)
		a1, b1 := borrowScenario(t, mode, reqs)
		for i := range reqs {
			if got := markPrompt(reqs[i].Prompt); got != marks[i] {
				t.Fatalf("mode %v: request %d's prompt changed: %+v, was %+v", mode, reqs[i].ID, got, marks[i])
			}
			if !reflect.DeepEqual(reqs[i], submitted[i]) {
				t.Fatalf("mode %v: the engine wrote to the caller's request %d: now %+v, submitted as %+v",
					mode, reqs[i].ID, reqs[i], submitted[i])
			}
		}
		a2, b2 := borrowScenario(t, mode, reqs)
		if !reflect.DeepEqual(a1, a2) || !reflect.DeepEqual(b1, b2) {
			t.Fatalf("mode %v: second pass over the same requests differs:\nsource %+v\n   vs  %+v\ndest   %+v\n   vs  %+v", mode, a1, a2, b1, b2)
		}
	}
}

// TestTokenPoolBounded: private buffers are recycled, so what the
// engine holds follows the running set, not the requests served. With
// no preemption, fork or migration in play a buffer is only created
// while every buffer of its class is lent to a running request, so no
// class ever holds more than the running set's high-water mark — and
// Reset returns abandoned runs' buffers instead of leaking them.
func TestTokenPoolBounded(t *testing.T) {
	spec := miniFullSpec()
	const maxRunning = 64
	e, err := New(Config{
		Spec: spec, Device: smallDevice(), Manager: jengaFor(t, spec, 256<<20, false),
		MaxBatchTokens: 4096, MaxPrefills: 8, MaxRunning: maxRunning,
	})
	if err != nil {
		t.Fatal(err)
	}
	g := workload.NewGen(7)
	reqs := g.ShareGPT(5000)
	for i := range reqs {
		n := 16 << (i % 6) // 16 … 512 prompt tokens
		if len(reqs[i].Prompt) > n {
			reqs[i].Prompt = reqs[i].Prompt[:n]
		}
		reqs[i].OutputLen = 2 + i%63
	}
	g.PoissonArrivals(reqs, 200)

	drive := func(stopAt int) (highWater int) {
		for i := range reqs {
			if err := e.Submit(&reqs[i]); err != nil {
				t.Fatal(err)
			}
		}
		for e.Live() && e.step != stopAt {
			// Every buffer a step takes goes to a request that was
			// already running when the step began.
			highWater = max(highWater, len(e.running))
			if err := e.StepOnce(); err != nil {
				t.Fatal(err)
			}
		}
		return highWater
	}
	check := func(when string, highWater int) {
		t.Helper()
		largest := 0
		for k, class := range e.tok.free {
			if len(class) > highWater {
				t.Fatalf("%s: class %d holds %d buffers, running set peaked at %d", when, k, len(class), highWater)
			}
			if len(class) > 0 {
				largest = 1 << k
			}
		}
		if _, tokens := poolStats(e); tokens > 2*highWater*largest {
			t.Fatalf("%s: %d pooled tokens for a running set that peaked at %d with %d-token buffers", when, tokens, highWater, largest)
		}
	}

	hw := drive(-1)
	if res := e.ResultSnapshot(); res.Finished != len(reqs) || res.Preemptions != 0 {
		t.Fatalf("run: %+v", res)
	}
	if hw < 4 || hw >= maxRunning {
		t.Fatalf("running set peaked at %d: want a real running set that stays under the %d-buffer cap", hw, maxRunning)
	}
	if lent := lentBuffers(e); lent != 0 {
		t.Fatalf("%d buffers still lent after the drain", lent)
	}
	check("after 5000 requests", hw)

	// Abandon a run halfway: Reset must take every lent buffer back.
	e.Reset()
	drive(400)
	lent := lentBuffers(e)
	idle, _ := poolStats(e)
	if lent == 0 {
		t.Fatal("nothing decoding at the reset point")
	}
	e.Reset()
	if got, _ := poolStats(e); got != idle+lent {
		t.Fatalf("Reset: %d buffers pooled, want the %d idle plus the %d lent", got, idle, lent)
	}
	// And the next run draws on them rather than growing the pool.
	hw = max(hw, drive(-1))
	check("after a reset and a second run", hw)
}

// TestMigratedTokensOwnership: MigrateOut moves the run's Out buffer
// into the record — nil for a request that never decoded — and
// MigrateIn adopts it and borrows the prompt again. A failed migration
// that hands the record back to its source therefore costs no copy, and
// the buffer returns to a free list exactly once.
func TestMigratedTokensOwnership(t *testing.T) {
	reqs := textReqs(21, 2, 200, 20)
	reqs[1].Arrival = time.Hour
	e := migrateEngine(t, 32<<20)
	for i := range reqs {
		if err := e.Submit(&reqs[i]); err != nil {
			t.Fatal(err)
		}
	}
	stepToGenerated(t, e, 4)

	m, ok := e.MigrateOut(reqs[0].ID)
	if !ok || len(m.Out) == 0 {
		t.Fatalf("decoding request: ok=%v, %d generated tokens, want its Out buffer", ok, len(m.Out))
	}
	private := &m.Out[0]
	if bufs, _ := poolStats(e); bufs != 0 || lentBuffers(e) != 0 {
		t.Fatalf("after MigrateOut: %d pooled, %d lent; the buffer should have left with the record", bufs, lentBuffers(e))
	}
	pending, ok := e.MigrateOut(reqs[1].ID)
	if !ok || pending.Out != nil {
		t.Fatalf("pending request: ok=%v, Out %v, want no buffer", ok, pending.Out)
	}

	// The migration fails: both records go back to the source.
	e.MigrateIn(m)
	e.MigrateIn(pending)
	if got := e.waiting.items()[e.waiting.len()-1].seq; &got.Out[0] != private || &got.Tokens[0] != &reqs[0].Prompt[0] {
		t.Fatal("MigrateIn copied the buffer or the prompt instead of adopting and borrowing them")
	}
	reqs[1].Arrival = 0 // nothing reads it again before the drain
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	if res := e.ResultSnapshot(); res.Finished != 2 {
		t.Fatalf("finished %d of 2", res.Finished)
	}
	// One buffer per request that decoded: the adopted one, and the
	// one the pending request took at its first generated token — or
	// the very same buffer, had it finished in between.
	if bufs, _ := poolStats(e); bufs < 1 || bufs > 2 || lentBuffers(e) != 0 {
		t.Fatalf("after the drain: %d pooled, %d lent", bufs, lentBuffers(e))
	}
	seen := false
	for _, class := range e.tok.free {
		for _, b := range class {
			if &b[:1][0] == private {
				if seen {
					t.Fatal("the migrated buffer was returned twice")
				}
				seen = true
			}
		}
	}
	if !seen {
		t.Fatal("the migrated buffer never came back to a free list")
	}
}

// TestSubmitCostIsPromptIndependent: Submit borrows the prompt and
// copies the header into a pooled run, so on the pass after a Reset an
// 8k-token request costs what a 64-token one does — no object at all,
// and nothing sized by the prompt.
func TestSubmitCostIsPromptIndependent(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation accounting is not meaningful under -short/-race runs")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	spec := miniFullSpec()
	e, err := New(Config{Spec: spec, Device: smallDevice(), Manager: jengaFor(t, spec, 32<<20, false)})
	if err != nil {
		t.Fatal(err)
	}
	const runs = 256
	measure := func(promptLen int) (objs, bytes uint64) {
		reqs := make([]workload.Request, runs)
		prompt := make([]core.Token, promptLen)
		for i := range reqs {
			reqs[i] = workload.Request{ID: int64(i + 1), Prompt: prompt, OutputLen: 8}
		}
		submit := func() {
			for i := range reqs {
				if err := e.Submit(&reqs[i]); err != nil {
					t.Fatal(err)
				}
			}
		}
		submit() // grow the arrival queue and the run pool once; Reset keeps both
		e.Reset()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		submit()
		runtime.ReadMemStats(&after)
		e.Reset()
		return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
	}
	objs64, bytes64 := measure(64)
	objs8k, bytes8k := measure(8 << 10)
	if objs64 != 0 || objs8k != 0 || bytes8k != bytes64 {
		t.Fatalf("%d submits: %d objects / %d B with 64-token prompts, %d / %d B with 8k-token ones; want no objects and equal bytes",
			runs, objs64, bytes64, objs8k, bytes8k)
	}
}

// TestTokenMemoryFollowsOutput: a run's sequence borrows its prompt for
// the run's whole life — decode appends to the engine's Out buffer
// alone, and a fork child borrows its root's prompt and copies only the
// parent's Out — so token memory is sized by outputs, not prompts.
// After a deep queue of 4k-token shared prompts drains, the free list
// holds no more than MaxRunning buffers of the largest output's class.
func TestTokenMemoryFollowsOutput(t *testing.T) {
	spec := miniFullSpec()
	const maxRunning = 32
	e, err := New(Config{
		Spec: spec, Device: smallDevice(), Manager: jengaFor(t, spec, 64<<20, true),
		MaxBatchTokens: 4096, MaxPrefills: 4, MaxRunning: maxRunning,
	})
	if err != nil {
		t.Fatal(err)
	}
	reqs := workload.NewGen(3).PrefixGroups(4, 48, 4000, 96)
	prompts := map[int64][]core.Token{}
	maxOut := 0
	for i := range reqs {
		reqs[i].OutputLen = 2 + i*37%150
		if i%24 == 0 {
			reqs[i].Fanout, reqs[i].ForkAfter = 3, 4
		}
		maxOut = max(maxOut, reqs[i].OutputLen)
		prompts[reqs[i].ID] = reqs[i].Prompt
		if err := e.Submit(&reqs[i]); err != nil {
			t.Fatal(err)
		}
	}
	children, decoded := map[int64]bool{}, 0
	for e.Live() {
		if err := e.StepOnce(); err != nil {
			t.Fatal(err)
		}
		for _, q := range e.queues() {
			for _, r := range q {
				if &r.seq.Tokens[:1][0] != &r.req.Prompt[:1][0] || len(r.seq.Tokens) != len(r.req.Prompt) {
					t.Fatalf("request %d: its sequence's prompt part is not its prompt's array", r.req.ID)
				}
				if len(r.seq.Out) > 0 {
					decoded++
				}
				if r.req.ID >= forkIDBase {
					root := prompts[(r.req.ID-forkIDBase)/maxFanout]
					if &r.seq.Tokens[:1][0] != &root[:1][0] {
						t.Fatalf("branch %d copied its root's prompt", r.req.ID)
					}
					children[r.req.ID] = true
				}
			}
		}
	}
	if res := e.ResultSnapshot(); res.Finished != len(reqs)+len(children) {
		t.Fatalf("finished %d of %d requests and branches", res.Finished, len(reqs)+len(children))
	}
	if len(children) == 0 || decoded == 0 {
		t.Fatalf("saw %d branches and %d decoding runs; the test needs both", len(children), decoded)
	}
	bufs, tokens := poolStats(e)
	if limit := maxRunning * (1 << bits.Len(uint(maxOut-1))); bufs == 0 || tokens > limit {
		t.Fatalf("free list holds %d buffers of %d tokens in all; want some, and at most %d (%d × the largest output's class)",
			bufs, tokens, limit, maxRunning)
	}
}

// TestLapsedOutTripsExtensionCheck: a jengadebug build poisons an Out
// buffer as it is returned, so a sequence still reading it — a use
// after the hand-back — no longer extends the block hashes the manager
// keeps for the request's committed KV, and core's extension check
// panics instead of hashing the poison afresh.
func TestLapsedOutTripsExtensionCheck(t *testing.T) {
	if !debug.On {
		t.Skip("only a jengadebug build poisons returned token buffers")
	}
	spec := miniFullSpec()
	mgr := jengaFor(t, spec, 32<<20, true)
	e, err := New(Config{Spec: spec, Device: smallDevice(), Manager: mgr})
	if err != nil {
		t.Fatal(err)
	}
	reqs := textReqs(5, 1, 64, 40)
	if err := e.Submit(&reqs[0]); err != nil {
		t.Fatal(err)
	}
	stepToGenerated(t, e, 20)
	r := e.running[0]
	lapsed := r.seq // kept past its buffer's return
	if r.computed != lapsed.Len() || len(lapsed.Out) == 0 {
		t.Fatalf("committed %d of %d tokens, %d generated: want a decode committed up to its last token", r.computed, lapsed.Len(), len(lapsed.Out))
	}
	e.returnTokens(r)
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "changed under its committed KV") {
			t.Fatalf("a lapsed Out read went unnoticed (recovered %q)", msg)
		}
	}()
	mgr.Lookup(&lapsed)
}
