package engine

import (
	"fmt"
	"testing"

	"jenga/internal/core"
	"jenga/internal/workload"
)

// exitMark is one entry of the probe's global log: a retire-sink call
// or an emitted event, in the order the engines produced them.
type exitMark struct {
	sink bool
	rec  RequestMetrics
	ev   Event
}

func (m exitMark) id() int64 {
	if m.sink {
		return m.rec.ID
	}
	return m.ev.ID
}

// shedSet is an admission policy that sheds exactly the listed IDs.
type shedSet map[int64]bool

func (shedSet) Name() string { return "shed-set" }
func (s shedSet) Decide(req *workload.Request, _ AdmissionState) AdmissionDecision {
	if s[req.ID] {
		return Shed
	}
	return Admit
}

// exitEnv is two pressured engines (a serves, b takes migrations and
// crash redispatches) with every sink call, every event and every
// private token buffer they ever lent on record.
type exitEnv struct {
	t    *testing.T
	a, b *Engine
	shed shedSet
	log  []exitMark
	ids  map[int64]bool
	bufs map[*core.Token]bool
}

func newExitEnv(t *testing.T, mode PreemptMode) *exitEnv {
	x := &exitEnv{t: t, shed: shedSet{}, ids: map[int64]bool{}, bufs: map[*core.Token]bool{}}
	spec := miniWindowSpec()
	mk := func() *Engine {
		e, err := New(Config{
			Spec: spec, Device: smallDevice(), Manager: tieredJengaFor(t, spec, 1<<20, 16<<20),
			MaxBatchTokens: 512, MaxPrefills: 2, MaxRunning: 16, PreemptMode: mode, Admission: x.shed,
		})
		if err != nil {
			t.Fatal(err)
		}
		e.SetRetireSink(func(m RequestMetrics) { x.log = append(x.log, exitMark{sink: true, rec: m}) })
		e.SetEventSink(func(ev Event) {
			x.ids[ev.ID] = true
			x.log = append(x.log, exitMark{ev: ev})
		})
		return e
	}
	x.a, x.b = mk(), mk()
	return x
}

// exitLoad is a shared-prefix stream whose prompts alone are several
// times the 1 MiB budget and whose decodes grow into it (preemptions in
// either mode), every eighth request a fan-out root.
func exitLoad() []workload.Request {
	g := workload.NewGen(42)
	reqs := g.PrefixGroups(12, 6, 600, 64)
	g.PoissonArrivals(reqs, 400)
	for i := range reqs {
		reqs[i].OutputLen = 160
		if i%8 == 0 {
			reqs[i].Fanout, reqs[i].ForkAfter = 3, 4
		}
	}
	return reqs
}

func (x *exitEnv) submit(reqs []workload.Request) {
	x.t.Helper()
	for i := range reqs {
		x.ids[reqs[i].ID] = true
		if err := x.a.Submit(&reqs[i]); err != nil {
			x.t.Fatal(err)
		}
	}
	x.see()
}

// see records every private buffer a live run holds. A run is visible
// between steps for at least one step boundary after it takes its
// buffer (a fork child cannot retire in the step that created it, a
// decode takes 160 steps), so calling see around every step misses
// none.
func (x *exitEnv) see() {
	for _, e := range []*Engine{x.a, x.b} {
		for _, q := range e.queues() {
			for _, r := range q {
				if r.owned {
					x.bufs[&r.seq.Tokens[:1][0]] = true
				}
			}
		}
	}
}

// until steps engine a until pick finds a run.
func (x *exitEnv) until(pick func() *run) *run {
	x.t.Helper()
	for {
		if r := pick(); r != nil {
			return r
		}
		if !x.a.Live() {
			x.t.Fatal("engine drained before the scenario's precondition held")
		}
		if err := x.a.StepOnce(); err != nil {
			x.t.Fatal(err)
		}
		x.see()
	}
}

func (x *exitEnv) pending() *run {
	return x.until(func() *run {
		if n := x.a.pending.len(); n > 0 {
			return x.a.pending.items()[n-1]
		}
		return nil
	})
}

func (x *exitEnv) waiting() *run {
	return x.until(func() *run {
		if x.a.waiting.len() > 0 {
			return x.a.waiting.front()
		}
		return nil
	})
}

// decoding is a running request that owns a token buffer.
func (x *exitEnv) decoding() *run {
	return x.until(func() *run {
		for _, r := range x.a.running {
			if r.owned && r.decodesDone > 1 {
				return r
			}
		}
		return nil
	})
}

// move migrates id from a to dst (a itself: the rollback re-entry).
func (x *exitEnv) move(id int64, dst *Engine) {
	x.t.Helper()
	m, ok := x.a.MigrateOut(id)
	if !ok {
		x.t.Fatalf("MigrateOut(%d) missed a live request", id)
	}
	dst.MigrateIn(m)
	x.see()
}

// finish drains both engines and checks every law of the exit path.
// want names the requests expected to leave by something other than
// finishing.
func (x *exitEnv) finish(want map[int64]EventType) {
	t := x.t
	t.Helper()
	for _, e := range []*Engine{x.a, x.b} {
		for e.Live() {
			if err := e.StepOnce(); err != nil {
				t.Fatal(err)
			}
			x.see()
		}
		// Runs extracted after the engine's last step (a crash) are still
		// parked; Drain on a drained engine is the step boundary.
		if err := e.Drain(); err != nil {
			t.Fatal(err)
		}
	}
	type history struct {
		sinks, terminals, preempted int
		firstToken                  bool
		rec                         RequestMetrics
		last                        Event
	}
	byID := map[int64]*history{}
	for id := range x.ids {
		byID[id] = &history{}
	}
	for i, m := range x.log {
		h := byID[m.id()]
		if h == nil {
			t.Fatalf("record for request %d, which never produced an event or a Submit", m.id())
		}
		switch {
		case m.sink:
			h.sinks++
			h.rec = m.rec
			if i+1 == len(x.log) || x.log[i+1].sink || x.log[i+1].ev.ID != m.rec.ID || x.log[i+1].ev.Type != m.rec.State {
				t.Errorf("request %d: sink call (state %v) not followed at once by its terminal event", m.rec.ID, m.rec.State)
			}
		case m.ev.Type.Terminal():
			h.terminals++
			h.last = m.ev
			if i == 0 || !x.log[i-1].sink || x.log[i-1].rec.ID != m.ev.ID {
				t.Errorf("request %d: terminal event %v without the sink call before it", m.ev.ID, m.ev.Type)
			}
		case m.ev.Type == EventPreempted:
			h.preempted++
		case m.ev.Type == EventFirstToken:
			h.firstToken = true
		}
	}
	preemptions, children := 0, 0
	for id, h := range byID {
		if h.sinks != 1 || h.terminals != 1 {
			t.Errorf("request %d: %d sink calls and %d terminal events, want one each", id, h.sinks, h.terminals)
			continue
		}
		wantState, special := want[id]
		if !special {
			wantState = EventFinished
		}
		if h.rec.State != wantState || h.last.Type != wantState {
			t.Errorf("request %d: record %v, event %v, want %v", id, h.rec.State, h.last.Type, wantState)
		}
		if h.rec.E2E < 0 {
			t.Errorf("request %d: E2E %v", id, h.rec.E2E)
		}
		if (h.rec.TTFT == 0) != !h.firstToken {
			t.Errorf("request %d: TTFT %v with first-token event seen = %v", id, h.rec.TTFT, h.firstToken)
		}
		if h.rec.Generated != h.last.Generated || h.rec.Preemptions != h.preempted {
			t.Errorf("request %d: record says %d generated, %d preemptions; the events say %d, %d",
				id, h.rec.Generated, h.rec.Preemptions, h.last.Generated, h.preempted)
		}
		preemptions += h.preempted
		if id >= forkIDBase {
			children++
		}
	}
	if preemptions == 0 || children == 0 {
		t.Errorf("scenario saw %d preemptions and %d forked children; the matrix needs both in every cell", preemptions, children)
	}
	terminated := 0
	for _, e := range []*Engine{x.a, x.b} {
		if u := e.cfg.Manager.UsageTotals(); u.Used != 0 {
			t.Errorf("manager still holds %d used bytes", u.Used)
		}
		if n := e.cfg.Manager.(*core.Jenga).Remembered(); n != 0 {
			t.Errorf("manager still remembers %d requests: every exit releases what a probe or a lookup registered", n)
		}
		res := e.ResultSnapshot()
		terminated += res.Finished + res.Failed + res.Shed + res.Cancelled
	}
	if terminated != len(byID) {
		t.Errorf("engines count %d terminated requests, %d were seen", terminated, len(byID))
	}
	// Free lists: every run taken is back, and every buffer lent is on
	// one engine's list — its own, or the one that adopted it through a
	// record — unless that class was already at its cap.
	pooled := map[*core.Token]int{}
	for _, e := range []*Engine{x.a, x.b} {
		if p := &e.runs; p.taken != p.returned || len(p.spent) != 0 {
			t.Errorf("%d runs taken, %d returned, %d parked", p.taken, p.returned, len(p.spent))
		}
		if lent := lentBuffers(e); lent != 0 {
			t.Errorf("drained engine still lends %d buffers", lent)
		}
		for _, class := range e.tokFree {
			for _, b := range class {
				pooled[&b[:1][0]]++
			}
		}
	}
	if len(x.bufs) == 0 {
		t.Error("no private buffer was ever seen")
	}
	atCap := false
	for _, e := range []*Engine{x.a, x.b} {
		for _, class := range e.tokFree {
			atCap = atCap || len(class) >= e.cfg.MaxRunning
		}
	}
	for base := range x.bufs {
		if n := pooled[base]; n > 1 {
			t.Errorf("a token buffer is on %d free lists", n)
		} else if n == 0 && !atCap {
			t.Error("a token buffer was lost: on no free list, and no class is at its cap")
		}
	}
}

// TestExitMatrix: every way a request can leave the engine goes through
// the one retire path. For each exit, under both preemption modes and
// on a pressured fan-out workload: exactly one sink call and exactly
// one terminal event per request, in that order; the record's state is
// the event's type; E2E ≥ 0; TTFT is zero iff no first token was ever
// emitted; Generated and Preemptions equal what the event stream says;
// and afterwards no KV is in use and no run or token buffer is lost.
func TestExitMatrix(t *testing.T) {
	type scenario struct {
		name string
		run  func(x *exitEnv) map[int64]EventType
	}
	scenarios := []scenario{
		{"finish", func(x *exitEnv) map[int64]EventType {
			x.submit(exitLoad())
			return nil
		}},
		{"fail/idle-admission", func(x *exitEnv) map[int64]EventType {
			huge := workload.Request{ID: 9001, OutputLen: 4, Prompt: workload.NewGen(9).LongDocQA(1)[0].Prompt[:20000]}
			x.submit(append(exitLoad(), huge))
			return map[int64]EventType{9001: EventFailed}
		}},
		{"fail/stuck-running", func(x *exitEnv) map[int64]EventType {
			// Fits at admission (the footprint is the prompt's), then
			// outgrows the whole heap decoding.
			grower := textReqs(3, 1, 100, 100_000)[0]
			grower.ID = 9002
			x.submit(append(exitLoad(), grower))
			return map[int64]EventType{9002: EventFailed}
		}},
		{"shed/arrival", func(x *exitEnv) map[int64]EventType {
			reqs := exitLoad()
			x.shed[reqs[5].ID] = true
			x.submit(reqs)
			return map[int64]EventType{reqs[5].ID: EventShed}
		}},
		{"migrate", func(x *exitEnv) map[int64]EventType {
			x.submit(exitLoad())
			x.move(x.pending().req.ID, x.b)
			x.move(x.waiting().req.ID, x.b)
			x.move(x.decoding().req.ID, x.b)
			return nil
		}},
		{"migrate/rollback", func(x *exitEnv) map[int64]EventType {
			x.submit(exitLoad())
			x.move(x.decoding().req.ID, x.a) // re-enters where it left
			gone := x.decoding().req.ID
			x.move(gone, x.a) // ... and from a draining source is shed
			if !x.a.Shed(gone) {
				x.t.Fatal("Shed missed the rolled-back request")
			}
			return map[int64]EventType{gone: EventShed}
		}},
		{"crash", func(x *exitEnv) map[int64]EventType {
			// Branch IDs are numbered per engine, so a branch redispatched
			// to b could meet a branch b forks itself under the same ID:
			// the crash comes before a forks anything.
			reqs := exitLoad()
			for i := range reqs[:len(reqs)/2] {
				reqs[i].Fanout = 0
			}
			x.submit(reqs)
			x.decoding()
			x.waiting()
			if x.a.forkSeq != 0 {
				x.t.Fatal("source forked before the crash")
			}
			for _, m := range x.a.CrashOut() {
				x.b.MigrateIn(m)
			}
			if cr, ok := x.a.cfg.Manager.(core.Crasher); !ok || cr.CrashReset() != nil {
				x.t.Fatal("the crashed engine's manager did not restart cold")
			}
			x.see()
			return nil
		}},
		{"fork/child-cancelled", func(x *exitEnv) map[int64]EventType {
			x.submit(exitLoad())
			// Cancel a branch in the step that forked it: it leaves with
			// no token of its own, so no first token and TTFT zero.
			child := x.until(func() *run {
				for _, r := range x.a.running {
					if r.req.ID >= forkIDBase && r.firstToken == 0 {
						return r
					}
				}
				return nil
			}).req.ID
			if !x.a.Cancel(child) {
				x.t.Fatal("Cancel missed the fresh branch")
			}
			return map[int64]EventType{child: EventCancelled}
		}},
	}
	for name, op := range map[string]func(*Engine, int64) bool{"Shed": (*Engine).Shed, "Cancel": (*Engine).Cancel} {
		ev := map[string]EventType{"Shed": EventShed, "Cancel": EventCancelled}[name]
		for from, pick := range map[string]func(*exitEnv) *run{
			"pending": (*exitEnv).pending, "waiting": (*exitEnv).waiting, "running": (*exitEnv).decoding,
		} {
			scenarios = append(scenarios, scenario{fmt.Sprintf("%s/%s", name, from), func(x *exitEnv) map[int64]EventType {
				x.submit(exitLoad())
				id := pick(x).req.ID
				if !op(x.a, id) {
					x.t.Fatalf("%s(%d) missed a live request", name, id)
				}
				return map[int64]EventType{id: ev}
			}})
		}
	}
	for _, mode := range []PreemptMode{PreemptRecompute, PreemptSwap} {
		for _, sc := range scenarios {
			t.Run(mode.String()+"/"+sc.name, func(t *testing.T) {
				x := newExitEnv(t, mode)
				x.finish(sc.run(x))
			})
		}
	}
}
