package engine

import (
	"fmt"
	"testing"

	"jenga/internal/core"
	"jenga/internal/sched"
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
	// prio, when set, gives every submitted request a priority class, so
	// a priority scheduler has orders to choose between.
	prio bool
}

// newExitEnv builds the two engines under a preemption mode and, with
// wrap non-nil, each engine's default scheduler replaced by what wrap
// returns for it.
func newExitEnv(t *testing.T, mode PreemptMode, wrap func(*Engine) sched.Scheduler) *exitEnv {
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
		if wrap != nil {
			e.scheduler = wrap(e)
			e.admPreempt = sched.CanAdmissionPreempt(e.scheduler)
		}
		return e
	}
	x.a, x.b = mk(), mk()
	return x
}

// exitLoad is a shared-prefix stream whose prompts alone are several
// times the 1 MiB budget and whose decodes grow into it (preemptions in
// either mode), every eighth request a fan-out root — every other one
// unlabeled, so that its fork labels it with its own ID.
func exitLoad() []workload.Request {
	g := workload.NewGen(42)
	reqs := g.PrefixGroups(12, 6, 600, 64)
	g.PoissonArrivals(reqs, 400)
	for i := range reqs {
		reqs[i].OutputLen = 160
		if i%8 == 0 {
			reqs[i].Fanout, reqs[i].ForkAfter = 3, 4
		}
		if i%16 == 0 {
			reqs[i].Group = 0
		}
	}
	return reqs
}

func (x *exitEnv) submit(reqs []workload.Request) {
	x.t.Helper()
	for i := range reqs {
		x.ids[reqs[i].ID] = true
		if x.prio {
			reqs[i].Priority = int(reqs[i].ID % 3)
		}
		if err := x.a.Submit(&reqs[i]); err != nil {
			x.t.Fatal(err)
		}
	}
	x.see()
}

// see records every Out buffer a live run holds. A run is visible
// between steps for at least one step boundary after it takes its
// buffer (a fork child cannot retire in the step that created it, a
// decode takes 160 steps), so calling see around every step misses
// none.
func (x *exitEnv) see() {
	for _, e := range []*Engine{x.a, x.b} {
		for _, q := range e.queues() {
			for _, r := range q {
				if r.seq.Out != nil {
					x.bufs[&r.seq.Out[:1][0]] = true
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

// prefilling is a running request between prefill chunks.
func (x *exitEnv) prefilling() *run {
	return x.until(func() *run {
		for _, r := range x.a.running.items() {
			if r.state == prefilling {
				return r
			}
		}
		return nil
	})
}

// decoding is a running request that owns a token buffer.
func (x *exitEnv) decoding() *run {
	return x.until(func() *run {
		for _, r := range x.a.running.items() {
			if r.seq.Out != nil && r.decodesDone > 1 {
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
	x.align()
	dst.MigrateIn(m)
	x.see()
}

// align advances b to a's clock, as a cluster's barrier advances every
// replica to the instant of a cross-replica operation: a record that
// changes engines then reads one time line.
func (x *exitEnv) align() {
	x.t.Helper()
	if err := x.b.AdvanceTo(x.a.Clock()); err != nil {
		x.t.Fatal(err)
	}
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
	preemptions, children, waited := 0, 0, 0
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
		if h.rec.QueueWait < 0 || h.rec.QueueWait > h.rec.E2E {
			t.Errorf("request %d: queue wait %v outside [0, E2E %v]", id, h.rec.QueueWait, h.rec.E2E)
		}
		if h.rec.State == EventFinished && h.preempted == 0 && h.rec.QueueWait > h.rec.TTFT {
			t.Errorf("request %d: never preempted, queue wait %v above TTFT %v", id, h.rec.QueueWait, h.rec.TTFT)
		}
		if h.rec.QueueWait > 0 {
			waited++
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
	if preemptions == 0 || children == 0 || waited == 0 {
		t.Errorf("scenario saw %d preemptions, %d forked children and %d requests that queued; the matrix needs all three in every cell", preemptions, children, waited)
	}
	terminated := 0
	for _, e := range []*Engine{x.a, x.b} {
		if u := e.cfg.Manager.UsageTotals(); u.Used != 0 {
			t.Errorf("manager still holds %d used bytes", u.Used)
		}
		if err := e.cfg.Manager.(*core.Jenga).CheckInvariants(); err != nil {
			t.Errorf("manager after every exit: %v", err)
		}
		res := e.ResultSnapshot()
		terminated += res.Finished + res.Failed + res.Shed + res.Cancelled
	}
	if terminated != len(byID) {
		t.Errorf("engines count %d terminated requests, %d were seen", terminated, len(byID))
	}
	// Free lists: every run taken is back, every buffer lent is back by
	// its engine's count, and every buffer seen is on one engine's list
	// — its own, or the one that adopted it through a record — unless
	// that list was already at its cap.
	pooled := map[*core.Token]int{}
	for _, e := range []*Engine{x.a, x.b} {
		if p := &e.runs; p.taken != p.returned || len(p.spent) != 0 {
			t.Errorf("%d runs taken, %d returned, %d parked", p.taken, p.returned, len(p.spent))
		}
		if p := &e.tok; p.lent != p.back {
			t.Errorf("%d token buffers lent, %d back", p.lent, p.back)
		}
		if lent := lentBuffers(e); lent != 0 {
			t.Errorf("drained engine still lends %d buffers", lent)
		}
		for _, class := range e.tok.free {
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
		atCap = atCap || e.tok.idle >= e.cfg.MaxRunning
	}
	for base := range x.bufs {
		if n := pooled[base]; n > 1 {
			t.Errorf("a token buffer is on %d free lists", n)
		} else if n == 0 && !atCap {
			t.Error("a token buffer was lost: on no free list, and no list is at its cap")
		}
	}
}

// exitScenario is one way of making requests leave: it drives x and
// names the requests expected to leave other than by finishing.
type exitScenario struct {
	name string
	run  func(x *exitEnv) map[int64]EventType
}

// exitScenarios is every exit the engine has, each on the pressured
// fan-out workload.
func exitScenarios() []exitScenario {
	scenarios := []exitScenario{
		{"finish", func(x *exitEnv) map[int64]EventType {
			x.submit(exitLoad())
			return nil
		}},
		{"fail/idle-admission", func(x *exitEnv) map[int64]EventType {
			huge := workload.Request{ID: 9001, OutputLen: 4, Prompt: longPrompt(20000)}
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
			x.move(x.prefilling().req.ID, x.b)
			x.move(x.decoding().req.ID, x.b)
			return nil
		}},
		{"preempt/prefilling", func(x *exitEnv) map[int64]EventType {
			// Between steps nothing is in flight: what a decode
			// reservation does when its policy's victim is a prefill (the
			// longest remaining work, under SJF).
			x.submit(exitLoad())
			x.a.preempt(x.prefilling())
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
			// Branches a forked before the crash are redispatched to b
			// beside roots b forks itself: their IDs derive from their
			// roots, so none collides.
			x.submit(exitLoad())
			x.until(func() *run {
				for _, r := range x.a.running.items() {
					if r.req.ID >= forkIDBase {
						return r
					}
				}
				return nil
			})
			x.decoding()
			x.waiting()
			x.align()
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
				for _, r := range x.a.running.items() {
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
	for _, name := range []string{"Shed", "Cancel"} {
		op := map[string]func(*Engine, int64) bool{"Shed": (*Engine).Shed, "Cancel": (*Engine).Cancel}[name]
		ev := map[string]EventType{"Shed": EventShed, "Cancel": EventCancelled}[name]
		for _, from := range []string{"pending", "waiting", "prefilling", "running"} {
			pick := map[string]func(*exitEnv) *run{
				"pending": (*exitEnv).pending, "waiting": (*exitEnv).waiting,
				"prefilling": (*exitEnv).prefilling, "running": (*exitEnv).decoding,
			}[from]
			scenarios = append(scenarios, exitScenario{fmt.Sprintf("%s/%s", name, from), func(x *exitEnv) map[int64]EventType {
				x.submit(exitLoad())
				id := pick(x).req.ID
				if !op(x.a, id) {
					x.t.Fatalf("%s(%d) missed a live request", name, id)
				}
				return map[int64]EventType{id: ev}
			}})
		}
	}
	return scenarios
}

// TestExitMatrix: every way a request can leave the engine goes through
// the one retire path. For each exit, under both preemption modes and
// on a pressured fan-out workload: exactly one sink call and exactly
// one terminal event per request, in that order; the record's state is
// the event's type; E2E ≥ 0; TTFT is zero iff no first token was ever
// emitted; Generated and Preemptions equal what the event stream says;
// QueueWait lies in [0, E2E], and within TTFT for a finished request
// that was never preempted; and afterwards no KV is in use and no run
// or token buffer is lost. Across the cells of one preemption mode,
// every lifecycle edge occurs and no other move does.
func TestExitMatrix(t *testing.T) {
	for _, mode := range []PreemptMode{PreemptRecompute, PreemptSwap} {
		var moves [numStates][numStates]int
		ran := 0
		for _, sc := range exitScenarios() {
			t.Run(mode.String()+"/"+sc.name, func(t *testing.T) {
				x := newExitEnv(t, mode, nil)
				x.finish(sc.run(x))
				for _, e := range []*Engine{x.a, x.b} {
					for from := range moves {
						for to := range moves[from] {
							moves[from][to] += e.moves[from][to]
						}
					}
				}
				ran++
			})
		}
		if ran < len(exitScenarios()) {
			continue // a -run filter left cells out
		}
		for from := range moves {
			for to, n := range moves[from] {
				if lifecycle[from][to] != (n > 0) {
					t.Errorf("%s: move %d → %d: allowed %v, made %d times", mode, from, to, lifecycle[from][to], n)
				}
			}
		}
	}
}

// viewCheck wraps a scheduler and, at every call, checks the View the
// engine hands it against a fresh fill from the engine's queues — what
// the engine once rebuilt per call: each waiting run summarized now, in
// queue order, and the running set likewise.
type viewCheck struct {
	sched.Scheduler
	t     *testing.T
	e     *Engine
	calls *int
}

func (c viewCheck) check(v *sched.View, marksOK bool) {
	c.t.Helper()
	*c.calls++
	if !marksOK {
		for i := range v.Waiting {
			if v.Waiting[i].Blocked {
				c.t.Fatalf("step %d: waiting position %d is still marked blocked outside an admission pass", c.e.step, i)
			}
		}
	}
	runs := c.e.waiting.items()
	if len(v.Waiting) != len(runs) || len(v.Running) != c.e.running.len() {
		c.t.Fatalf("view shows %d waiting, %d running; the engine has %d, %d", len(v.Waiting), len(v.Running), len(runs), c.e.running.len())
	}
	for i, r := range runs {
		got := v.Waiting[i]
		got.Blocked = false // an admission pass's mark: not part of the summary
		if fresh := r.info(); got != fresh {
			c.t.Fatalf("step %d: waiting position %d is %+v in the view, %+v filled fresh", c.e.step, i, v.Waiting[i], fresh)
		}
	}
	for i, r := range c.e.running.items() {
		if fresh := r.runningInfo(c.e.step); v.Running[i] != fresh {
			c.t.Fatalf("step %d: running position %d is %+v in the view, %+v filled fresh", c.e.step, i, v.Running[i], fresh)
		}
	}
}

func (c viewCheck) PickWaiting(v *sched.View) int {
	c.check(v, true)
	return c.Scheduler.PickWaiting(v)
}

func (c viewCheck) VictimFor(requester sched.ReqInfo, v *sched.View) int {
	c.check(v, true)
	return c.Scheduler.VictimFor(requester, v)
}

func (c viewCheck) PrefillBudget(v *sched.View, total int) sched.Split {
	c.check(v, false)
	return c.Scheduler.PrefillBudget(v, total)
}

func (c viewCheck) RankWaiting(cand sched.ReqInfo, v *sched.View) int {
	c.check(v, false)
	return c.Scheduler.RankWaiting(cand, v)
}

func (c viewCheck) AdmissionPreempts() bool { return sched.CanAdmissionPreempt(c.Scheduler) }

// TestViewMatchesFreshFill: the waiting and running entries of the
// scheduler's View are kept up to date where the queue and the runs
// change instead of refilled per call, and every call must see exactly
// what a refill would have shown — each running run's remaining work,
// phase, commit in flight and group included.
// Every built-in policy (each ordering the queue its own way, priority
// preempting at admission) under both preemption modes, through every
// exit of the exit matrix — arrivals, admissions, rollbacks,
// preemptions, failures, sheds, cancels, migrations in and out, a
// crash, forks — with prioritized requests, and the View checked at
// every scheduler call of both engines.
func TestViewMatchesFreshFill(t *testing.T) {
	if testing.Short() {
		t.Skip("four exit matrices (seconds of simulation; a minute under -race); run without -short — a jengadebug build checks every View anyway")
	}
	policies := []func() sched.Scheduler{
		sched.NewFCFS, sched.NewPriority, sched.NewSJF,
		func() sched.Scheduler { return sched.NewFairShare() },
	}
	for _, policy := range policies {
		for _, mode := range []PreemptMode{PreemptRecompute, PreemptSwap} {
			for _, sc := range exitScenarios() {
				t.Run(policy().Name()+"/"+mode.String()+"/"+sc.name, func(t *testing.T) {
					calls := 0
					x := newExitEnv(t, mode, func(e *Engine) sched.Scheduler {
						return viewCheck{Scheduler: policy(), t: t, e: e, calls: &calls}
					})
					x.prio = true
					sc.run(x)
					for _, e := range []*Engine{x.a, x.b} {
						if err := e.Drain(); err != nil {
							t.Fatal(err)
						}
					}
					if calls == 0 {
						t.Fatal("no scheduler call was checked")
					}
				})
			}
		}
	}
}
