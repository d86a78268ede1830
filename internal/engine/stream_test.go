package engine

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"jenga/internal/sched"
	"jenga/internal/workload"
)

// collectEvents runs reqs through an engine with a recording sink.
func collectEvents(t *testing.T, cfg Config, reqs []workload.Request) ([]Event, *Result) {
	t.Helper()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var events []Event
	e.SetEventSink(func(ev Event) { events = append(events, ev) })
	res, err := e.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	return events, res
}

// TestEventLifecycleOrder checks the per-request event contract:
// queued, then first_token, then one token per decode, then exactly
// one terminal event, with monotone clocks.
func TestEventLifecycleOrder(t *testing.T) {
	spec := miniWindowSpec()
	mgr := jengaFor(t, spec, 8<<20, false)
	reqs := textReqs(3, 6, 200, 12)
	events, res := collectEvents(t, Config{Spec: spec, Device: smallDevice(), Manager: mgr, MaxBatchTokens: 512}, reqs)
	if res.Finished != 6 {
		t.Fatalf("finished %d, want 6", res.Finished)
	}
	type lifecycle struct {
		queued, first, tokens, terminals int
		lastClock                        time.Duration
		lastGen                          int
	}
	per := map[int64]*lifecycle{}
	for _, ev := range events {
		lc := per[ev.ID]
		if lc == nil {
			lc = &lifecycle{}
			per[ev.ID] = lc
		}
		if ev.Clock < lc.lastClock {
			t.Fatalf("req %d: clock went backwards (%v after %v)", ev.ID, ev.Clock, lc.lastClock)
		}
		lc.lastClock = ev.Clock
		switch ev.Type {
		case EventQueued:
			lc.queued++
		case EventFirstToken:
			if lc.queued != 1 {
				t.Fatalf("req %d: first token before queued", ev.ID)
			}
			lc.first++
			if ev.Generated != 1 {
				t.Fatalf("req %d: first token Generated=%d, want 1", ev.ID, ev.Generated)
			}
			lc.lastGen = ev.Generated
		case EventToken:
			if ev.Generated != lc.lastGen+1 {
				t.Fatalf("req %d: token Generated=%d after %d", ev.ID, ev.Generated, lc.lastGen)
			}
			lc.lastGen = ev.Generated
			lc.tokens++
		case EventFinished, EventFailed, EventShed, EventCancelled:
			lc.terminals++
		}
		if lc.terminals > 1 {
			t.Fatalf("req %d: multiple terminal events", ev.ID)
		}
	}
	if len(per) != 6 {
		t.Fatalf("events for %d requests, want 6", len(per))
	}
	for id, lc := range per {
		if lc.queued != 1 || lc.first != 1 || lc.terminals != 1 {
			t.Errorf("req %d: queued=%d first=%d terminals=%d, want 1/1/1", id, lc.queued, lc.first, lc.terminals)
		}
		// OutputLen 12: first token plus 11 decode tokens.
		if lc.lastGen != 12 {
			t.Errorf("req %d: generated %d tokens, want 12", id, lc.lastGen)
		}
	}
}

// cancelMidGeneration submits one request, steps until it has
// generated at least minTokens, cancels it, and returns the engine.
func cancelMidGeneration(t *testing.T, e *Engine, req workload.Request, minTokens int) {
	t.Helper()
	e.Reset()
	if err := e.Submit(&req); err != nil {
		t.Fatal(err)
	}
	tokens := 0
	e.SetEventSink(func(ev Event) {
		if ev.ID == req.ID && ev.Type == EventToken {
			tokens = ev.Generated
		}
	})
	for e.Live() && tokens < minTokens {
		if err := e.StepOnce(); err != nil {
			t.Fatal(err)
		}
	}
	if tokens < minTokens {
		t.Fatalf("request never reached mid-generation (tokens %d)", tokens)
	}
	if !e.Cancel(req.ID) {
		t.Fatal("Cancel(live request) returned false")
	}
	if e.Cancel(req.ID) {
		t.Fatal("Cancel(already cancelled) returned true")
	}
	e.SetEventSink(nil)
	if res := e.ResultSnapshot(); res.Cancelled != 1 {
		t.Fatalf("cancelled %d, want 1", res.Cancelled)
	}
}

// TestCancelReleasesMemory is the mid-generation cancellation
// contract, cache-disabled variant: with no prefix cache to park
// committed pages in, cancelling must return Usage exactly to its
// pre-submit snapshot.
func TestCancelReleasesMemory(t *testing.T) {
	spec := miniWindowSpec()
	mgr := jengaFor(t, spec, 8<<20, false)
	e, err := New(Config{Spec: spec, Device: smallDevice(), Manager: mgr, MaxBatchTokens: 256})
	if err != nil {
		t.Fatal(err)
	}
	pre := mgr.Usage()
	cancelMidGeneration(t, e, textReqs(9, 1, 600, 64)[0], 8)
	u := mgr.Usage()
	if u.Used != pre.Used || u.Wasted != pre.Wasted || u.Cached != pre.Cached || u.Free != pre.Free {
		t.Errorf("cancelled stream leaked KV: pre %+v post %+v", pre, u)
	}
}

// TestCancelKeepsPrefixCacheIntact is the cache-enabled variant: a
// cancelled stream's used memory returns to the pre-submit level (its
// committed pages move to the evictable cache, exactly as on normal
// completion), the accounting conserves, and the cache it leaves
// behind is valid — the identical prompt reruns to completion served
// from cache.
func TestCancelKeepsPrefixCacheIntact(t *testing.T) {
	spec := miniWindowSpec()
	mgr := jengaFor(t, spec, 8<<20, true)
	e, err := New(Config{Spec: spec, Device: smallDevice(), Manager: mgr, MaxBatchTokens: 256})
	if err != nil {
		t.Fatal(err)
	}
	pre := mgr.Usage()
	req := textReqs(9, 1, 600, 64)[0]
	cancelMidGeneration(t, e, req, 8)
	u := mgr.Usage()
	if u.Used != pre.Used {
		t.Errorf("cancelled stream still holds live KV: pre %+v post %+v", pre, u)
	}
	if u.Free+u.Cached+u.Used+u.Wasted != mgr.Capacity() {
		t.Errorf("accounting broken after cancel: %+v vs capacity %d", u, mgr.Capacity())
	}
	// Prefix cache intact: the cancelled prompt reruns to completion
	// and is served from the cache the cancelled stream left behind.
	rerun := []workload.Request{req}
	rerun[0].Arrival = 0
	res2, err := e.Run(rerun)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Finished != 1 {
		t.Fatalf("rerun after cancel: finished %d, want 1", res2.Finished)
	}
	if res2.CachedPromptTokens == 0 {
		t.Error("rerun after cancel hit no cache: cancellation corrupted the prefix cache")
	}
	if fin := mgr.Usage(); fin.Used != pre.Used {
		t.Errorf("rerun left live KV behind: %+v", fin)
	}
}

// TestCancelPendingAndWaiting cancels requests that never started.
func TestCancelPendingAndWaiting(t *testing.T) {
	spec := miniWindowSpec()
	mgr := jengaFor(t, spec, 8<<20, false)
	e, err := New(Config{Spec: spec, Device: smallDevice(), Manager: mgr})
	if err != nil {
		t.Fatal(err)
	}
	reqs := textReqs(11, 3, 200, 8)
	reqs[2].Arrival = time.Hour // stays pending
	e.Reset()
	for i := range reqs {
		if err := e.Submit(&reqs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !e.Cancel(reqs[2].ID) {
		t.Fatal("cancel pending failed")
	}
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	res := e.ResultSnapshot()
	if res.Cancelled != 1 || res.Finished != 2 {
		t.Fatalf("cancelled %d finished %d, want 1/2", res.Cancelled, res.Finished)
	}
	if u := mgr.Usage(); u.Used != 0 || u.Wasted != 0 {
		t.Errorf("memory leak after cancel: %+v", u)
	}
}

// TestKVAdmissionShedsImpossible: a request larger than capacity is
// shed at arrival instead of failing after an idle-engine stall.
func TestKVAdmissionSheds(t *testing.T) {
	spec := miniWindowSpec()
	mgr := jengaFor(t, spec, 1<<20, false)
	reqs := textReqs(5, 3, 128, 8)
	huge := workload.Request{ID: 999, Prompt: handBuilt(goldenWorkload()[:1])[0].Prompt, OutputLen: 4}
	for len(huge.Prompt) < 40_000 {
		huge.Prompt = append(huge.Prompt, huge.Prompt...)
	}
	reqs = append(reqs, huge)
	events, res := collectEvents(t,
		Config{Spec: spec, Device: smallDevice(), Manager: mgr, Admission: KVAdmission{}}, reqs)
	if res.Shed != 1 || res.Finished != 3 || res.Failed != 0 {
		t.Fatalf("shed/finished/failed = %d/%d/%d, want 1/3/0", res.Shed, res.Finished, res.Failed)
	}
	sawShed := false
	for _, ev := range events {
		if ev.Type == EventShed {
			if ev.ID != 999 {
				t.Fatalf("shed wrong request %d", ev.ID)
			}
			sawShed = true
		}
	}
	if !sawShed {
		t.Fatal("no EventShed emitted")
	}
}

// TestSLOAdmissionShedsUnderBacklog: with a deep backlog and a tight
// TTFT target, late arrivals are shed; with a loose target everything
// is admitted.
func TestSLOAdmissionShedsUnderBacklog(t *testing.T) {
	spec := miniWindowSpec()
	run := func(target time.Duration) *Result {
		mgr := jengaFor(t, spec, 32<<20, false)
		reqs := textReqs(13, 40, 2000, 4)
		e, err := New(Config{Spec: spec, Device: smallDevice(), Manager: mgr,
			MaxBatchTokens: 256, Admission: SLOAdmission{TTFT: target}})
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run(reqs)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	tight := run(10 * time.Millisecond)
	loose := run(time.Hour)
	if loose.Shed != 0 || loose.Finished != 40 {
		t.Fatalf("loose target shed %d finished %d, want 0/40", loose.Shed, loose.Finished)
	}
	if tight.Shed == 0 {
		t.Fatal("tight target shed nothing under a 40-deep all-at-once backlog")
	}
	if tight.Shed+tight.Finished+tight.Failed != 40 {
		t.Fatalf("request accounting broken: %d+%d+%d != 40", tight.Shed, tight.Finished, tight.Failed)
	}
}

// TestPriorityShapesService: with two priority classes arriving
// together under a constrained engine, the high-priority class must
// finish no later on average than the low-priority class.
func TestPriorityShapesService(t *testing.T) {
	spec := miniWindowSpec()
	mgr := jengaFor(t, spec, 8<<20, false)
	reqs := textReqs(17, 16, 400, 16)
	for i := range reqs {
		if i%2 == 0 {
			reqs[i].Priority = 5
		}
	}
	e, err := New(Config{Spec: spec, Device: smallDevice(), Manager: mgr, MaxBatchTokens: 256, MaxPrefills: 1,
		Scheduler: sched.NewPriority()})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Finished != 16 {
		t.Fatalf("finished %d, want 16", res.Finished)
	}
	var hi, lo time.Duration
	var nHi, nLo int
	prio := map[int64]int{}
	for i := range reqs {
		prio[reqs[i].ID] = reqs[i].Priority
	}
	for _, rm := range res.PerRequest {
		if prio[rm.ID] > 0 {
			hi += rm.TTFT
			nHi++
		} else {
			lo += rm.TTFT
			nLo++
		}
	}
	if nHi == 0 || nLo == 0 {
		t.Fatal("both classes must finish")
	}
	if hi/time.Duration(nHi) > lo/time.Duration(nLo) {
		t.Errorf("high-priority mean TTFT %v above low-priority %v", hi/time.Duration(nHi), lo/time.Duration(nLo))
	}
}

// TestParseAdmission covers the flag spellings.
func TestParseAdmission(t *testing.T) {
	if p, err := ParseAdmission("none", 0); err != nil || p != nil {
		t.Fatalf("none: %v %v", p, err)
	}
	p, err := ParseAdmission("kv+slo", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "kv+slo" {
		t.Fatalf("chain name %q", p.Name())
	}
	if _, err := ParseAdmission("bogus", 0); err == nil {
		t.Fatal("bogus policy accepted")
	}
}

// TestCancelShedBeforeArrival: an event sink may end a request that has
// not arrived. During a Run that request is its caller's header in the
// batch, never a run, yet Cancel and Shed of it give what they give on
// the Submit path: the same return value, the same record to the retire
// sink and the same terminal event, at the same place in the stream —
// and the rest of the run is the same too.
func TestCancelShedBeforeArrival(t *testing.T) {
	spec := miniWindowSpec()
	reqs := goldenWorkload()
	cancelID, shedID := reqs[40].ID, reqs[50].ID
	drive := func(run bool) (log []exitMark, answers []bool) {
		e, err := New(Config{Spec: spec, Device: smallDevice(), Manager: jengaFor(t, spec, 4<<20, true), MaxBatchTokens: 512, MaxPrefills: 2})
		if err != nil {
			t.Fatal(err)
		}
		e.SetRetireSink(func(m RequestMetrics) { log = append(log, exitMark{sink: true, rec: m}) })
		e.SetEventSink(func(ev Event) {
			log = append(log, exitMark{ev: ev})
			if ev.Type != EventQueued || ev.ID != reqs[0].ID {
				return
			}
			if run {
				batched := map[int64]bool{}
				for i := range e.batch.len() {
					batched[e.batch.at(i).ID] = true
				}
				if !batched[cancelID] || !batched[shedID] || e.pending.len() != 0 {
					t.Fatalf("requests %d and %d not both left in the batch (%d runs pending)", cancelID, shedID, e.pending.len())
				}
			}
			answers = append(answers, e.Cancel(cancelID), e.Shed(shedID), e.Cancel(cancelID))
		})
		mine := slices.Clone(reqs)
		if run {
			if _, err := e.Run(mine); err != nil {
				t.Fatal(err)
			}
			return log, answers
		}
		for i := range mine {
			if err := e.Submit(&mine[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Drain(); err != nil {
			t.Fatal(err)
		}
		return log, answers
	}
	gotLog, gotAnswers := drive(true)
	wantLog, wantAnswers := drive(false)
	if !slices.Equal(gotAnswers, []bool{true, true, false}) || !slices.Equal(gotAnswers, wantAnswers) {
		t.Fatalf("Cancel, Shed, Cancel again answered %v in Run, %v on the Submit path", gotAnswers, wantAnswers)
	}
	if !reflect.DeepEqual(gotLog, wantLog) {
		t.Fatalf("Run's records and events differ from the Submit path's (%d and %d entries)", len(gotLog), len(wantLog))
	}
	ended := map[int64]EventType{}
	for _, m := range gotLog {
		if m.sink {
			ended[m.rec.ID] = m.rec.State
		}
	}
	if ended[cancelID] != EventCancelled || ended[shedID] != EventShed || len(ended) != len(reqs) {
		t.Fatalf("request %d ended %v, %d ended %v, %d of %d records", cancelID, ended[cancelID], shedID, ended[shedID], len(ended), len(reqs))
	}
}
