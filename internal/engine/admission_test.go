package engine

import (
	"testing"
	"time"

	"jenga/internal/core"
	"jenga/internal/sched"
	"jenga/internal/workload"
)

// blockedHeadEngine is a 640 KiB replica (1 KiB of KV per token) with a
// host tier, swap preemption and the given scheduler, serving one long
// decode over a 256-token prefix. Then, behind it, a cold 400-token
// request arrives that cannot fit beside the decode, and right after it
// a request sharing the decode's prefix whose 16-token tail fits. It
// returns the engine stepped until both have arrived and one admission
// pass has decided on them.
func blockedHeadEngine(t *testing.T, s sched.Scheduler) (e *Engine, head, sharer int64) {
	t.Helper()
	spec := miniFullSpec()
	e, err := New(Config{
		Spec: spec, Device: smallDevice(), Manager: tieredJengaFor(t, spec, 640<<10, 16<<20),
		MaxBatchTokens: 512, MaxPrefills: 2, PreemptMode: PreemptSwap, Scheduler: s,
	})
	if err != nil {
		t.Fatal(err)
	}
	tokens := func(seed, n int) []core.Token {
		p := make([]core.Token, n)
		for i := range p {
			p[i] = core.Token{ID: int32(seed*100_000 + i + 1)}
		}
		return p
	}
	prefix := tokens(1, 256)
	arrive := 20 * time.Millisecond
	reqs := []workload.Request{
		{ID: 1, Prompt: prefix, OutputLen: 150},
		{ID: 2, Arrival: arrive, Prompt: tokens(2, 400), OutputLen: 4},
		{ID: 3, Arrival: arrive + time.Microsecond, Prompt: append(append([]core.Token{}, prefix...), tokens(3, 16)...), OutputLen: 4},
	}
	for i := range reqs {
		if err := e.Submit(&reqs[i]); err != nil {
			t.Fatal(err)
		}
	}
	for e.pending.len() > 0 {
		if err := e.StepOnce(); err != nil {
			t.Fatal(err)
		}
	}
	if e.running.len() == 0 || e.running.items()[0].req.ID != 1 || e.running.items()[0].state != decoding {
		t.Fatal("the prefix holder is not decoding when the others arrive")
	}
	return e, 2, 3
}

// TestPriorityAdmissionPassesBlockedHead: a cold head that fails the
// admission gate (and that no victim of a lower class can unblock) no
// longer ends the priority pass: a same-class request behind it that
// shares the running decode's prefix is charged only its tail, fits, and
// is admitted past the head. FCFS, whose contract is arrival order,
// still stops at the head. Either way no Blocked mark outlives the
// pass.
func TestPriorityAdmissionPassesBlockedHead(t *testing.T) {
	for _, tc := range []struct {
		s      sched.Scheduler
		passes bool
	}{
		{sched.NewPriority(), true},
		{sched.NewFCFS(), false},
	} {
		t.Run(tc.s.Name(), func(t *testing.T) {
			e, head, sharer := blockedHeadEngine(t, tc.s)
			state := map[int64]string{}
			for _, r := range e.running.items() {
				state[r.req.ID] = "running"
			}
			for _, r := range e.waiting.items() {
				state[r.req.ID] = "waiting"
			}
			if state[head] != "waiting" {
				t.Fatalf("the cold head is %q, want waiting: the scenario needs it blocked", state[head])
			}
			u, capacity := e.cfg.Manager.UsageTotals(), e.cfg.Manager.Capacity()
			if fits, feasible := e.admissionGate(e.waiting.front(), u, capacity); fits || !feasible {
				t.Fatalf("head fits=%v feasible=%v; the scenario needs a feasible head that does not fit", fits, feasible)
			}
			want := "waiting"
			if tc.passes {
				want = "running"
			}
			if state[sharer] != want {
				t.Errorf("the prefix sharer behind the head is %q, want %s", state[sharer], want)
			}
			for i, info := range e.waiting.infos() {
				if info.Blocked {
					t.Errorf("waiting position %d still marked blocked after the step", i)
				}
			}
		})
	}
}

// sloProbe is an SLOAdmission whose target is set per decision between
// the two estimates of one arrival: the engine's, over the measured
// drain rate, and the same backlog over the compute roofline. It records
// what SLOAdmission decides on each.
type sloProbe struct {
	e          *Engine
	armed      bool
	decided    bool
	onMeasured AdmissionDecision
	onRoofline AdmissionDecision
}

func (*sloProbe) Name() string { return "slo-probe" }

func (p *sloProbe) Decide(req *workload.Request, s AdmissionState) AdmissionDecision {
	if !p.armed {
		return Admit
	}
	rate := p.e.drainRate()
	if rate > p.e.roofline {
		panic("measured drain rate above the roofline")
	}
	roof := s
	roof.EstTTFT = time.Duration(float64(s.EstTTFT) * rate / p.e.roofline)
	policy := SLOAdmission{TTFT: (s.EstTTFT + roof.EstTTFT) / 2}
	p.decided = true
	p.onMeasured, p.onRoofline = policy.Decide(req, s), policy.Decide(req, roof)
	return p.onMeasured
}

// TestSLOEstimateDrainsAtMeasuredRate: admission's queueing estimate
// divides the backlog by the rate this replica has actually admitted
// prompt tokens at. A fresh engine has only the roofline; on a
// memory-bound replica (a 2 MiB KV budget under a 60-request backlog)
// the measured rate falls far below it and never above it, so an SLO
// target the roofline estimate would meet sheds the arrival; Reset
// forgets the measurement.
func TestSLOEstimateDrainsAtMeasuredRate(t *testing.T) {
	spec := miniWindowSpec()
	probe := &sloProbe{}
	e, err := New(Config{
		Spec: spec, Device: smallDevice(), Manager: jengaFor(t, spec, 2<<20, true),
		MaxBatchTokens: 512, MaxPrefills: 2, Admission: probe,
	})
	if err != nil {
		t.Fatal(err)
	}
	probe.e = e
	if e.roofline <= 0 || e.drainRate() != e.roofline {
		t.Fatalf("fresh engine drains at %v, want the roofline %v", e.drainRate(), e.roofline)
	}
	reqs := textReqs(21, 60, 600, 64)
	for i := range reqs {
		if err := e.Submit(&reqs[i]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i++ {
		if err := e.StepOnce(); err != nil {
			t.Fatal(err)
		}
		if rate := e.drainRate(); rate > e.roofline {
			t.Fatalf("step %d: measured drain rate %v above the roofline %v", i, rate, e.roofline)
		}
	}
	if rate := e.drainRate(); rate > e.roofline/4 {
		t.Fatalf("memory-bound replica drains at %.0f tok/s, not far below the roofline %.0f", rate, e.roofline)
	}
	if e.waiting.len() == 0 {
		t.Fatal("the backlog drained: the arrival needs a queue ahead of it")
	}
	arrival := workload.Request{ID: 999, Arrival: e.Clock(), Prompt: reqs[0].Prompt, Own: reqs[0].Own, OutputLen: 4}
	probe.armed = true
	shed := false
	e.SetEventSink(func(ev Event) {
		if ev.ID == arrival.ID && ev.Type == EventShed {
			shed = true
		}
	})
	if err := e.Submit(&arrival); err != nil {
		t.Fatal(err)
	}
	if err := e.StepOnce(); err != nil {
		t.Fatal(err)
	}
	if !probe.decided {
		t.Fatal("the arrival reached no admission decision")
	}
	if probe.onMeasured != Shed || probe.onRoofline != Admit || !shed {
		t.Fatalf("measured estimate → %v, roofline estimate → %v, shed event %v; want shed on the measured rate only",
			probe.onMeasured, probe.onRoofline, shed)
	}
	e.Reset()
	if e.drainRate() != e.roofline {
		t.Fatalf("reset engine drains at %v, want the roofline %v", e.drainRate(), e.roofline)
	}
}

// TestAdmissionBoundaries pins where KVAdmission and SLOAdmission turn
// from admit to shed: a footprint equal to the capacity, or to what is
// free plus evictable with the queue at MaxQueue, admits, and so does
// an estimate equal to the TTFT target or the request's deadline; one
// unit past any of them sheds.
func TestAdmissionBoundaries(t *testing.T) {
	kv := KVAdmission{MaxQueue: 4}
	const capacity = 1000
	room := core.Usage{Free: 300, Cached: 100} // 400 bytes free plus evictable
	slo := SLOAdmission{TTFT: 50 * time.Millisecond}
	const deadline = 80 * time.Millisecond
	for _, c := range []struct {
		name   string
		policy AdmissionPolicy
		req    workload.Request
		state  AdmissionState
		want   AdmissionDecision
	}{
		{"kv footprint == capacity", kv, workload.Request{},
			AdmissionState{Usage: core.Usage{Free: capacity}, Capacity: capacity, Footprint: capacity}, Admit},
		{"kv footprint == capacity+1", kv, workload.Request{},
			AdmissionState{Usage: core.Usage{Free: capacity}, Capacity: capacity, Footprint: capacity + 1}, Shed},
		{"kv footprint == free+cached, queue at MaxQueue", kv, workload.Request{},
			AdmissionState{Usage: room, Capacity: capacity, Footprint: 400, Queued: 4}, Admit},
		{"kv footprint == free+cached+1, queue at MaxQueue", kv, workload.Request{},
			AdmissionState{Usage: room, Capacity: capacity, Footprint: 401, Queued: 4}, Shed},
		{"kv footprint == free+cached+1, queue below MaxQueue", kv, workload.Request{},
			AdmissionState{Usage: room, Capacity: capacity, Footprint: 401, Queued: 3}, Admit},
		{"slo estimate == TTFT", slo, workload.Request{},
			AdmissionState{EstTTFT: 50 * time.Millisecond}, Admit},
		{"slo estimate == TTFT+1", slo, workload.Request{},
			AdmissionState{EstTTFT: 50*time.Millisecond + 1}, Shed},
		{"slo estimate == deadline", SLOAdmission{}, workload.Request{Deadline: deadline},
			AdmissionState{EstTTFT: deadline}, Admit},
		{"slo estimate == deadline+1", SLOAdmission{}, workload.Request{Deadline: deadline},
			AdmissionState{EstTTFT: deadline + 1}, Shed},
	} {
		if got := c.policy.Decide(&c.req, c.state); got != c.want {
			t.Errorf("%s: %v, want %v", c.name, got, c.want)
		}
	}
}
