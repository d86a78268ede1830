package serve

import (
	"context"
	"math"
	"testing"
	"time"

	"jenga/internal/core"
	"jenga/internal/engine"
	"jenga/internal/gpu"
	"jenga/internal/model"
	"jenga/internal/sched"
	"jenga/internal/workload"
)

func testSpec() *model.Spec {
	return &model.Spec{
		Name: "serve-test", Params: 100_000_000, WeightBytes: 2, HiddenSize: 256,
		Groups: []model.KVGroup{
			{Name: "full", Kind: model.FullAttention, Layers: 4, BytesPerToken: 256},
		},
	}
}

func testDevice() gpu.Device {
	return gpu.Device{Name: "test-gpu", MemBytes: 1 << 30, FLOPS: 50e12, MemBW: 500e9,
		StepOverhead: time.Millisecond}
}

// testServer serves cfg.Engine.Spec (testSpec when unset) from a Jenga
// manager of the given capacity.
func testServer(t *testing.T, capacity int64, cache bool, cfg Config) *Server {
	t.Helper()
	if cfg.Engine.Spec == nil {
		cfg.Engine.Spec = testSpec()
	}
	mgr, err := core.New(core.Config{
		Spec: cfg.Engine.Spec, CapacityBytes: capacity, TokensPerPage: 8,
		EnablePrefixCache: cache, RequestAware: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Engine.Device = testDevice()
	cfg.Engine.Manager = mgr
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func testReqs(seed int64, n, promptLen, outLen int) []workload.Request {
	g := workload.NewGen(seed)
	reqs := g.ShareGPT(n)
	for i := range reqs {
		if len(reqs[i].Prompt) > promptLen {
			reqs[i].Prompt = reqs[i].Prompt[:promptLen]
		}
		reqs[i].OutputLen = outLen
		reqs[i].Arrival = 0
	}
	return reqs
}

// TestServerStreamsTokens submits a few requests and checks that each
// stream carries its full token sequence in order and terminates
// Finished, and that the report adds up.
func TestServerStreamsTokens(t *testing.T) {
	s := testServer(t, 64<<20, false, Config{})
	const out = 12
	reqs := testReqs(1, 4, 200, out)
	streams := make([]*Stream, 0, len(reqs))
	for _, r := range reqs {
		st, err := s.Submit(context.Background(), r)
		if err != nil {
			t.Fatal(err)
		}
		streams = append(streams, st)
	}
	for _, st := range streams {
		gen, last := 0, 0
		for ev := range st.Events() {
			switch ev.Type {
			case engine.EventFirstToken, engine.EventToken:
				if ev.Generated != last+1 {
					t.Fatalf("stream %d: token %d after %d", st.ID(), ev.Generated, last)
				}
				last = ev.Generated
				gen = ev.Generated
			}
		}
		res, ok := st.Result()
		if !ok {
			t.Fatalf("stream %d: no result after channel close", st.ID())
		}
		if res.State != StateFinished || res.Generated != out || gen != out {
			t.Fatalf("stream %d: state %v generated %d/%d, want finished %d", st.ID(), res.State, res.Generated, gen, out)
		}
		if res.TTFT <= 0 || res.E2E < res.TTFT {
			t.Fatalf("stream %d: latencies inconsistent: %+v", st.ID(), res)
		}
		if st.Dropped() != 0 {
			t.Fatalf("stream %d: dropped %d events despite full consumption", st.ID(), st.Dropped())
		}
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	rep := s.Report()
	if rep.Finished != 4 || rep.Submitted != 4 || rep.Live != 0 {
		t.Fatalf("report %+v, want 4 finished of 4", rep)
	}
	if rep.ReqPerSec <= 0 || rep.P99E2E < rep.P50E2E {
		t.Fatalf("report stats inconsistent: %+v", rep)
	}
}

// TestSpeculativeStream: a server handed a target/draft pair streams
// speculative decoding with no change of its own — Generated is already
// cumulative, so each token event simply lands a burst of 1 to SpecK+1
// tokens further on, the stream ends at exactly OutputLen, and a stream
// cancelled mid-generation gives back both models' KV.
func TestSpeculativeStream(t *testing.T) {
	draft := &model.Spec{
		Name: "serve-draft", Params: 10_000_000, WeightBytes: 2, HiddenSize: 64,
		Groups: []model.KVGroup{{Name: "self", Kind: model.FullAttention, Layers: 1, BytesPerToken: 128}},
	}
	s := testServer(t, 64<<20, false, Config{Engine: engine.Config{Spec: model.WithDraft(testSpec(), draft)}})
	const out = 61
	st, err := s.Submit(context.Background(), testReqs(1, 1, 200, out)[0])
	if err != nil {
		t.Fatal(err)
	}
	last, bursts, widest := 0, 0, 0
	for ev := range st.Events() {
		if ev.Type != engine.EventFirstToken && ev.Type != engine.EventToken {
			continue
		}
		burst := ev.Generated - last
		if burst < 1 || burst > engine.SpecK+1 || (ev.Type == engine.EventFirstToken && burst != 1) {
			t.Fatalf("%v event moved Generated %d → %d, want a burst of 1 to %d", ev.Type, last, ev.Generated, engine.SpecK+1)
		}
		last, bursts, widest = ev.Generated, bursts+1, max(widest, burst)
	}
	if res, ok := st.Result(); !ok || res.State != StateFinished || res.Generated != out || last != out {
		t.Fatalf("result %+v (events ended at %d), want finished at exactly %d", res, last, out)
	}
	if st.Dropped() != 0 || bursts >= out || widest < 2 {
		t.Fatalf("%d bursts (widest %d, %d events dropped) for %d tokens: want fewer events than tokens", bursts, widest, st.Dropped(), out)
	}

	victimReq := testReqs(5, 1, 400, 50_000)[0]
	victimReq.ID = 101
	victim, err := s.Submit(context.Background(), victimReq)
	if err != nil {
		t.Fatal(err)
	}
	for ev := range victim.Events() {
		if ev.Type == engine.EventToken && ev.Generated >= 8 {
			victim.Cancel()
			break
		}
	}
	res, err := victim.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.State != StateCancelled || res.Generated < 8 || res.Generated >= 50_000 {
		t.Fatalf("victim %+v, want cancelled mid-generation", res)
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	if u := s.Snapshot().Usage; u.Used != 0 {
		t.Errorf("cancelled speculative stream leaked KV: %+v", u)
	}
}

// TestResultAfterEventsClose pins the close order in finalize: a
// consumer that reads Events to its close must find the terminal
// record in Result straight away. With events closed before done the
// consumer could win the race between the two closes (seen as a
// TestServerStreamsTokens flake under -race).
func TestResultAfterEventsClose(t *testing.T) {
	s := testServer(t, 64<<20, false, Config{})
	reqs := testReqs(1, 1, 32, 2)
	for i := 0; i < 400; i++ {
		r := reqs[0]
		r.ID = int64(i + 1)
		st, err := s.Submit(context.Background(), r)
		if err != nil {
			t.Fatal(err)
		}
		for range st.Events() {
		}
		if res, ok := st.Result(); !ok || res.State != StateFinished {
			t.Fatalf("iteration %d: result %+v ok=%v right after the event channel closed", i, res, ok)
		}
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
}

// TestServerContextCancelReleasesKV cancels one stream mid-generation
// via its context and checks the KV returns and the other stream
// completes untouched.
func TestServerContextCancelReleasesKV(t *testing.T) {
	s := testServer(t, 64<<20, false, Config{})
	pre := s.Snapshot().Usage

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	victimReq := testReqs(5, 1, 400, 50_000)[0]
	victimReq.ID = 101
	victim, err := s.Submit(ctx, victimReq)
	if err != nil {
		t.Fatal(err)
	}
	bystanderReq := testReqs(6, 1, 300, 16)[0]
	bystanderReq.ID = 102
	bystander, err := s.Submit(context.Background(), bystanderReq)
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the victim is mid-generation, then cancel its context.
	seen := 0
	for ev := range victim.Events() {
		if ev.Type == engine.EventToken {
			seen = ev.Generated
		}
		if seen >= 8 {
			cancel()
			break
		}
	}
	res, err := victim.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.State != StateCancelled {
		t.Fatalf("victim state %v, want cancelled", res.State)
	}
	if res.Generated < 8 || res.Generated >= 50_000 {
		t.Fatalf("victim generated %d, want mid-generation", res.Generated)
	}
	if bres, err := bystander.Wait(context.Background()); err != nil || bres.State != StateFinished {
		t.Fatalf("bystander %+v err %v, want finished", bres, err)
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	u := s.Snapshot().Usage
	if u.Used != pre.Used || u.Wasted != pre.Wasted {
		t.Errorf("cancelled stream leaked KV: pre %+v post %+v", pre, u)
	}
	rep := s.Report()
	if rep.Cancelled != 1 || rep.Finished != 1 {
		t.Fatalf("report %+v, want 1 cancelled 1 finished", rep)
	}
}

// TestServerBackpressure: with MaxQueue 2 and a paused scheduler, the
// third submission bounces with ErrQueueFull; after close, ErrClosed.
func TestServerBackpressure(t *testing.T) {
	s := testServer(t, 64<<20, false, Config{MaxQueue: 2})
	s.Pause()
	reqs := testReqs(7, 3, 100, 4)
	if _, err := s.Submit(context.Background(), reqs[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(context.Background(), reqs[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(context.Background(), reqs[2]); err != ErrQueueFull {
		t.Fatalf("third submit: %v, want ErrQueueFull", err)
	}
	s.Resume()
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(context.Background(), reqs[2]); err != ErrClosed {
		t.Fatalf("submit after drain: %v, want ErrClosed", err)
	}
	if rep := s.Report(); rep.Finished != 2 {
		t.Fatalf("report %+v, want 2 finished", rep)
	}
}

// TestServerShedStreams: an admission policy on the wrapped engine
// sheds an impossible request; its stream terminates StateShed.
func TestServerShedStreams(t *testing.T) {
	s := testServer(t, 1<<20, false, Config{
		Engine: engine.Config{Admission: engine.KVAdmission{}},
	})
	huge := testReqs(8, 1, 100, 4)[0]
	for len(huge.Prompt) < 40_000 {
		huge.Prompt = append(huge.Prompt, huge.Prompt...)
	}
	st, err := s.Submit(context.Background(), huge)
	if err != nil {
		t.Fatal(err)
	}
	res, err := st.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.State != StateShed {
		t.Fatalf("state %v, want shed", res.State)
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	rep := s.Report()
	if rep.Shed != 1 || rep.ShedRate != 1 {
		t.Fatalf("report %+v, want shed 1 rate 1", rep)
	}
}

// TestCancelAfterIsDeterministic: CancelAfter(n) terminates the stream
// with exactly n tokens generated, however fast the pump runs.
func TestCancelAfterIsDeterministic(t *testing.T) {
	for i := 0; i < 3; i++ {
		s := testServer(t, 64<<20, false, Config{})
		// Paused until the limit is set: a pump that starts at Submit can
		// be past 24 tokens before CancelAfter runs (it was, in 1 of 12
		// -race runs).
		s.Pause()
		st, err := s.Submit(context.Background(), testReqs(21, 1, 200, 100_000)[0])
		if err != nil {
			t.Fatal(err)
		}
		st.CancelAfter(24)
		s.Resume()
		res, err := st.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if res.State != StateCancelled || res.Generated != 24 {
			t.Fatalf("run %d: state %v generated %d, want cancelled at exactly 24", i, res.State, res.Generated)
		}
		if err := s.Drain(); err != nil {
			t.Fatal(err)
		}
		if u := s.Snapshot().Usage; u.Used != 0 {
			t.Fatalf("run %d: leaked KV: %+v", i, u)
		}
	}
}

// TestServerClose cancels live streams and refuses new work.
func TestServerClose(t *testing.T) {
	s := testServer(t, 64<<20, false, Config{})
	st, err := s.Submit(context.Background(), testReqs(9, 1, 400, 50_000)[0])
	if err != nil {
		t.Fatal(err)
	}
	// Let it start, then suspend the pump so Close is guaranteed to
	// find the stream mid-generation (the step loop is fast enough to
	// finish 50k decodes within a scheduler quantum otherwise).
	for ev := range st.Events() {
		if ev.Type == engine.EventFirstToken {
			break
		}
	}
	s.Pause()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	res, ok := st.Result()
	if !ok || res.State != StateCancelled {
		t.Fatalf("stream after Close: %+v ok=%v, want cancelled", res, ok)
	}
}

// TestBatchOnlineEquivalence: pausing the server, submitting a full
// seeded workload and resuming reproduces Engine.Run's numbers exactly
// — batch mode really is a thin driver over the same core the online
// server pumps — and the server's Report says the same thing in every
// field it shares with the engine's Result: the embedded totals, and
// the latency roll-up of the batch run's retained records.
func TestBatchOnlineEquivalence(t *testing.T) {
	const slo = 3 * time.Millisecond
	gen := func() []workload.Request {
		g := workload.NewGen(42)
		reqs := g.PrefixGroups(5, 10, 320, 64)
		g.PoissonArrivals(reqs, 200)
		for i := range reqs {
			if i%4 == 0 {
				reqs[i].Deadline = 60 * time.Millisecond
			}
		}
		return reqs
	}

	// Batch reference.
	mgr, err := core.New(core.Config{
		Spec: testSpec(), CapacityBytes: 16 << 20, TokensPerPage: 8,
		EnablePrefixCache: true, RequestAware: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(engine.Config{Spec: testSpec(), Device: testDevice(), Manager: mgr, MaxBatchTokens: 512})
	if err != nil {
		t.Fatal(err)
	}
	want, err := eng.Run(gen())
	if err != nil {
		t.Fatal(err)
	}

	// Online drive of the identical workload.
	s := testServer(t, 16<<20, true, Config{Engine: engine.Config{MaxBatchTokens: 512}, SLOTTFT: slo})
	s.Pause()
	for _, r := range gen() {
		if _, err := s.Submit(context.Background(), r); err != nil {
			t.Fatal(err)
		}
	}
	s.Resume()
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	got := s.EngineResult()
	if got.Totals != want.Totals || got.Steps != want.Steps ||
		got.MeanTTFT != want.MeanTTFT || got.MeanE2E != want.MeanE2E || got.MeanTPOT != want.MeanTPOT ||
		got.MeanDecodeBatch != want.MeanDecodeBatch ||
		got.MeanKVUtil != want.MeanKVUtil || got.PeakKVUtil != want.PeakKVUtil {
		t.Errorf("online drive diverged from batch:\n got  %+v\n want %+v", got, want)
	}
	if len(got.PerRequest) != 0 {
		t.Errorf("the served engine retained %d records; the server's sink takes them", len(got.PerRequest))
	}
	rep := s.Report()
	if rep.Totals != want.Totals || rep.MeanKVUtil != want.MeanKVUtil || rep.PeakKVUtil != want.PeakKVUtil {
		t.Errorf("report totals diverged from batch:\n got  %+v\n want %+v", rep.Totals, want.Totals)
	}
	lat := want.Latency(slo)
	if rep.Latency != lat {
		t.Errorf("report latency diverged from the batch records' roll-up:\n got  %+v\n want %+v", rep.Latency, lat)
	}
	if lat.Goodput <= 0 || lat.Goodput >= rep.ReqPerSec || lat.SLOAttainment <= 0 || lat.SLOAttainment >= 1 ||
		lat.P50TTFT <= 0 || lat.P99TTFT < lat.P50TTFT || lat.P99E2E < lat.P50E2E {
		t.Errorf("latency roll-up is vacuous on this workload: %+v", lat)
	}
}

// TestReportNoStreams: a report over zero terminated streams must be
// all zeros (or the vacuous 1.0 attainment), never NaN and never a
// panic inside the percentile math.
func TestReportNoStreams(t *testing.T) {
	s := testServer(t, 8<<20, false, Config{})
	rep := s.Report()
	if rep.Submitted != 0 || rep.Finished != 0 || rep.Live != 0 {
		t.Fatalf("empty server report %+v", rep)
	}
	if rep.P50TTFT != 0 || rep.P99TTFT != 0 || rep.P50E2E != 0 || rep.P99E2E != 0 {
		t.Errorf("percentiles over no streams = %v/%v/%v/%v, want zeros",
			rep.P50TTFT, rep.P99TTFT, rep.P50E2E, rep.P99E2E)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"ReqPerSec", rep.ReqPerSec}, {"Goodput", rep.Goodput},
		{"SLOAttainment", rep.SLOAttainment}, {"ShedRate", rep.ShedRate},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			t.Errorf("%s = %v over zero streams", f.name, f.v)
		}
	}
	if len(rep.PerPriority) != 0 {
		t.Errorf("per-priority breakdown over zero streams: %+v", rep.PerPriority)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReportOneStream: p50 and p99 over a single finished stream must
// both equal that stream's latency.
func TestReportOneStream(t *testing.T) {
	s := testServer(t, 8<<20, false, Config{})
	st, err := s.Submit(context.Background(), testReqs(21, 1, 64, 4)[0])
	if err != nil {
		t.Fatal(err)
	}
	res, err := st.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	rep := s.Report()
	if rep.Finished != 1 {
		t.Fatalf("finished %d, want 1", rep.Finished)
	}
	if rep.P50TTFT != res.TTFT || rep.P99TTFT != res.TTFT {
		t.Errorf("TTFT percentiles %v/%v, want both %v", rep.P50TTFT, rep.P99TTFT, res.TTFT)
	}
	if rep.P50E2E != res.E2E || rep.P99E2E != res.E2E {
		t.Errorf("E2E percentiles %v/%v, want both %v", rep.P50E2E, rep.P99E2E, res.E2E)
	}
	if len(rep.PerPriority) != 1 || rep.PerPriority[0].Finished != 1 ||
		rep.PerPriority[0].P50TTFT != res.TTFT {
		t.Errorf("per-priority breakdown %+v, want one class mirroring the stream", rep.PerPriority)
	}
}

// TestReportAllShed: when every submission is shed, percentiles stay
// zero, the shed rate is 1, and attainment is well-defined.
func TestReportAllShed(t *testing.T) {
	s := testServer(t, 1<<20, false, Config{
		Engine:  engine.Config{Admission: engine.KVAdmission{}},
		SLOTTFT: 100 * time.Millisecond,
	})
	huge := testReqs(8, 3, 100, 4)
	for i := range huge {
		for len(huge[i].Prompt) < 40_000 {
			huge[i].Prompt = append(huge[i].Prompt, huge[i].Prompt...)
		}
		huge[i].Priority = i % 2
		if _, err := s.Submit(context.Background(), huge[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	rep := s.Report()
	if rep.Shed != 3 || rep.ShedRate != 1 || rep.Finished != 0 {
		t.Fatalf("report %+v, want 3 shed at rate 1", rep)
	}
	if rep.P50TTFT != 0 || rep.P99TTFT != 0 {
		t.Errorf("percentiles over all-shed = %v/%v, want zeros", rep.P50TTFT, rep.P99TTFT)
	}
	if math.IsNaN(rep.SLOAttainment) || math.IsNaN(rep.Goodput) || math.IsNaN(rep.ReqPerSec) {
		t.Errorf("NaN in all-shed report %+v", rep)
	}
	if len(rep.PerPriority) != 2 {
		t.Fatalf("per-priority classes %d, want 2", len(rep.PerPriority))
	}
	for _, pr := range rep.PerPriority {
		if pr.Finished != 0 || pr.Shed == 0 || math.IsNaN(pr.SLOAttainment) || math.IsNaN(pr.Goodput) {
			t.Errorf("per-priority all-shed row %+v", pr)
		}
	}
}

// TestReportPerPriorityBreakdown: two priority classes under a
// Priority scheduler — the breakdown must partition the submitted
// streams by class, in ascending priority order, with the high class
// seeing no worse p50 TTFT than the low class.
func TestReportPerPriorityBreakdown(t *testing.T) {
	s := testServer(t, 1<<20, false, Config{
		Engine:  engine.Config{Scheduler: sched.NewPriority()},
		SLOTTFT: time.Second,
	})
	s.Pause()
	reqs := testReqs(33, 16, 400, 32)
	for i := range reqs {
		reqs[i].Priority = i % 2
		if _, err := s.Submit(context.Background(), reqs[i]); err != nil {
			t.Fatal(err)
		}
	}
	s.Resume()
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	rep := s.Report()
	if len(rep.PerPriority) != 2 {
		t.Fatalf("per-priority classes %d, want 2: %+v", len(rep.PerPriority), rep.PerPriority)
	}
	lo, hi := rep.PerPriority[0], rep.PerPriority[1]
	if lo.Priority != 0 || hi.Priority != 1 {
		t.Fatalf("classes not ascending: %+v", rep.PerPriority)
	}
	if lo.Submitted != 8 || hi.Submitted != 8 {
		t.Errorf("submitted %d/%d, want 8/8", lo.Submitted, hi.Submitted)
	}
	if lo.Finished+hi.Finished != rep.Finished {
		t.Errorf("breakdown finished %d+%d != total %d", lo.Finished, hi.Finished, rep.Finished)
	}
	if hi.P50TTFT > lo.P50TTFT {
		t.Errorf("high-class p50 TTFT %v above low-class %v under a priority scheduler", hi.P50TTFT, lo.P50TTFT)
	}
}

// TestReportLivePriorityClass: a class whose streams are all still
// live must still appear in the breakdown with its Submitted count.
func TestReportLivePriorityClass(t *testing.T) {
	s := testServer(t, 8<<20, false, Config{})
	s.Pause()
	reqs := testReqs(41, 2, 64, 4)
	for i := range reqs {
		reqs[i].Priority = 3
		if _, err := s.Submit(context.Background(), reqs[i]); err != nil {
			t.Fatal(err)
		}
	}
	rep := s.Report() // nothing has terminated yet
	if len(rep.PerPriority) != 1 || rep.PerPriority[0].Priority != 3 ||
		rep.PerPriority[0].Submitted != 2 || rep.PerPriority[0].Finished != 0 {
		t.Errorf("live-class breakdown %+v, want class 3 with 2 submitted, 0 finished", rep.PerPriority)
	}
	s.Resume()
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
}

// TestStreamFork forks a live stream into branches mid-decode and
// checks each branch is a first-class stream: its own events (first
// token with no prefill), its own deterministic CancelAfter bound, its
// own report row — and that the shared KV is fully released at drain.
func TestStreamFork(t *testing.T) {
	s := testServer(t, 64<<20, true, Config{})
	// The pump stays parked through the set-up and the test steps the
	// engine itself, under the lock the pump would hold, to exactly 8
	// generated tokens: a running pump decodes on while this goroutine
	// reacts, so where a Pause lands is up to the goroutine scheduler
	// and can be past the bounds below.
	s.Pause()
	root, err := s.Submit(context.Background(), testReqs(51, 1, 200, 100_000)[0])
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	for root.generated < 8 && err == nil {
		err = s.eng.StepOnce()
	}
	s.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	kids, err := root.Fork(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(kids) != 2 {
		t.Fatalf("forked %d branches, want 2", len(kids))
	}
	if u := s.Snapshot().Usage; u.SharedBytes <= 0 {
		t.Errorf("no shared KV right after fork: %+v", u)
	}
	root.CancelAfter(40)
	for _, k := range kids {
		k.CancelAfter(60)
	}
	s.Resume()
	for _, k := range kids {
		sawFirst := false
		for ev := range k.Events() {
			if ev.Type == engine.EventFirstToken {
				sawFirst = true
			}
		}
		res, ok := k.Result()
		if !ok || res.State != StateCancelled || res.Generated != 60 {
			t.Fatalf("branch %d: %+v ok=%v, want cancelled at exactly 60", k.ID(), res, ok)
		}
		if !sawFirst || res.TTFT <= 0 {
			t.Errorf("branch %d: first token missing (saw=%v TTFT=%v)", k.ID(), sawFirst, res.TTFT)
		}
	}
	if res, err := root.Wait(context.Background()); err != nil || res.State != StateCancelled || res.Generated != 40 {
		t.Fatalf("root: %+v err %v, want cancelled at exactly 40", res, err)
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	rep := s.Report()
	if rep.Submitted != 3 || rep.Cancelled != 3 {
		t.Fatalf("report %+v, want 3 submitted, 3 cancelled", rep)
	}
	if u := s.Snapshot().Usage; u.Used != 0 || u.SharedBytes != 0 {
		t.Errorf("fork leaked KV: %+v", u)
	}
}

// TestStreamForkQueued: forking a stream that has not started decoding
// is an error, and the server stays usable.
func TestStreamForkQueued(t *testing.T) {
	s := testServer(t, 64<<20, true, Config{})
	s.Pause()
	st, err := s.Submit(context.Background(), testReqs(52, 1, 100, 4)[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Fork(1); err == nil {
		t.Error("fork of a queued stream should fail")
	}
	s.Resume()
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	if rep := s.Report(); rep.Finished != 1 {
		t.Fatalf("report %+v, want the root finished despite the failed fork", rep)
	}
}
