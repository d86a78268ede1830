package engine

import (
	"testing"

	"jenga/internal/core"
	"jenga/internal/model"
	"jenga/internal/workload"
)

// miniFullSpec is a pure full-attention model: every shared prefix
// token stays resident, so fan-out memory arithmetic is exact.
func miniFullSpec() *model.Spec {
	return &model.Spec{
		Name: "mini-full", Params: 100_000_000, WeightBytes: 2, HiddenSize: 256,
		Groups: []model.KVGroup{
			{Name: "full", Kind: model.FullAttention, Layers: 4, BytesPerToken: 256},
		},
	}
}

func peakUsed(res *Result) int64 {
	var peak int64
	for _, s := range res.MemTimeline {
		if s.Usage.Used > peak {
			peak = s.Usage.Used
		}
	}
	return peak
}

// TestAutoFanout: a Fanout root expands into its branches at the
// divergence point, every branch finishes as a first-class request, and
// the branches share KV copy-on-write.
func TestAutoFanout(t *testing.T) {
	spec := miniFullSpec()
	mgr := jengaFor(t, spec, 32<<20, false)
	reqs := textReqs(21, 1, 128, 64)
	reqs[0].Fanout = 8
	// 128+19 tokens at fork: mid-block (tokens-per-page 8), so every
	// branch's first own decode writes into a shared partial block and
	// must privatize it.
	reqs[0].ForkAfter = 19
	res := runEngine(t, Config{Spec: spec, Device: smallDevice(), Manager: mgr,
		MaxBatchTokens: 512, SampleEvery: 1}, reqs)

	if res.Finished != 8 || res.Failed != 0 {
		t.Fatalf("finished %d failed %d, want 8/0", res.Finished, res.Failed)
	}
	st := mgr.(interface{ Stats() core.Stats }).Stats()
	if st.Forks != 7 {
		t.Errorf("forks = %d, want 7 (one per extra branch)", st.Forks)
	}
	if st.CowCopies == 0 {
		t.Error("divergent decode on shared pages must trigger CoW copies")
	}
	u := mgr.Usage()
	if u.Used != 0 || u.SharedBytes != 0 {
		t.Errorf("memory leak at end of run: %+v", u)
	}
}

// TestFanoutSharesPrefixKV pins the headline claim: n branches forked
// from one root hold far less KV than n independent requests with the
// same token budget, because the pre-divergence prefix exists once.
func TestFanoutSharesPrefixKV(t *testing.T) {
	spec := miniFullSpec()
	const (
		prompt = 128
		outLen = 256
		branch = 8
		forkAt = 224 // shared: 128+224 tokens; divergent: 32 per branch
	)

	forkReqs := textReqs(22, 1, prompt, outLen)
	forkReqs[0].Fanout = branch
	forkReqs[0].ForkAfter = forkAt
	forkRes := runEngine(t, Config{Spec: spec, Device: smallDevice(),
		Manager: jengaFor(t, spec, 16<<20, false), MaxBatchTokens: 512,
		SampleEvery: 1}, forkReqs)

	// Naive baseline: the same total work as branch independent
	// requests over the identical prompt (prefix cache off — nothing
	// shared, each holds its full context privately).
	naiveReqs := make([]workload.Request, branch)
	for i := range naiveReqs {
		naiveReqs[i] = textReqs(22, 1, prompt, outLen)[0]
		naiveReqs[i].ID = int64(i + 1)
	}
	workload.AllAtOnce(naiveReqs)
	naiveRes := runEngine(t, Config{Spec: spec, Device: smallDevice(),
		Manager: jengaFor(t, spec, 16<<20, false), MaxBatchTokens: 512,
		SampleEvery: 1}, naiveReqs)

	if forkRes.Finished != branch || naiveRes.Finished != branch {
		t.Fatalf("finished: fork %d naive %d, want %d each",
			forkRes.Finished, naiveRes.Finished, branch)
	}
	fp, np := peakUsed(forkRes), peakUsed(naiveRes)
	if fp == 0 || np == 0 {
		t.Fatal("expected nonzero memory peaks")
	}
	if np < 4*fp {
		t.Errorf("naive peak %d should be ≥4× fork peak %d (ratio %.2f)",
			np, fp, float64(np)/float64(fp))
	}
}

// TestForkStreaming drives the explicit Fork API through the streaming
// core: fork a decoding request mid-flight, drain, and both branches
// complete.
func TestForkStreaming(t *testing.T) {
	spec := miniFullSpec()
	mgr := jengaFor(t, spec, 32<<20, false)
	e, err := New(Config{Spec: spec, Device: smallDevice(), Manager: mgr, MaxBatchTokens: 512})
	if err != nil {
		t.Fatal(err)
	}
	var events []Event
	e.SetEventSink(func(ev Event) { events = append(events, ev) })

	req := &textReqs(23, 1, 64, 40)[0]
	if err := e.Submit(req); err != nil {
		t.Fatal(err)
	}

	// Forking before the parent reaches decode is an error.
	if err := e.Fork(req.ID, []int64{900}); err == nil {
		t.Error("fork of a still-prefilling request should fail")
	}
	// Step until the parent has produced a few tokens, then fork.
	for {
		if err := e.StepOnce(); err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, ev := range events {
			if ev.ID == req.ID && (ev.Type == EventFirstToken || ev.Type == EventToken) {
				n++
			}
		}
		if n >= 4 {
			break
		}
	}
	if err := e.Fork(req.ID, []int64{901, 902}); err != nil {
		t.Fatal(err)
	}
	if err := e.Fork(777, []int64{903}); err == nil {
		t.Error("fork of an unknown request should fail")
	}
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}

	res := e.ResultSnapshot()
	if res.Finished != 3 || res.Failed != 0 {
		t.Fatalf("finished %d failed %d, want 3/0", res.Finished, res.Failed)
	}
	// Each child emits a full first-class lifecycle: queued, first
	// token, finished.
	for _, id := range []int64{901, 902} {
		var queued, first, fin bool
		for _, ev := range events {
			if ev.ID != id {
				continue
			}
			switch ev.Type {
			case EventQueued:
				queued = true
			case EventFirstToken:
				first = true
			case EventFinished:
				fin = true
			}
		}
		if !queued || !first || !fin {
			t.Errorf("child %d lifecycle incomplete: queued=%v first=%v finished=%v",
				id, queued, first, fin)
		}
	}
	if u := mgr.Usage(); u.Used != 0 || u.SharedBytes != 0 {
		t.Errorf("memory leak after drain: %+v", u)
	}
}

// TestFanoutWithoutForker: a Fanout request on a manager that cannot
// fork degrades gracefully to a single stream.
func TestFanoutWithoutForker(t *testing.T) {
	spec := miniWindowSpec()
	mgr := pagedFor(t, spec, 8<<20, false)
	reqs := textReqs(24, 1, 64, 20)
	reqs[0].Fanout = 4
	res := runEngine(t, Config{Spec: spec, Device: smallDevice(), Manager: mgr,
		MaxBatchTokens: 512}, reqs)
	if res.Finished != 1 || res.Failed != 0 {
		t.Fatalf("finished %d failed %d, want 1/0", res.Finished, res.Failed)
	}

	e, err := New(Config{Spec: spec, Device: smallDevice(), Manager: mgr, MaxBatchTokens: 512})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Fork(1, []int64{2}); err == nil {
		t.Error("explicit Fork without a Forker manager should fail")
	}
}

// TestForkDeterminism: fan-out runs are bit-identical across repeats.
func TestForkDeterminism(t *testing.T) {
	spec := miniFullSpec()
	run := func() *Result {
		reqs := textReqs(25, 1, 96, 48)
		reqs[0].Fanout = 4
		reqs[0].ForkAfter = 8
		return runEngine(t, Config{Spec: spec, Device: smallDevice(),
			Manager: jengaFor(t, spec, 16<<20, false), MaxBatchTokens: 256}, reqs)
	}
	a, b := run(), run()
	if a.Duration != b.Duration || a.Steps != b.Steps || a.ReqPerSec != b.ReqPerSec ||
		a.TokensPerSec != b.TokensPerSec {
		t.Errorf("nondeterministic fan-out: %+v vs %+v", a, b)
	}
}

// TestBranchIDsUniqueAcrossEngines: two replicas each expand a fan-out
// root of their own, then one's branch migrates into the other. Branch
// IDs derive from their roots, so the destination never holds two live
// requests under one ID — and the migrated branch finishes there under
// its own.
func TestBranchIDsUniqueAcrossEngines(t *testing.T) {
	spec := miniFullSpec()
	engines := make([]*Engine, 2)
	branches := make([][]int64, 2)
	for i := range engines {
		e, err := New(Config{Spec: spec, Device: smallDevice(), Manager: jengaFor(t, spec, 16<<20, true), MaxBatchTokens: 512})
		if err != nil {
			t.Fatal(err)
		}
		e.SetEventSink(func(ev Event) {
			if ev.Type == EventQueued && ev.ID >= forkIDBase {
				branches[i] = append(branches[i], ev.ID)
			}
		})
		root := textReqs(int64(31+i), 1, 96, 48)[0]
		root.ID = int64(i + 1)
		root.Fanout, root.ForkAfter = 2, 2
		if err := e.Submit(&root); err != nil {
			t.Fatal(err)
		}
		for len(branches[i]) == 0 {
			if err := e.StepOnce(); err != nil {
				t.Fatal(err)
			}
		}
		engines[i] = e
	}
	m, ok := engines[0].MigrateOut(branches[0][0])
	if !ok {
		t.Fatal("the branch is not live on its source")
	}
	engines[1].MigrateIn(m)
	seen := map[int64]bool{}
	for _, q := range engines[1].queues() {
		for _, r := range q {
			if seen[r.req.ID] {
				t.Fatalf("destination holds two live requests with ID %d (branches minted: %v, %v)", r.req.ID, branches[0], branches[1])
			}
			seen[r.req.ID] = true
		}
	}
	for _, e := range engines {
		if err := e.Drain(); err != nil {
			t.Fatal(err)
		}
	}
	if res := engines[1].ResultSnapshot(); res.Finished != 3 {
		t.Fatalf("destination finished %d requests, want its root, its branch and the migrated branch", res.Finished)
	}
}

// TestSubmitRejectsFanoutOutOfRange: a fan-out branch IDs cannot be
// derived for is an error at Submit, not a panic or a collision later.
func TestSubmitRejectsFanoutOutOfRange(t *testing.T) {
	spec := miniFullSpec()
	e, err := New(Config{Spec: spec, Device: smallDevice(), Manager: jengaFor(t, spec, 16<<20, false)})
	if err != nil {
		t.Fatal(err)
	}
	ok := textReqs(41, 1, 32, 8)[0]
	for _, tc := range []struct {
		name   string
		id     int64
		fanout int
		valid  bool
	}{
		{"no fan-out", 7, 0, true},
		{"one branch", 8, 1, true},
		{"widest", 9, maxFanout, true},
		{"too wide", 10, maxFanout + 1, false},
		{"negative", 11, -1, false},
		{"root ID in the branch range", forkIDBase, 2, false},
		{"negative root ID", -5, 2, false},
		{"branch-range ID without fan-out", forkIDBase + 3, 0, true},
	} {
		r := ok
		r.ID, r.Fanout = tc.id, tc.fanout
		if err := e.Submit(&r); (err == nil) != tc.valid {
			t.Errorf("%s: Submit error %v, want valid=%v", tc.name, err, tc.valid)
		}
	}
}
