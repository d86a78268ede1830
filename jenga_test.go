package jenga_test

// Black-box tests of the public API facade: everything a downstream
// user touches must work through the root package alone.

import (
	"context"
	"errors"
	"testing"
	"time"

	"jenga"
)

func TestModelsZoo(t *testing.T) {
	all := jenga.Models.All()
	if len(all) < 15 {
		t.Fatalf("zoo has %d models, want ≥ 15", len(all))
	}
	spec, err := jenga.Models.ByName("jamba")
	if err != nil {
		t.Fatal(err)
	}
	if !spec.IsHeterogeneous() {
		t.Error("jamba should be heterogeneous")
	}
	if _, err := jenga.Models.ByName("missing"); err == nil {
		t.Error("unknown model should error")
	}
}

func TestPublicManagerLifecycle(t *testing.T) {
	spec := jenga.Models.Gemma2_9B()
	mgr, err := jenga.NewManager(jenga.ManagerConfig{
		Spec: spec, CapacityBytes: 1 << 30, EnablePrefixCache: true, RequestAware: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	seq := &jenga.Sequence{ID: 1, PromptLen: 1000}
	for i := 0; i < 1000; i++ {
		seq.Tokens = append(seq.Tokens, jenga.Token{ID: int32(i + 1)})
	}
	if err := mgr.Reserve(seq, 1000, 1); err != nil {
		t.Fatal(err)
	}
	mgr.Commit(seq, 1000, 1)
	u := mgr.Usage()
	if u.Used == 0 {
		t.Error("expected used memory")
	}
	if u.Used+u.Cached+u.Wasted+u.Free != mgr.Capacity() {
		t.Error("conservation violated through public API")
	}
	mgr.Release(seq, true)
	probe := &jenga.Sequence{ID: 2, PromptLen: 1000, Tokens: seq.Tokens}
	if hit := mgr.Lookup(probe); hit == 0 {
		t.Error("expected a prefix hit")
	}
}

func TestPublicBaselineAndBudget(t *testing.T) {
	spec := jenga.Models.Llama31_8B()
	budget, err := jenga.KVBudget(spec, jenga.H100(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if budget <= 0 {
		t.Fatal("budget must be positive")
	}
	if _, err := jenga.KVBudget(jenga.Models.Jamba52B(), jenga.L4(), 0); err == nil {
		t.Error("jamba on L4 should OOM")
	}
	mgr, err := jenga.NewPagedBaseline(jenga.BaselineConfig{Spec: spec, CapacityBytes: 1 << 28})
	if err != nil {
		t.Fatal(err)
	}
	seq := &jenga.Sequence{ID: 5, Tokens: []jenga.Token{{ID: 1}, {ID: 2}}}
	if err := mgr.Reserve(seq, 2, 1); err != nil {
		t.Fatal(err)
	}
	mgr.Commit(seq, 2, 1)
	mgr.Release(seq, false)
}

func TestPublicEngineRun(t *testing.T) {
	spec := jenga.Models.CharacterAI8B()
	mgr, err := jenga.NewManager(jenga.ManagerConfig{
		Spec: spec, CapacityBytes: 1 << 30, RequestAware: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	dev := jenga.Device{Name: "test", MemBytes: 1 << 32, FLOPS: 50e12, MemBW: 500e9}
	eng, err := jenga.NewEngine(jenga.EngineConfig{
		Spec: spec, Device: dev, Manager: mgr, MaxBatchTokens: 1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	g := jenga.NewWorkloadGen(3)
	reqs := g.MMLUPro(8, 128)
	for i := range reqs {
		if len(reqs[i].Prompt) > 500 {
			reqs[i].Prompt = reqs[i].Prompt[:500]
		}
		reqs[i].OutputLen = 8
	}
	jenga.AllAtOnce(reqs)
	res, err := eng.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Finished != 8 {
		t.Errorf("finished %d of 8", res.Finished)
	}
	if res.ReqPerSec <= 0 {
		t.Error("throughput must be positive")
	}
}

func TestPublicClusterServe(t *testing.T) {
	g := jenga.NewWorkloadGen(9)
	reqs := g.PrefixGroups(7, 6, 256, 32)
	jenga.AllAtOnce(reqs)
	c, err := jenga.NewCluster(jenga.ClusterConfig{
		Spec:          jenga.Models.Gemma2_2B(),
		Replicas:      4,
		Policy:        jenga.PrefixAffinity,
		CapacityBytes: 256 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Serve(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Finished != len(reqs) {
		t.Errorf("finished %d of %d", res.Finished, len(reqs))
	}
	if res.HitRate <= 0 {
		t.Error("shared-prefix workload must hit the prefix cache")
	}
	if len(res.PerReplica) != 4 {
		t.Errorf("PerReplica has %d entries, want 4", len(res.PerReplica))
	}
	// Same prefix hash → same replica, via the exported hash.
	h1 := jenga.PrefixHash(reqs[0].Prompt, 256)
	h7 := jenga.PrefixHash(reqs[7].Prompt, 256) // same group, next round
	if reqs[0].Group == reqs[7].Group && h1 != h7 {
		t.Error("shared prefixes must share PrefixHash")
	}
	if got := len(jenga.SplitByGroup(reqs)); got != 7 {
		t.Errorf("SplitByGroup found %d groups, want 7", got)
	}
}

func TestPublicOnlineServing(t *testing.T) {
	spec := jenga.Models.Gemma2_2B()
	mgr, err := jenga.NewManager(jenga.ManagerConfig{
		Spec: spec, CapacityBytes: 256 << 20, EnablePrefixCache: true, RequestAware: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := jenga.NewServer(jenga.ServerConfig{
		Engine: jenga.EngineConfig{
			Spec: spec, Device: jenga.H100(), Manager: mgr,
			Admission: jenga.AdmissionChain(jenga.KVAdmission{}, jenga.SLOAdmission{TTFT: time.Second}),
		},
		SLOTTFT: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	g := jenga.NewWorkloadGen(9)
	reqs := g.PrefixGroups(3, 4, 256, 32)
	jenga.SetDeadlines(reqs, 30*time.Second)
	var streams []*jenga.Stream
	for _, r := range reqs {
		st, err := srv.Submit(context.Background(), r)
		if err != nil {
			t.Fatal(err)
		}
		streams = append(streams, st)
	}
	for _, st := range streams {
		res, err := st.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if res.State != jenga.StreamFinished || !res.DeadlineMet {
			t.Fatalf("stream %d: %+v, want finished within deadline", st.ID(), res)
		}
	}
	if err := srv.Drain(); err != nil {
		t.Fatal(err)
	}
	rep := srv.Report()
	if rep.Finished != len(reqs) || rep.SLOAttainment <= 0 || rep.Goodput <= 0 {
		t.Errorf("report %+v, want %d finishes with positive goodput", rep, len(reqs))
	}
	// The online cluster path works through the facade too.
	c, err := jenga.NewCluster(jenga.ClusterConfig{
		Spec: spec, Replicas: 2, Policy: jenga.LeastLoaded,
		CapacityBytes: 256 << 20, Admission: jenga.KVAdmission{},
	})
	if err != nil {
		t.Fatal(err)
	}
	cres, err := c.ServeOnline(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if cres.Finished+cres.Failed+cres.Shed != len(reqs) {
		t.Errorf("online cluster accounting: %+v over %d requests", cres, len(reqs))
	}
}

// TestPublicSpeculative: a WithDraft pair is served by the ordinary
// manager and engine constructors, every request finishing in bursts.
func TestPublicSpeculative(t *testing.T) {
	pair := jenga.WithDraft(jenga.Models.Gemma2_9B(), jenga.Models.Gemma2_2B())
	mgr, err := jenga.NewManager(jenga.ManagerConfig{Spec: pair, CapacityBytes: 1 << 30, TokensPerPage: 16, RequestAware: true})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := jenga.NewEngine(jenga.EngineConfig{
		Spec: pair, Manager: mgr, SampleEvery: 1,
		Device: jenga.Device{Name: "t", MemBytes: 1 << 32, FLOPS: 50e12, MemBW: 500e9},
	})
	if err != nil {
		t.Fatal(err)
	}
	g := jenga.NewWorkloadGen(4)
	reqs := g.ShareGPT(4)
	for i := range reqs {
		if len(reqs[i].Prompt) > 300 {
			reqs[i].Prompt = reqs[i].Prompt[:300]
		}
		reqs[i].OutputLen = 12
	}
	jenga.AllAtOnce(reqs)
	res, err := eng.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Finished != 4 || res.GeneratedTokens != 4*11 {
		t.Errorf("finished %d of 4, generated %d tokens, want %d", res.Finished, res.GeneratedTokens, 4*11)
	}
	passes := 0
	for _, b := range res.DecodeBatchTimeline {
		passes += b
	}
	if passes >= 4*11 || passes*(jenga.SpecK+1) < 4*11 {
		t.Errorf("%d verify passes for %d tokens: want bursts of 1 to %d", passes, 4*11, jenga.SpecK+1)
	}
}

func TestPublicGeometry(t *testing.T) {
	spec := jenga.Models.Jamba52B()
	geo, err := spec.Geometry(jenga.LCMPage, 16)
	if err != nil {
		t.Fatal(err)
	}
	if geo.Ratio["attn"] != 588 {
		t.Errorf("attn ratio = %d, want 588", geo.Ratio["attn"])
	}
	if _, err := spec.Geometry(jenga.GCDPage, 16); err != nil {
		t.Fatal(err)
	}
	if _, err := spec.Geometry(jenga.MaxPage, 16); err != nil {
		t.Fatal(err)
	}
}

func TestErrNoSpaceExported(t *testing.T) {
	spec := jenga.Models.Llama31_8B()
	mgr, err := jenga.NewManager(jenga.ManagerConfig{Spec: spec, CapacityBytes: 1 << 21})
	if err != nil {
		t.Fatal(err)
	}
	seq := &jenga.Sequence{ID: 1}
	for i := 0; i < 10_000; i++ {
		seq.Tokens = append(seq.Tokens, jenga.Token{ID: int32(i + 1)})
	}
	err = mgr.Reserve(seq, 10_000, 1)
	if !errors.Is(err, jenga.ErrNoSpace) {
		t.Errorf("expected ErrNoSpace, got %v", err)
	}
}

// TestPublicScheduler exercises the re-exported scheduling surface:
// the comparator, and an engine run under each built-in.
func TestPublicScheduler(t *testing.T) {
	if jenga.CompareSchedule(jenga.SchedReqInfo{Priority: 1}, jenga.SchedReqInfo{}) != -1 {
		t.Error("CompareSchedule must schedule the higher priority first")
	}
	spec := jenga.Models.CharacterAI8B()
	dev := jenga.Device{Name: "test", MemBytes: 1 << 32, FLOPS: 50e12, MemBW: 500e9}
	for _, scheduler := range []jenga.Scheduler{
		jenga.NewFCFS(), jenga.NewPriority(), jenga.NewSJF(),
		jenga.NewFairShare(map[int64]float64{1: 2}),
		jenga.WithPrefillReserve(jenga.NewFCFS(), 0.25),
	} {
		mgr, err := jenga.NewManager(jenga.ManagerConfig{
			Spec: spec, CapacityBytes: 1 << 28, RequestAware: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		eng, err := jenga.NewEngine(jenga.EngineConfig{
			Spec: spec, Device: dev, Manager: mgr, MaxBatchTokens: 1024,
			Scheduler: scheduler,
		})
		if err != nil {
			t.Fatal(err)
		}
		g := jenga.NewWorkloadGen(3)
		reqs := g.PrefixGroups(3, 4, 256, 16)
		for i := range reqs {
			reqs[i].Priority = i % 2
		}
		jenga.AllAtOnce(reqs)
		res, err := eng.Run(reqs)
		if err != nil {
			t.Fatalf("%s: %v", scheduler.Name(), err)
		}
		if res.Finished != len(reqs) {
			t.Errorf("%s: finished %d of %d", scheduler.Name(), res.Finished, len(reqs))
		}
	}
}
