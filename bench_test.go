package jenga_test

// One benchmark per table and figure of the paper's evaluation (§7),
// plus allocator micro-benchmarks. Each figure benchmark executes the
// corresponding experiment runner from internal/experiments at reduced
// scale and reports simulated-throughput metrics; run
//
//	go test -bench=. -benchmem
//
// for the whole suite, or cmd/jengabench for full-scale tables.

import (
	"io"
	"testing"

	"jenga"
	"jenga/internal/experiments"
)

// benchOpt keeps figure benchmarks fast enough for -bench=. runs.
var benchOpt = experiments.Options{Scale: 0.25, Seed: 42}

func runExperiment(b *testing.B, id string) {
	b.Helper()
	r, ok := experiments.Registry[id]
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := r(io.Discard, benchOpt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWasteAnalysis regenerates the §3.2 fragmentation table
// (mllama 79.6%, Gemma-2 25%, Ministral 56.25%).
func BenchmarkWasteAnalysis(b *testing.B) { runExperiment(b, "waste") }

// BenchmarkTable1 regenerates the Table 1 model/dataset matrix.
func BenchmarkTable1(b *testing.B) { runExperiment(b, "table1") }

// BenchmarkFig13Throughput regenerates the end-to-end throughput table
// on both devices (vLLM vs Jenga across seven models).
func BenchmarkFig13Throughput(b *testing.B) { runExperiment(b, "fig13") }

// BenchmarkFig14Latency regenerates the latency-vs-rate sweep (mllama).
func BenchmarkFig14Latency(b *testing.B) { runExperiment(b, "fig14") }

// BenchmarkFig15BatchSize regenerates the decode-batch timeline
// (Ministral, 20 long-document requests).
func BenchmarkFig15BatchSize(b *testing.B) { runExperiment(b, "fig15") }

// BenchmarkFig16Fragmentation regenerates the memory-breakdown
// timelines (static and dynamic traces).
func BenchmarkFig16Fragmentation(b *testing.B) { runExperiment(b, "fig16") }

// BenchmarkFig17PrefixCache regenerates the prefix-caching sweep over
// article-pool sizes.
func BenchmarkFig17PrefixCache(b *testing.B) { runExperiment(b, "fig17") }

// BenchmarkFig18VisionCache regenerates the VLM chunked-prefill
// comparison (vision embedding cache on four models).
func BenchmarkFig18VisionCache(b *testing.B) { runExperiment(b, "fig18") }

// BenchmarkFig19Speculative regenerates the speculative-decoding
// comparison (vLLM-max / vLLM-manual / Jenga shared heap).
func BenchmarkFig19Speculative(b *testing.B) { runExperiment(b, "fig19") }

// BenchmarkAblationPageSize regenerates the §4.4 LCM/GCD/MAX ablation.
func BenchmarkAblationPageSize(b *testing.B) { runExperiment(b, "ablation-page") }

// BenchmarkAblationRequestAware regenerates the §4.3 / Fig. 8
// request-aware placement ablation.
func BenchmarkAblationRequestAware(b *testing.B) { runExperiment(b, "ablation-reqaware") }

// BenchmarkAblationCheckpoint regenerates the §5.3 Mamba
// checkpoint-interval sweep.
func BenchmarkAblationCheckpoint(b *testing.B) { runExperiment(b, "ablation-ckpt") }

// --- cluster routing ----------------------------------------------------

// BenchmarkClusterRouting compares the three routing policies on a
// 4-replica fleet serving a shared-prefix workload (the tentpole
// cluster comparison: prefix-affinity vs load-oblivious and
// load-balanced routing).
func BenchmarkClusterRouting(b *testing.B) {
	for _, policy := range []jenga.RouterPolicy{
		jenga.RoundRobin, jenga.LeastLoaded, jenga.PrefixAffinity,
	} {
		b.Run(policy.String(), func(b *testing.B) {
			gen := jenga.NewWorkloadGen(42)
			reqs := gen.PrefixGroups(15, 12, 1024, 128)
			jenga.AllAtOnce(reqs)
			b.ReportAllocs()
			var hit float64
			for i := 0; i < b.N; i++ {
				c, err := jenga.NewCluster(jenga.ClusterConfig{
					Spec:     jenga.Models.Gemma2_2B(),
					Replicas: 4,
					Policy:   policy,
				})
				if err != nil {
					b.Fatal(err)
				}
				res, err := c.Serve(reqs)
				if err != nil {
					b.Fatal(err)
				}
				hit = res.HitRate
			}
			b.ReportMetric(100*hit, "hit%")
		})
	}
}

// --- allocator micro-benchmarks -----------------------------------------

// benchSpec is a two-type model exercising the LCM allocator.
func benchSpec() *jenga.Spec {
	return &jenga.Spec{
		Name: "bench", Params: 1_000_000, WeightBytes: 2, HiddenSize: 64,
		Groups: []jenga.KVGroup{
			{Name: "self", Kind: jenga.FullAttention, Layers: 3, BytesPerToken: 128, Scope: jenga.ScopeText},
			{Name: "cross", Kind: jenga.CrossAttention, Layers: 2, BytesPerToken: 128, Scope: jenga.ScopeImage},
		},
	}
}

// BenchmarkAllocatorChurn measures reserve/commit/release throughput on
// the two-level allocator (tokens per op).
func BenchmarkAllocatorChurn(b *testing.B) {
	mgr, err := jenga.NewManager(jenga.ManagerConfig{
		Spec: benchSpec(), CapacityBytes: 64 << 20, TokensPerPage: 16, RequestAware: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	const tokens = 512
	seq := &jenga.Sequence{ID: 1}
	for i := 0; i < tokens; i++ {
		tok := jenga.TextToken(int32(i + 1))
		if i%3 == 0 {
			tok = jenga.ImageToken(int32(i + 1))
		}
		seq.Tokens = append(seq.Tokens, tok)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq.ID = jenga.RequestID(i + 1)
		if err := mgr.Reserve(seq, tokens, jenga.Tick(i)); err != nil {
			b.Fatal(err)
		}
		mgr.Commit(seq, tokens, jenga.Tick(i))
		mgr.Release(seq, false)
	}
	b.ReportMetric(float64(tokens), "tokens/op")
}

// BenchmarkPrefixLookup measures cache-hit lookup over a long cached
// prefix (the admission-path cost).
func BenchmarkPrefixLookup(b *testing.B) {
	mgr, err := jenga.NewManager(jenga.ManagerConfig{
		Spec: benchSpec(), CapacityBytes: 256 << 20, TokensPerPage: 16,
		EnablePrefixCache: true, RequestAware: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	const tokens = 16_384
	seq := &jenga.Sequence{ID: 1, PromptLen: tokens}
	for i := 0; i < tokens; i++ {
		seq.Tokens = append(seq.Tokens, jenga.Token{ID: int32(i%50_000 + 1)})
	}
	if err := mgr.Reserve(seq, tokens, 1); err != nil {
		b.Fatal(err)
	}
	mgr.Commit(seq, tokens, 1)
	mgr.Release(seq, true)
	probe := &jenga.Sequence{ID: 2, PromptLen: tokens, Tokens: seq.Tokens}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if mgr.Lookup(probe) == 0 {
			b.Fatal("expected a cache hit")
		}
	}
	b.ReportMetric(tokens, "tokens/op")
}

// BenchmarkEvictionPressure measures allocation under continuous
// eviction (the §5.4 step-3/5 paths).
func BenchmarkEvictionPressure(b *testing.B) {
	mgr, err := jenga.NewManager(jenga.ManagerConfig{
		Spec: benchSpec(), CapacityBytes: 1 << 20, TokensPerPage: 16,
		EnablePrefixCache: true, RequestAware: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	const tokens = 256
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq := &jenga.Sequence{ID: jenga.RequestID(i + 1)}
		for j := 0; j < tokens; j++ {
			seq.Tokens = append(seq.Tokens, jenga.Token{ID: int32((i*31 + j) % 50_000)})
		}
		if err := mgr.Reserve(seq, tokens, jenga.Tick(i)); err != nil {
			b.Fatal(err)
		}
		mgr.Commit(seq, tokens, jenga.Tick(i))
		mgr.Release(seq, true) // cached → the next iteration must evict
	}
}
