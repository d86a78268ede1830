package jenga_test

// Core hot-path micro-benchmarks: the allocator and engine paths the
// step loop exercises on every scheduled token. The fixtures live in
// internal/bench and are shared with `jengabench -scorecard core`, which
// commits their ns/op and allocs/op to BENCH_core.json so the perf
// trajectory has data points and regressions surface in review. Run
//
//	go test -bench='AllocSmall|ClaimRelease|LookupWarm|CommitDecode|RunStep|DeepQueueStep|BlockedAdmissionStep|FleetFetch' -benchmem .
//
// See each fixture's doc comment for the regime it pins down.

import (
	"testing"

	"jenga/internal/bench"
)

// benchOp builds one fixture and times it with the shared harness.
func benchOp(b *testing.B, mk func() (*bench.Op, error)) {
	b.Helper()
	op, err := mk()
	if err != nil {
		b.Fatal(err)
	}
	bench.Loop(b, op)
}

// BenchmarkAllocSmall: one §5.4 step-4 allocation plus release at
// ~99.9% utilization of a quarter-million-page pool.
func BenchmarkAllocSmall(b *testing.B) { benchOp(b, bench.AllocSmall) }

// BenchmarkClaimRelease: a one-block prefix-cache claim and release
// that re-keys a 4096-page large page for the step-3 LRU.
func BenchmarkClaimRelease(b *testing.B) { benchOp(b, bench.ClaimRelease) }

// BenchmarkLookupWarm: admission-path prefix lookup over a fully
// cached 8k-token prompt.
func BenchmarkLookupWarm(b *testing.B) { benchOp(b, bench.LookupWarm) }

// BenchmarkCommitDecode: the per-token reserve+commit of one decode.
func BenchmarkCommitDecode(b *testing.B) { benchOp(b, bench.CommitDecode) }

// BenchmarkRunStepSteadyState: one engine step with 32 decode-phase
// sequences at 2k context.
func BenchmarkRunStepSteadyState(b *testing.B) { benchOp(b, bench.RunStepSteadyState) }

// BenchmarkDeepQueueStep: one engine step with 35 decode-phase
// sequences at 2k context and 650 requests waiting behind them.
func BenchmarkDeepQueueStep(b *testing.B) { benchOp(b, bench.DeepQueueStep) }

// BenchmarkBlockedAdmissionStep: one priority engine step whose
// admission pass marks 15 blocked cold candidates before admitting a
// request that shares the running decode's prefix.
func BenchmarkBlockedAdmissionStep(b *testing.B) { benchOp(b, bench.BlockedAdmissionStep) }

// BenchmarkServeOnlineArrival: ServeOnline's per-arrival router-loop
// body over an 8-replica fleet — snapshot, route, submit.
func BenchmarkServeOnlineArrival(b *testing.B) { benchOp(b, bench.ServeOnlineArrival) }

// BenchmarkFleetFetch: the fleet miss path — peer lookup, export of
// sixteen tier pages, import, claim-restore — on a warm three-replica
// store.
func BenchmarkFleetFetch(b *testing.B) { benchOp(b, bench.FleetFetch) }
