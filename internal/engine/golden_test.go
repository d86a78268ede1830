package engine

import (
	"fmt"
	"testing"
	"time"

	"jenga/internal/model"
	"jenga/internal/workload"
)

// The batch/online equivalence contract: Engine.Run is now a thin
// driver over the event-emitting streaming core, and these goldens pin
// its seeded metrics to the exact values the PR-1 pull-batch engine
// produced — every duration to the nanosecond, every float to nine
// digits. If a scheduler change shifts any of them, that change is not
// a refactor.

// goldenWorkload is the seeded scenario both goldens share: six prefix
// classes arriving at 150 req/s.
func goldenWorkload() []workload.Request {
	g := workload.NewGen(42)
	reqs := g.PrefixGroups(6, 12, 400, 100)
	g.PoissonArrivals(reqs, 150)
	return reqs
}

func runGolden(t *testing.T, capacity int64) *Result {
	t.Helper()
	return runGoldenSpec(t, miniWindowSpec(), capacity)
}

func runGoldenSpec(t *testing.T, spec *model.Spec, capacity int64) *Result {
	t.Helper()
	mgr := jengaFor(t, spec, capacity, true)
	e, err := New(Config{Spec: spec, Device: smallDevice(), Manager: mgr, MaxBatchTokens: 512, MaxPrefills: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(goldenWorkload())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

type goldenExpect struct {
	steps, finished, failed, preemptions int
	duration, meanTTFT, meanE2E, tpot    time.Duration
	cached, computed, generated          int64
	hitRate, meanKV, peakKV, decodeBatch string // %.9f
}

func checkGolden(t *testing.T, res *Result, want goldenExpect) {
	t.Helper()
	if res.Steps != want.steps || res.Finished != want.finished || res.Failed != want.failed || res.Preemptions != want.preemptions {
		t.Errorf("steps/finished/failed/preempt = %d/%d/%d/%d, want %d/%d/%d/%d",
			res.Steps, res.Finished, res.Failed, res.Preemptions,
			want.steps, want.finished, want.failed, want.preemptions)
	}
	if res.Duration != want.duration || res.MeanTTFT != want.meanTTFT || res.MeanE2E != want.meanE2E || res.MeanTPOT != want.tpot {
		t.Errorf("duration/ttft/e2e/tpot = %d/%d/%d/%d, want %d/%d/%d/%d",
			int64(res.Duration), int64(res.MeanTTFT), int64(res.MeanE2E), int64(res.MeanTPOT),
			int64(want.duration), int64(want.meanTTFT), int64(want.meanE2E), int64(want.tpot))
	}
	if res.CachedPromptTokens != want.cached || res.ComputedPromptTokens != want.computed || res.GeneratedTokens != want.generated {
		t.Errorf("cached/computed/generated = %d/%d/%d, want %d/%d/%d",
			res.CachedPromptTokens, res.ComputedPromptTokens, res.GeneratedTokens,
			want.cached, want.computed, want.generated)
	}
	for _, c := range []struct{ name, got, want string }{
		{"hitRate", fmt.Sprintf("%.9f", res.HitRate), want.hitRate},
		{"meanKVUtil", fmt.Sprintf("%.9f", res.MeanKVUtil), want.meanKV},
		{"peakKVUtil", fmt.Sprintf("%.9f", res.PeakKVUtil), want.peakKV},
		{"meanDecodeBatch", fmt.Sprintf("%.9f", res.MeanDecodeBatch), want.decodeBatch},
	} {
		if c.got != c.want {
			t.Errorf("%s = %s, want %s", c.name, c.got, c.want)
		}
	}
}

// TestRunGoldenSeeded pins the cache-hit regime (capacity fits the
// shared prefixes) to the PR-1 numbers.
func TestRunGoldenSeeded(t *testing.T) {
	checkGolden(t, runGolden(t, 4<<20), goldenExpect{
		steps: 364, finished: 72, failed: 0, preemptions: 0,
		duration: 610860021, meanTTFT: 4447128, meanE2E: 69768203, tpot: 1720666,
		cached: 7600, computed: 28400, generated: 2737,
		hitRate: "0.211111111", meanKV: "0.882433203", peakKV: "0.980266373",
		decodeBatch: "7.539944904",
	})
}

// TestRunGoldenSeededPressure pins the memory-pressure regime (caches
// evicted, one preemption) to the PR-1 numbers.
func TestRunGoldenSeededPressure(t *testing.T) {
	checkGolden(t, runGolden(t, 2<<20), goldenExpect{
		steps: 420, finished: 72, failed: 0, preemptions: 1,
		duration: 718772744, meanTTFT: 51702475, meanE2E: 115422445, tpot: 1674159,
		cached: 0, computed: 36005, generated: 2737,
		hitRate: "0.000000000", meanKV: "0.861000559", peakKV: "0.984726295",
		decodeBatch: "6.532219570",
	})
}

// TestRunGoldenSpeculative pins the same workload served as a
// target/draft pair under pressure (two preemptions): burst commits,
// the verify pass's budget cost and the draft's share of every step's
// price, all on one row.
func TestRunGoldenSpeculative(t *testing.T) {
	checkGolden(t, runGoldenSpec(t, miniPair(), 1280<<10), goldenExpect{
		steps: 389, finished: 72, failed: 0, preemptions: 2,
		duration: 2372006155, meanTTFT: 837470429, meanE2E: 922114669, tpot: 2247118,
		cached: 32, computed: 36009, generated: 2737,
		hitRate: "0.000887878", meanKV: "0.675206151", peakKV: "0.899550078",
		decodeBatch: "2.658914729",
	})
}

// TestRunMatchesManualDrive proves the batch driver is nothing but the
// streaming core: submitting the same workload by hand and stepping
// the core to drain reproduces Run's result exactly.
func TestRunMatchesManualDrive(t *testing.T) {
	spec := miniWindowSpec()
	want := runGolden(t, 4<<20)

	mgr := jengaFor(t, spec, 4<<20, true)
	e, err := New(Config{Spec: spec, Device: smallDevice(), Manager: mgr, MaxBatchTokens: 512, MaxPrefills: 2})
	if err != nil {
		t.Fatal(err)
	}
	reqs := goldenWorkload()
	e.Reset()
	for i := range reqs {
		if err := e.Submit(&reqs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	got := e.ResultSnapshot()
	if got.Steps != want.Steps || got.Duration != want.Duration ||
		got.Finished != want.Finished || got.CachedPromptTokens != want.CachedPromptTokens ||
		got.GeneratedTokens != want.GeneratedTokens || got.MeanTTFT != want.MeanTTFT ||
		got.MeanKVUtil != want.MeanKVUtil {
		t.Errorf("manual drive diverged from Run: got %+v want %+v", got, want)
	}
}
