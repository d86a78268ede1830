package engine

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"jenga/internal/model"
	"jenga/internal/workload"
)

// The batch/online equivalence contract: Engine.Run is now a thin
// driver over the event-emitting streaming core, and these goldens pin
// its seeded metrics — every duration to the nanosecond, every float to
// nine digits — to the values the PR-1 pull-batch engine produced, as
// moved since only by the re-pins EXPERIMENTS.md lists with their
// reasons. If a scheduler change shifts any of them, that change is not
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
// shared prefixes).
func TestRunGoldenSeeded(t *testing.T) {
	checkGolden(t, runGolden(t, 4<<20), goldenExpect{
		steps: 364, finished: 72, failed: 0, preemptions: 0,
		duration: 610860015, meanTTFT: 4450517, meanE2E: 69794599, tpot: 1720633,
		cached: 7600, computed: 28400, generated: 2737,
		hitRate: "0.211111111", meanKV: "0.888267758", peakKV: "0.980266373",
		decodeBatch: "7.539944904",
	})
}

// TestRunGoldenSeededPressure pins the memory-pressure regime: every
// shared prefix is evicted before it is reused.
func TestRunGoldenSeededPressure(t *testing.T) {
	checkGolden(t, runGolden(t, 2<<20), goldenExpect{
		steps: 405, finished: 72, failed: 0, preemptions: 0,
		duration: 697904698, meanTTFT: 44512645, meanE2E: 109112921, tpot: 1699816,
		cached: 0, computed: 36000, generated: 2737,
		hitRate: "0.000000000", meanKV: "0.887679525", peakKV: "0.984726295",
		decodeBatch: "6.774752475",
	})
}

// TestRunGoldenSpeculative pins the same workload served as a
// target/draft pair under pressure: burst commits, the verify pass's
// budget cost and the draft's share of every step's price, all on one
// row.
func TestRunGoldenSpeculative(t *testing.T) {
	checkGolden(t, runGoldenSpec(t, miniPair(), 1280<<10), goldenExpect{
		steps: 375, finished: 72, failed: 0, preemptions: 0,
		duration: 2298386443, meanTTFT: 834090177, meanE2E: 918932725, tpot: 2251637,
		cached: 0, computed: 36000, generated: 2737,
		hitRate: "0.000000000", meanKV: "0.642206247", peakKV: "0.966353678",
		decodeBatch: "2.751336898",
	})
}

// TestRunMatchesManualDrive proves the batch driver is nothing but the
// streaming core: submitting the same workload by hand and stepping
// the core to drain reproduces Run's Result exactly, every record of
// PerRequest included — over the golden workload, a batch out of
// arrival order with ties, image prompts, fan-out roots and an
// admission policy that sheds. Run takes each request at its arrival
// and Submit at once, so what this pins is that the two reach every
// step with the same runs in the same order.
func TestRunMatchesManualDrive(t *testing.T) {
	golden := func(*testing.T) []workload.Request { return goldenWorkload() }
	shed := shedSet{}
	for i, r := range goldenWorkload() {
		if i%7 == 0 {
			shed[r.ID] = true
		}
	}
	for _, tc := range []struct {
		name     string
		spec     *model.Spec
		capacity int64
		cfg      Config
		reqs     func(*testing.T) []workload.Request
		check    func(*testing.T, *Result)
	}{
		{name: "golden", spec: miniWindowSpec(), capacity: 4 << 20, reqs: golden},
		{name: "unsorted with ties", spec: miniWindowSpec(), capacity: 4 << 20, reqs: func(t *testing.T) []workload.Request {
			reqs := goldenWorkload()
			slices.Reverse(reqs)
			for i := range reqs {
				reqs[i].Arrival = reqs[i].Arrival.Truncate(20 * time.Millisecond)
			}
			ties := 0
			for i := range reqs[1:] {
				if reqs[i].Arrival == reqs[i+1].Arrival {
					ties++
				}
			}
			if b := newBatch(reqs); b.order == nil || ties < 10 {
				t.Fatalf("%d ties, indexed %v: the batch does not cover the case", ties, b.order != nil)
			}
			return reqs
		}},
		{name: "images", spec: miniVLMSpec(), capacity: 8 << 20, cfg: Config{Vision: VisionFreeOnDemand}, reqs: func(*testing.T) []workload.Request {
			g := workload.NewGen(5)
			reqs := append(g.MMMUPro(30, 64), g.ShareGPT(30)...)
			for i := range reqs {
				reqs[i].Truncate(512)
				reqs[i].OutputLen = 4 + i%20
			}
			g.PoissonArrivals(reqs, 200)
			return reqs
		}, check: func(t *testing.T, res *Result) {
			if res.EncoderRuns == 0 {
				t.Fatal("no encoder run: the batch does not cover the case")
			}
		}},
		{name: "fan-out", spec: miniFullSpec(), capacity: 8 << 20, reqs: func(*testing.T) []workload.Request {
			reqs := goldenWorkload()
			for i := range reqs {
				if i%6 == 0 {
					reqs[i].Fanout, reqs[i].ForkAfter = 3, 2
				}
			}
			return reqs
		}, check: func(t *testing.T, res *Result) {
			if res.Finished <= 72 {
				t.Fatalf("%d finished of 72 requests: no branch ran", res.Finished)
			}
		}},
		{name: "shedding", spec: miniWindowSpec(), capacity: 4 << 20, cfg: Config{Admission: shed}, reqs: golden,
			check: func(t *testing.T, res *Result) {
				if res.Shed == 0 || res.Finished == 0 {
					t.Fatalf("shed %d, finished %d: the policy does not shed some and admit others", res.Shed, res.Finished)
				}
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			build := func() *Engine {
				cfg := tc.cfg
				cfg.Spec, cfg.Device, cfg.Manager = tc.spec, smallDevice(), jengaFor(t, tc.spec, tc.capacity, true)
				cfg.MaxBatchTokens, cfg.MaxPrefills = 512, 2
				e, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				return e
			}
			want, err := build().Run(tc.reqs(t))
			if err != nil {
				t.Fatal(err)
			}
			e := build()
			reqs := tc.reqs(t)
			for i := range reqs {
				if err := e.Submit(&reqs[i]); err != nil {
					t.Fatal(err)
				}
			}
			if err := e.Drain(); err != nil {
				t.Fatal(err)
			}
			got := e.ResultSnapshot()
			if len(got.PerRequest) == 0 || !reflect.DeepEqual(got, want) {
				i := 0
				for i < min(len(got.PerRequest), len(want.PerRequest)) && got.PerRequest[i] == want.PerRequest[i] {
					i++
				}
				g, w := *got, *want
				g.PerRequest, w.PerRequest = nil, nil
				t.Errorf("manual drive diverged from Run, first at record %d of %d (Run: %d):\n got %+v\nwant %+v", i, len(got.PerRequest), len(want.PerRequest), g, w)
			}
			if tc.check != nil {
				tc.check(t, want)
			}
		})
	}
}
