package bench

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"jenga/internal/cluster"
	"jenga/internal/workload"
)

// ScaleOptions sizes one RunScale pass. The zero value is not runnable;
// callers set at least Requests (DefaultScaleOptions fills the rest).
type ScaleOptions struct {
	// Requests is the workload length (streamed, never materialized in
	// the ServeStream path).
	Requests int
	// Replicas is the fleet size; Shards the event-loop count.
	Replicas int
	Shards   int
	// Rate is the Poisson arrival rate (requests per simulated second).
	Rate float64
	// Groups/PrefixLen/SuffixLen shape the PrefixGroups workload.
	Groups    int
	PrefixLen int
	SuffixLen int
	// Seed drives both the workload and arrival generators.
	Seed int64
	// NewSource, when non-nil, overrides the built-in PrefixGroups
	// stream: it must return a fresh source yielding about Requests
	// monotone-arrival requests each call (callers pick the workload,
	// e.g. jengabench -stream-workload).
	NewSource func(opt ScaleOptions) workload.Source
}

// DefaultScaleOptions fills unset fields with the committed scale
// scorecard's shape: a 16-replica fleet under a high-rate shared-prefix
// stream.
func DefaultScaleOptions(opt ScaleOptions) ScaleOptions {
	if opt.Requests <= 0 {
		opt.Requests = 100_000
	}
	if opt.Replicas <= 0 {
		opt.Replicas = 16
	}
	if opt.Shards <= 0 {
		opt.Shards = 1
	}
	if opt.Rate <= 0 {
		opt.Rate = 4000
	}
	if opt.Groups <= 0 {
		opt.Groups = 64
	}
	if opt.PrefixLen <= 0 {
		opt.PrefixLen = 512
	}
	if opt.SuffixLen <= 0 {
		opt.SuffixLen = 48
	}
	if opt.Seed == 0 {
		opt.Seed = 42
	}
	// The workload is Groups interleaved round-robin streams, so the
	// request count rounds up to a whole number of rounds.
	perGroup := (opt.Requests + opt.Groups - 1) / opt.Groups
	opt.Requests = perGroup * opt.Groups
	return opt
}

// ScaleResult is one scale-harness measurement: simulated outcome plus
// the wall-clock and memory cost of producing it.
type ScaleResult struct {
	Requests int
	Replicas int
	Shards   int
	// Finished/HitRate/SimDuration/ReqPerSimSec summarize the simulated
	// run (fidelity anchors: these must not move with Shards).
	Finished     int
	HitRate      float64
	SimDuration  time.Duration
	ReqPerSimSec float64
	// Wall is the harness wall time; ReqPerWallSec the simulator's
	// processing rate (requests per wall second).
	Wall          time.Duration
	ReqPerWallSec float64
	// PeakHeapBytes is the maximum sampled live heap during the run —
	// the bounded-memory evidence for streamed workloads.
	PeakHeapBytes int64
}

// scaleCluster builds the fleet the scale harness drives: prefix-
// affinity routing (load-oblivious, so results are bit-identical at
// every shard count) over textSpec replicas.
func scaleCluster(opt ScaleOptions) (*cluster.Cluster, error) {
	return cluster.New(cluster.Config{
		Spec:          textSpec("bench-scale"),
		Replicas:      opt.Replicas,
		Policy:        cluster.PrefixAffinity,
		CapacityBytes: 64 << 20,
	})
}

// scaleSource builds the streamed workload: Poisson arrivals over
// interleaved prefix groups, one Gen per pipeline stage (or the
// caller's NewSource override).
func scaleSource(opt ScaleOptions) workload.Source {
	if opt.NewSource != nil {
		return opt.NewSource(opt)
	}
	perGroup := (opt.Requests + opt.Groups - 1) / opt.Groups
	gen := workload.NewGen(opt.Seed)
	src := gen.PrefixGroupsSource(opt.Groups, perGroup, opt.PrefixLen, opt.SuffixLen)
	return workload.PoissonSource(src, workload.NewGen(opt.Seed+1), opt.Rate)
}

// heapWatcher samples the live heap until stopped.
type heapWatcher struct {
	peak int64
	stop chan struct{}
	wg   sync.WaitGroup
}

func watchHeap() *heapWatcher {
	// Collect the previous run's garbage first so the peak measures
	// this run, not its predecessor's leftovers.
	runtime.GC()
	w := &heapWatcher{stop: make(chan struct{})}
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		var ms runtime.MemStats
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			runtime.ReadMemStats(&ms)
			if h := int64(ms.HeapAlloc); h > atomic.LoadInt64(&w.peak) {
				atomic.StoreInt64(&w.peak, h)
			}
			select {
			case <-w.stop:
				return
			case <-t.C:
			}
		}
	}()
	return w
}

func (w *heapWatcher) done() int64 {
	close(w.stop)
	w.wg.Wait()
	return w.peak
}

// RunScale drives one streamed ServeStream pass at the given shape and
// returns its scorecard row.
func RunScale(opt ScaleOptions) (ScaleResult, error) {
	opt = DefaultScaleOptions(opt)
	c, err := scaleCluster(opt)
	if err != nil {
		return ScaleResult{}, err
	}
	w := watchHeap()
	start := time.Now()
	res, err := c.ServeStream(scaleSource(opt), cluster.StreamConfig{Shards: opt.Shards})
	wall := time.Since(start)
	peak := w.done()
	if err != nil {
		return ScaleResult{}, err
	}
	return scaleRow(opt, res, wall, peak), nil
}

// RunScaleSerial is RunScale over the serial ServeOnline path — the
// same workload materialized into a slice — the baseline the streamed
// path's algorithmic speedup is measured against. Shards reports 0.
func RunScaleSerial(opt ScaleOptions) (ScaleResult, error) {
	opt = DefaultScaleOptions(opt)
	c, err := scaleCluster(opt)
	if err != nil {
		return ScaleResult{}, err
	}
	w := watchHeap()
	reqs := workload.Collect(scaleSource(opt))
	start := time.Now()
	res, err := c.ServeOnline(reqs)
	wall := time.Since(start)
	peak := w.done()
	if err != nil {
		return ScaleResult{}, err
	}
	row := scaleRow(opt, res, wall, peak)
	row.Shards = 0
	return row, nil
}

func scaleRow(opt ScaleOptions, res *cluster.Result, wall time.Duration, peak int64) ScaleResult {
	out := ScaleResult{
		Requests:      opt.Requests,
		Replicas:      opt.Replicas,
		Shards:        opt.Shards,
		Finished:      res.Finished,
		HitRate:       res.HitRate,
		SimDuration:   res.Duration,
		ReqPerSimSec:  res.ReqPerSec,
		Wall:          wall,
		PeakHeapBytes: peak,
	}
	if wall > 0 {
		out.ReqPerWallSec = float64(opt.Requests) / wall.Seconds()
	}
	return out
}
