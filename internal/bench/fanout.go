package bench

import (
	"time"

	"jenga/internal/core"
	"jenga/internal/engine"
	"jenga/internal/gpu"
	"jenga/internal/workload"
)

// FanoutOptions configures one fan-out serving run. It is engine-level
// — one replica, with the allocator's fork counters and a per-step
// memory timeline no cluster.Result carries — but takes its shape from
// a Scenario: Spec, Device and CapacityBytes describe the replica,
// Requests is the number of fan-out roots, PrefixLen their prompt
// length, Rate and Seed their Poisson arrivals. Each root branches into
// Branch streams after ForkAfter output tokens, every branch decoding
// to OutputLen total. The same options drive both sides of the
// scorecard: the fork mode (copy-on-write branching via core.Forker)
// and, with Naive set, the baseline an engine without forking must
// serve — every root lowered to Branch independent requests over the
// identical prompt. Prefix caching is on in both modes, so the naive
// side still shares what claiming can share (prompt blocks); the delta
// isolates what only forking can share: the generated pre-divergence
// region.
type FanoutOptions struct {
	Scenario
	ForkAfter, OutputLen, Branch int
	// Naive lowers every root to Branch independent requests.
	Naive bool
}

// FanoutResult is one mode's scorecard: the KV footprint of the fan-out
// (peak bytes, and per branch at the peak) plus branch-serving metrics.
type FanoutResult struct {
	// PeakKVBytes is the peak live KV across the run (sampled every
	// step); KVBytesPerBranch divides it by the total branch count.
	PeakKVBytes      int64
	KVBytesPerBranch float64
	// Forks, CowCopies and CowCopyBytes report the sharing machinery's
	// work (zero in naive mode).
	Forks, CowCopies, CowCopyBytes int64
	// Branch-serving metrics: every branch finishes as a first-class
	// request, so Finished counts branches, not roots.
	Finished, Failed int
	ReqPerSec        float64
	// P50TTFT/P99TTFT are time-to-first-token percentiles over
	// branches. A forked branch's clock starts at the fork instant and
	// its first token needs no prefill — the latency face of sharing.
	P50TTFT, P99TTFT time.Duration
}

// RunFanout runs one fan-out serving benchmark mode on a fresh
// single-replica engine.
func RunFanout(o FanoutOptions) (*FanoutResult, error) {
	if o.Device == (gpu.Device{}) {
		o.Device = gpu.H100()
	}
	gen := workload.NewGen(o.Seed)
	reqs := gen.FanOut(o.Requests, o.PrefixLen, o.ForkAfter, o.OutputLen, o.Branch)
	if o.Rate > 0 {
		gen.PoissonArrivals(reqs, o.Rate)
	} else {
		workload.AllAtOnce(reqs)
	}
	if o.Naive {
		reqs = workload.NaiveFanOut(reqs)
	}
	mgr, err := core.New(core.Config{
		Spec: o.Spec, CapacityBytes: o.CapacityBytes,
		EnablePrefixCache: true, RequestAware: true,
	})
	if err != nil {
		return nil, err
	}
	eng, err := engine.New(engine.Config{
		Spec: o.Spec, Device: o.Device, Manager: mgr, SampleEvery: 1,
	})
	if err != nil {
		return nil, err
	}
	res, err := eng.Run(reqs)
	if err != nil {
		return nil, err
	}
	branches := max(1, o.Requests*o.Branch)
	out := &FanoutResult{
		Finished: res.Finished, Failed: res.Failed, ReqPerSec: res.ReqPerSec,
	}
	for _, s := range res.MemTimeline {
		if s.Usage.Used > out.PeakKVBytes {
			out.PeakKVBytes = s.Usage.Used
		}
	}
	out.KVBytesPerBranch = float64(out.PeakKVBytes) / float64(branches)
	st := mgr.Stats()
	out.Forks, out.CowCopies, out.CowCopyBytes = st.Forks, st.CowCopies, st.CowCopyBytes
	lat := res.Latency(0)
	out.P50TTFT, out.P99TTFT = lat.P50TTFT, lat.P99TTFT
	return out, nil
}
