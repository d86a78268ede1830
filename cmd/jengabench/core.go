package main

import (
	"fmt"
	"io"
	"path/filepath"
	"testing"

	"jenga/internal/bench"
)

// BENCH_core.json: the committed core hot-path trajectory. "current"
// is regenerated by every run of the core scorecard (make bench-json);
// "baseline" is preserved from the existing file, so the before/after
// of an optimization PR stays visible — a run that first creates the
// file seeds baseline from its own numbers.

// coreBenchEntry is one hot path's measurement.
type coreBenchEntry struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// coreBenchSim is the end-to-end anchor next to the micro numbers.
type coreBenchSim struct {
	SimReqPerSec    float64 `json:"sim_req_per_s"`
	SimTokensPerSec float64 `json:"sim_tokens_per_s"`
	WallMs          float64 `json:"wall_ms"`
}

// coreBenchSet is one measured tree (baseline or current).
type coreBenchSet struct {
	Note    string                    `json:"note,omitempty"`
	Benches map[string]coreBenchEntry `json:"benches"`
	Sim     *coreBenchSim             `json:"sim,omitempty"`
}

// coreBenchFile is the BENCH_core.json schema.
type coreBenchFile struct {
	Baseline *coreBenchSet `json:"baseline,omitempty"`
	Current  *coreBenchSet `json:"current"`
}

// runCore measures the shared internal/bench fixtures and, with a
// directory, stores them as its BENCH_core.json's current set.
func runCore(w io.Writer, dir string) error {
	cur := &coreBenchSet{Benches: map[string]coreBenchEntry{}}
	for _, fx := range bench.All {
		op, err := fx.Make()
		if err != nil {
			return fmt.Errorf("bench %s: setup: %w", fx.Name, err)
		}
		r := testing.Benchmark(func(b *testing.B) { bench.Loop(b, op) })
		if r.N == 0 {
			return fmt.Errorf("bench %s: failed (op error mid-run)", fx.Name)
		}
		e := coreBenchEntry{
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
		cur.Benches[fx.Name] = e
		fmt.Fprintf(w, "%-24s %12.1f ns/op %8d B/op %6d allocs/op\n",
			fx.Name, e.NsPerOp, e.BytesPerOp, e.AllocsPerOp)
	}
	sim, err := bench.SimThroughput()
	if err != nil {
		return fmt.Errorf("bench sim: %w", err)
	}
	cur.Sim = &coreBenchSim{
		SimReqPerSec:    sim.ReqPerSec,
		SimTokensPerSec: sim.TokensPerSec,
		WallMs:          ms(sim.Wall),
	}
	fmt.Fprintf(w, "%-24s %12.1f req/s %10.0f tok/s  [%v wall]\n",
		"sim_throughput", sim.ReqPerSec, sim.TokensPerSec, sim.Wall)
	if dir == "" {
		return nil
	}
	path := filepath.Join(dir, "BENCH_core.json")
	err = updateJSON(path, func(f *coreBenchFile) error {
		f.Current = cur
		if f.Baseline == nil {
			seeded := *cur
			seeded.Note = "seeded from this run (no prior baseline)"
			f.Baseline = &seeded
		}
		return nil
	})
	if err == nil {
		fmt.Fprintf(w, "wrote %s\n", path)
	}
	return err
}
