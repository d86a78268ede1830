// Command jengabench runs the repository's two kinds of measurement.
//
// Experiments (-exp) replay the paper's tables and figures by ID and
// print their rows and series.
//
// Scorecards (-scorecard) are the serving trajectory tracked across
// PRs: each is a named table — one base bench.Scenario and its variants
// — defined as Go values in scorecards.go. One runner executes every
// variant, one row type flattens every result, one table printer shows
// it and, with -bench-json, one read-modify-write helper stores it as
// the scorecard's section of BENCH_serving.json (or, for the core
// micro-benchmarks, as BENCH_core.json's "current" set) in the given
// directory, leaving every other section byte for byte as it was.
// Scorecards take no parameters: to ask a different question, edit or
// add a row of the table and `go run` it.
//
//	routers  routing policies on a shared-prefix stream (Serve)
//	stream   scheduler x preemption under overload with admission (ServeOnline)
//	fanout   copy-on-write forked branches vs naive independent branches
//	fleet    fleet KV store vs recompute; scale-down by shedding vs migration
//	chaos    replica crash/restart and transfer faults, recovery off vs on
//	core     allocator/engine hot-path micro-benchmarks and the sim anchor
//	scale    1M streamed requests, ServeOnline vs ServeStream, shard sweep
//	all      every scorecard above except scale (minutes of wall clock)
//
// -cpuprofile/-memprofile capture pprof profiles of whatever ran.
//
// Usage:
//
//	jengabench -list
//	jengabench -exp fig13 -scale 0.5
//	jengabench -exp all -csv out/
//	jengabench -scorecard stream
//	jengabench -scorecard all -bench-json .
//	jengabench -scorecard scale -bench-json . -cpuprofile scale.prof
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"jenga/internal/experiments"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run is main behind an error return, so the profile defers fire before
// the process exits.
func run() error {
	var (
		exp   = flag.String("exp", "", "experiment ID to run (or 'all')")
		list  = flag.Bool("list", false, "list experiment IDs and scorecards")
		scale = flag.Float64("scale", 1.0, "experiment request-count scale factor")
		seed  = flag.Int64("seed", 42, "experiment workload seed")
		csv   = flag.String("csv", "", "directory to also write experiment tables as CSV")

		card       = flag.String("scorecard", "", "scorecard to run: a name from -list, or 'all' (every one but scale)")
		benchJSON  = flag.String("bench-json", "", "directory whose BENCH_serving.json / BENCH_core.json the scorecards update")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile at exit to this file")
	)
	flag.Parse()
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}
	if *card != "" {
		if *exp != "" || *list || *csv != "" {
			return fmt.Errorf("-scorecard does not combine with -exp, -list or -csv")
		}
		return runScorecards(*card, *benchJSON)
	}
	if *list || *exp == "" {
		fmt.Println("available experiments:")
		for _, id := range experiments.IDs() {
			fmt.Printf("  %s\n", id)
		}
		fmt.Println("available scorecards:")
		for _, sc := range scorecards() {
			fmt.Printf("  %-8s %s\n", sc.name, sc.about)
		}
		if *exp == "" {
			return nil
		}
	}
	opt := experiments.Options{Scale: *scale, Seed: *seed, CSVDir: *csv}
	if *csv != "" {
		if err := os.MkdirAll(*csv, 0o755); err != nil {
			return fmt.Errorf("csv dir: %w", err)
		}
	}
	ids := []string{*exp}
	if *exp == "all" {
		ids = experiments.IDs()
	}
	for _, id := range ids {
		r, ok := experiments.Registry[id]
		if !ok {
			return fmt.Errorf("unknown experiment %q (known: %s)", id, strings.Join(experiments.IDs(), ", "))
		}
		start := time.Now()
		if err := r(os.Stdout, opt); err != nil {
			return fmt.Errorf("experiment %s failed: %w", id, err)
		}
		fmt.Printf("[%s completed in %v]\n\n", id, time.Since(start).Round(time.Millisecond))
	}
	return nil
}

// runScorecards runs the named scorecard, or with "all" every one that
// is not wall-clock, and with a directory stores each in its file.
func runScorecards(name, dir string) error {
	ran := false
	for _, sc := range scorecards() {
		if sc.name != name && (name != "all" || sc.wallClock) {
			continue
		}
		ran = true
		start := time.Now()
		if err := sc.exec(os.Stdout, dir); err != nil {
			return err
		}
		fmt.Printf("[%s completed in %v]\n\n", sc.name, time.Since(start).Round(time.Millisecond))
	}
	if !ran {
		return fmt.Errorf("unknown scorecard %q (see -list)", name)
	}
	return nil
}
