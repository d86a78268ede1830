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
// Pairs (-pairs) compare a parent and a change over the jengaperf runs
// `make pairs` leaves in a directory: per metric, both medians, the
// change, the pairs won and the parent's interquartile range; whether
// every simulated statistic and the fingerprint match; with -jsonl, one
// JSON line appended to the trajectory file (BENCH_pairs.jsonl).
//
// Usage:
//
//	jengabench -list
//	jengabench -exp fig13 -scale 0.5
//	jengabench -exp all -csv out/
//	jengabench -scorecard stream
//	jengabench -scorecard all -bench-json .
//	jengabench -scorecard scale -bench-json . -cpuprofile scale.prof
//	jengabench -pairs .bench_build/pairs -base <rev> -tree <rev> -jsonl BENCH_pairs.jsonl
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
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run is main behind an error return, so the profile defers fire before
// the process exits.
func run(args []string) error {
	fs := flag.NewFlagSet("jengabench", flag.ExitOnError)
	var (
		exp   = fs.String("exp", "", "experiment ID to run (or 'all')")
		list  = fs.Bool("list", false, "list experiment IDs and scorecards")
		scale = fs.Float64("scale", 1.0, "experiment request-count scale factor")
		seed  = fs.Int64("seed", 42, "experiment workload seed")
		csv   = fs.String("csv", "", "directory to also write experiment tables as CSV")

		card       = fs.String("scorecard", "", "scorecard to run: a name from -list, or 'all' (every one but scale)")
		benchJSON  = fs.String("bench-json", "", "directory whose BENCH_serving.json / BENCH_core.json the scorecards update")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProfile = fs.String("memprofile", "", "write a heap profile at exit to this file")

		pairs     = fs.String("pairs", "", "directory of `make pairs` jengaperf outputs (base.<i>.out, change.<i>.out) to compare")
		pairBase  = fs.String("base", "", "with -pairs: the parent revision the base runs built")
		pairTree  = fs.String("tree", "", "with -pairs: the revision the change runs built")
		pairsLine = fs.String("jsonl", "", "with -pairs: file the comparison's JSON line is appended to")
	)
	fs.Parse(args) // ExitOnError: a bad flag exits 2 with the usage
	// A flag the chosen mode does not read is an error, not a no-op.
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	for _, name := range []string{"exp", "list", "csv", "scale", "seed"} {
		if *card != "" && set[name] {
			return fmt.Errorf("-scorecard does not combine with -%s", name)
		}
	}
	if *card == "" && set["bench-json"] {
		return fmt.Errorf("-bench-json needs -scorecard")
	}
	for _, name := range []string{"exp", "list", "csv", "scale", "seed", "scorecard", "bench-json"} {
		if *pairs != "" && set[name] {
			return fmt.Errorf("-pairs does not combine with -%s", name)
		}
	}
	for _, name := range []string{"base", "tree", "jsonl"} {
		if *pairs == "" && set[name] {
			return fmt.Errorf("-%s needs -pairs", name)
		}
	}
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
		return runScorecards(*card, *benchJSON)
	}
	if *pairs != "" {
		return runPairs(*pairs, *pairBase, *pairTree, *pairsLine)
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
