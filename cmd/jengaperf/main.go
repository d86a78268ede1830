// Command jengaperf is the repository's benchmark: four fixed
// workloads over the simulator and the serving system it models.
//
// It reports two families of numbers and names which is which. sim_*
// metrics are *simulated* statistics of the modelled serving system
// (what the paper measures); they repeat bit-exactly for a seed. The
// rest are *host* metrics of the simulator itself (wall, CPU, heap,
// allocations); they are noisy, so each has a bound. A separate traced
// run wraps every layer's public interface in timing decorators and
// reports per-layer counts and busy times. See README.md.
//
// It lives under cmd/ because jengalint's detsource analyzer forbids
// wall-clock reads everywhere else.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"time"

	"jenga/internal/bench"
)

// simAnchor is the repository's sim anchor: bench.SimThroughput's
// simulated request rate, pinned bit for bit since PR 3.
const simAnchor = 126.11533015205485

// Exit codes.
const (
	exitOK     = 0
	exitFailed = 1 // a correctness check or the -repeat comparison failed
	exitUsage  = 2
	exitBudget = 3 // -budget would be overrun
)

// errBudget stops a run that cannot finish inside -budget. It travels
// back through run like any other error, so the goroutine-leak check
// still executes; the process then exits with exitBudget and prints no
// result line.
var errBudget = errors.New("would overrun -budget")

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	check    bool
	repeat   int
	budget   time.Duration
	spent    time.Duration
	traceDir string
	describe bool
}

func main() { os.Exit(run()) }

func run() int {
	var o options
	flag.StringVar(&o.workload, "workload", "all", "workload name, or all")
	flag.Int64Var(&o.seed, "seed", 42, "workload seed (the simulator receives only generated inputs)")
	flag.Float64Var(&o.seconds, "seconds", -1, fmt.Sprintf("how long each run measures (default: %d for one workload; for -workload all, the minimum number of passes)", runSeconds))
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run (-workload all runs both)")
	flag.BoolVar(&o.check, "check", true, "also verify the sim anchor (the per-pass checks always run)")
	flag.IntVar(&o.repeat, "repeat", 1, "run the end-to-end set this many times and compare the runs against the bounds")
	flag.DurationVar(&o.budget, "budget", 0, "exit 3 rather than start work that would run past this much wall time (0: no limit)")
	flag.DurationVar(&o.spent, "spent", 0, "wall time used before the process started (run.sh's build); counts against -budget")
	flag.StringVar(&o.traceDir, "tracedir", ".bench_build/spans", "directory for span JSONL files")
	flag.BoolVar(&o.describe, "describe", false, "print BENCHMARK.json for the built-in workload and metric tables and exit")
	flag.Parse()
	if flag.NArg() > 0 || o.repeat < 1 || (o.trace != 0 && o.trace != 1) {
		flag.Usage()
		return exitUsage
	}
	if o.describe {
		fmt.Print(describeJSON())
		return exitOK
	}
	var selected []*workloadDef
	if o.workload == "all" {
		selected = workloads
	} else if w := workloadByName(o.workload); w != nil {
		selected = []*workloadDef{w}
	} else {
		fmt.Fprintf(os.Stderr, "jengaperf: unknown workload %q\n", o.workload)
		return exitUsage
	}
	if o.seconds < 0 {
		// All four workloads, plain and traced, have to fit one -budget:
		// each then measures its minimum number of passes.
		o.seconds = 0
		if len(selected) == 1 {
			o.seconds = runSeconds
		}
	}

	// Fixed, recorded environment.
	procs := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(procs)
	goroutines := runtime.NumGoroutine()
	r := &runner{opts: o, procs: procs}
	r.header(selected)

	code := r.dispatch(selected)

	if leaked := waitGoroutines(goroutines); leaked != 0 {
		fmt.Printf("FAIL goroutine leak: %d more goroutines than at start\n", leaked)
		if code == exitOK {
			code = exitFailed
		}
	}
	if r.final != nil {
		r.final.Correct = r.final.Correct && code == exitOK
		buf, err := json.Marshal(r.final)
		if err != nil {
			fmt.Fprintf(os.Stderr, "jengaperf: %v\n", err)
			return exitFailed
		}
		fmt.Println(string(buf))
	}
	return code
}

// waitGoroutines reports how many goroutines outlive the benchmark.
// Everything jengaperf starts is joined before it returns; the short
// grace only covers a goroutine between its last statement and exit.
func waitGoroutines(want int) int {
	for i := 0; i < 200 && runtime.NumGoroutine() > want; i++ {
		time.Sleep(time.Millisecond)
	}
	return max(runtime.NumGoroutine()-want, 0)
}

// runner carries one invocation's settings and its result line.
type runner struct {
	opts  options
	procs int
	// final is the driver's result object (single-workload runs only).
	final *resultLine
	// fixtures caches the workload-independent fixture timings.
	fixtures map[string]float64
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output in a single-workload
// run. attempted counts simulated requests driven to a terminal state
// over the timed passes; failed counts requests the simulator lost
// track of — the conservation check aborts the run on the first one,
// so a printed line says 0. Requests the *modelled* system sheds are a
// simulated outcome, reported in completed_frac.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (r *runner) header(selected []*workloadDef) {
	fmt.Printf("jengaperf nproc=%d GOMAXPROCS=%d go=%s seed=%d seconds=%g budget=%v spent=%v commit=%s\n",
		runtime.NumCPU(), r.procs, runtime.Version(), r.opts.seed, r.opts.seconds, r.opts.budget, r.opts.spent, commit())
	for _, w := range selected {
		fmt.Printf("workload %s N=%d slo_ttft=%v\n", w.name, w.n, w.slo)
	}
}

// First guesses of what a piece of work costs, for the budget check
// that precedes it: about twice what the slowest workload took on the
// 2-core box the workloads were sized on. Once a loop has measured an
// iteration of its own, it budgets with that instead.
const (
	guessPlainIter  = 7 * time.Second  // set-up + one timed pass
	guessTracedIter = 14 * time.Second // two serial set-ups and passes
	guessFixtures   = 6 * time.Second  // every fixture, once per process
	guessBaseline   = 3 * time.Second  // two quarter-size sim-only reruns
	guessAnchor     = 1 * time.Second  // bench.SimThroughput
)

// fits reports whether work expected to take `next` ends inside
// -budget. The clock started when run.sh did: -spent carries the build.
func (r *runner) fits(next time.Duration) bool {
	return r.opts.budget <= 0 || r.opts.spent+now()+next <= r.opts.budget
}

// reserve is the check before every piece of work that has to run:
// errBudget, with a message, when it does not fit.
func (r *runner) reserve(what string, next time.Duration) error {
	if r.fits(next) {
		return nil
	}
	fmt.Printf("jengaperf: stopping at %v: %s (about %v) would overrun -budget %v\n",
		(r.opts.spent + now()).Round(time.Millisecond), what, next.Round(time.Millisecond), r.opts.budget)
	return errBudget
}

// another decides, before each iteration of a measuring loop, whether
// it runs. The first `minimum` iterations have to: they fail with
// errBudget when they do not fit. Further ones fill -seconds and are
// left out when they do not fit. An iteration is expected to take as
// long as the longest so far plus a quarter, or `guess` before any.
func (r *runner) another(what string, done, minimum int, begin, longest, guess time.Duration) (bool, error) {
	next := guess
	if done > 0 {
		next = longest + longest/4
	}
	if done < minimum {
		return true, r.reserve(what, next)
	}
	return (now()-begin).Seconds() < r.opts.seconds && r.fits(next), nil
}

func (r *runner) dispatch(selected []*workloadDef) int {
	code := exitOK
	fail := func(format string, args ...any) {
		fmt.Printf("FAIL "+format+"\n", args...)
		code = exitFailed
	}
	if r.opts.check {
		if r.reserve("the sim anchor check", guessAnchor) != nil {
			return exitBudget
		}
		sim, err := bench.SimThroughput()
		switch {
		case err != nil:
			fail("sim anchor: %v", err)
		case sim.ReqPerSec != simAnchor:
			fail("sim anchor: got %v, want %v", sim.ReqPerSec, simAnchor)
		default:
			fmt.Printf("check sim anchor %v ok\n", simAnchor)
		}
	}
	single := len(selected) == 1 && r.opts.repeat == 1

	if r.opts.repeat > 1 {
		sets := make([]map[string]*plainResult, r.opts.repeat)
		for i := range sets {
			sets[i] = make(map[string]*plainResult)
			for _, w := range selected {
				fmt.Printf("== set %d/%d %s\n", i+1, r.opts.repeat, w.name)
				res, err := r.plain(w)
				if errors.Is(err, errBudget) {
					return exitBudget
				}
				if err != nil {
					fail("%s: %v", w.name, err)
					return code
				}
				sets[i][w.name] = res
			}
		}
		if !compareSets(selected, sets) {
			code = exitFailed
		}
		return code
	}

	// A single-workload run is the driver's: -trace picks which of the
	// two runs produces the result line. Otherwise both run.
	for _, w := range selected {
		if !single || r.opts.trace == 0 {
			res, err := r.plain(w)
			if errors.Is(err, errBudget) {
				return exitBudget
			}
			if err != nil {
				fail("%s: %v", w.name, err)
				continue
			}
			printMetrics(w.name, ungatedTimes, res.metrics)
			printMetrics(w.name, endToEnd, res.metrics)
			if single {
				r.finish(endToEnd, res.metrics, res.attempted, fail)
			}
		}
		if !single || r.opts.trace == 1 {
			layers, attempted, err := r.traced(w)
			if errors.Is(err, errBudget) {
				return exitBudget
			}
			if err != nil {
				fail("%s traced: %v", w.name, err)
				continue
			}
			printMetrics(w.name, perLayer, layers)
			if single {
				r.finish(perLayer, layers, attempted, fail)
			}
		}
	}
	return code
}

// finish builds the driver's result line: every metric of defs, by
// name, with its unit. A run only gets here with every check passed,
// so no simulated request is unaccounted for: failed is 0.
func (r *runner) finish(defs []metricDef, vals map[string]float64, attempted int, fail func(string, ...any)) {
	l := &resultLine{Correct: true, Attempted: attempted, Metrics: make(map[string]metricValue)}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fail("metric %s has no finite value", d.name)
			return
		}
		l.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	r.final = l
}

// printMetrics prints one line per metric: name, value, unit, family,
// direction and (end-to-end) bound.
func printMetrics(workload string, defs []metricDef, vals map[string]float64) {
	for _, d := range defs {
		family := "host"
		if d.sim {
			family = "sim"
		}
		line := fmt.Sprintf("metric %s %s %v %s %s better=%s", workload, d.name, vals[d.name], d.unit, family, d.better)
		if d.bound > 0 {
			line += fmt.Sprintf(" bound=%g", d.bound)
		}
		fmt.Println(line)
	}
}

// plainResult is one end-to-end run of one workload.
type plainResult struct {
	sim       *simStats
	metrics   map[string]float64
	attempted int
}

// setUp builds one fresh instance: inputs from the seed, the system
// around them, a warm-up pass of an eighth of N on a throw-away
// instance, and a garbage collection. Its duration is one setup_s
// sample.
func setUp(w *workloadDef, seed int64, o buildOpts) (*instance, float64, error) {
	t0 := now()
	warm, err := w.build(w, seed, max(w.n/8, 1), buildOpts{serial: o.serial})
	if err != nil {
		return nil, 0, err
	}
	if _, err := warm.run(); err != nil {
		return nil, 0, fmt.Errorf("warm-up: %w", err)
	}
	inst, err := w.build(w, seed, w.n, o)
	if err != nil {
		return nil, 0, err
	}
	runtime.GC() // the pass starts from a clean heap, so its peak is its own
	return inst, (now() - t0).Seconds(), nil
}

// checkPass applies the per-pass correctness checks.
func checkPass(inst *instance, sim *simStats, first *simStats) error {
	if u := sim.unaccounted(); u != 0 {
		return fmt.Errorf("conservation: submitted %d != finished %d + failed %d + shed %d + lost %d + cancelled %d",
			sim.Submitted, sim.Finished, sim.Failed, sim.Shed, sim.Lost, sim.Cancelled)
	}
	if err := checkDrained(inst.managers); err != nil {
		return err
	}
	if first != nil && *first != *sim {
		return fmt.Errorf("sim statistics differ between passes of one seed:\n  first %+v\n  now   %+v", *first, *sim)
	}
	return nil
}

// plain runs the end-to-end measurement: fresh set-up then one timed
// pass, repeated for -seconds (at least three passes); host metrics
// are medians over the passes, sim metrics must be identical in all.
func (r *runner) plain(w *workloadDef) (*plainResult, error) {
	begin := now()
	var setups []float64
	var passes []hostSample
	var sim *simStats
	var longest time.Duration
	res := &plainResult{}
	for {
		more, err := r.another("a pass of "+w.name, len(passes), 3, begin, longest, guessPlainIter)
		if err != nil {
			return nil, err
		}
		if !more {
			break
		}
		iter := now()
		inst, setupS, err := setUp(w, r.opts.seed, buildOpts{})
		if err != nil {
			return nil, err
		}
		var s *simStats
		host, err := measure(func() (err error) { s, err = inst.run(); return })
		if err != nil {
			return nil, err
		}
		res.attempted += s.Submitted
		if err := checkPass(inst, s, sim); err != nil {
			return nil, err
		}
		sim = s
		setups = append(setups, setupS)
		passes = append(passes, host)
		fmt.Printf("pass %s #%d setup %.3fs wall %.3fs cpu %.3fs peak_heap %.1fMiB mallocs %.0f\n",
			w.name, len(passes), setupS, host.wallS, host.cpuS, host.peakHeapMB, host.mallocs)
		longest = max(longest, now()-iter)
	}
	res.sim = sim
	res.metrics = endToEndValues(setups, passes, sim)
	fmt.Printf("counts %s submitted=%d finished=%d failed=%d shed=%d lost=%d cancelled=%d latency_samples=%d sim_seconds=%.3f steps=%d\n",
		w.name, sim.Submitted, sim.Finished, sim.Failed, sim.Shed, sim.Lost, sim.Cancelled, sim.LatencySamples, sim.SimSeconds, sim.Steps)
	fmt.Printf("sim_fingerprint %s %s\n", w.name, sim.fingerprint())
	return res, nil
}

// traced runs the per-layer measurement. Plain and traced passes
// alternate, both driven serially (one shard, GOMAXPROCS 1) so that
// busy times partition the wall time and the two walls differ only by
// the decorators; the traced pass must reproduce the plain pass's
// sim statistics exactly.
func (r *runner) traced(w *workloadDef) (map[string]float64, int, error) {
	begin := now()
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)

	// The fixtures are workload-independent: measured once per process.
	if r.fixtures == nil {
		if err := r.reserve("the fixtures", guessFixtures); err != nil {
			return nil, 0, err
		}
		fx := make(map[string]float64)
		if err := runFixtures(fx); err != nil {
			return nil, 0, err
		}
		r.fixtures = fx
	}
	fixed := make(map[string]float64)
	for k, v := range r.fixtures {
		fixed[k] = v
	}
	if w.singleEngine {
		if err := r.reserve("the paged-baseline rerun of "+w.name, guessBaseline); err != nil {
			return nil, 0, err
		}
	}
	if err := pagedBaseline(w, r.opts.seed, fixed); err != nil {
		return nil, 0, err
	}

	var plainWall, plainCPU, tracedWall []float64
	var layerRuns []map[string]float64
	var tr *tracer
	var longest time.Duration
	attempted := 0
	for {
		more, err := r.another("a traced pass of "+w.name, len(layerRuns), 2, begin, longest, guessTracedIter)
		if err != nil {
			return nil, 0, err
		}
		if !more {
			break
		}
		iter := now()
		inst, _, err := setUp(w, r.opts.seed, buildOpts{serial: true})
		if err != nil {
			return nil, 0, err
		}
		var plainSim *simStats
		cpu0 := cpuSeconds()
		t0 := now()
		if plainSim, err = inst.run(); err != nil {
			return nil, 0, err
		}
		plainWall = append(plainWall, (now() - t0).Seconds())
		plainCPU = append(plainCPU, cpuSeconds()-cpu0)
		if err := checkPass(inst, plainSim, nil); err != nil {
			return nil, 0, err
		}

		tr = newTracer()
		inst, _, err = setUp(w, r.opts.seed, buildOpts{serial: true, tr: tr})
		if err != nil {
			return nil, 0, err
		}
		t0 = now()
		sim, err := inst.run()
		if err != nil {
			return nil, 0, err
		}
		wallS := (now() - t0).Seconds()
		tracedWall = append(tracedWall, wallS)
		if err := checkPass(inst, sim, plainSim); err != nil {
			return nil, 0, fmt.Errorf("decorators are not transparent: %w", err)
		}
		attempted += sim.Submitted
		layers := tr.layerMetrics(w, inst, sim, wallS)
		layerRuns = append(layerRuns, layers)
		fmt.Printf("traced %s #%d plain %.3fs traced %.3fs fingerprint %s  %s\n",
			w.name, len(layerRuns), plainWall[len(plainWall)-1], wallS, sim.fingerprint(), layerShares(layers, wallS))
		longest = max(longest, now()-iter)
	}

	// Counts are identical in every traced pass; times take the median.
	out := make(map[string]float64)
	for k := range layerRuns[0] {
		vals := make([]float64, len(layerRuns))
		for i, lr := range layerRuns {
			vals[i] = lr[k]
		}
		out[k] = median(vals)
	}
	for k, v := range fixed {
		out[k] = v
	}
	out["host.serial_wall_s"] = median(plainWall)
	out["host.serial_cpu_s"] = median(plainCPU)
	out["trace.overhead_frac"] = median(tracedWall)/median(plainWall) - 1
	n, err := writeSpans(r.opts.traceDir, w.name, tr.spans.lines(w.name))
	if err != nil {
		return nil, 0, fmt.Errorf("writing spans: %w", err)
	}
	out["trace.spans_written"] = float64(n)
	return out, attempted, nil
}

// pagedBaseline reruns a single-engine workload at quarter size under
// the PagedAttention baseline and under Jenga: simulated throughput
// only, exact. It guards the paper's headline comparison.
func pagedBaseline(w *workloadDef, seed int64, m map[string]float64) error {
	m["baseline.paged_sim_tokens_per_s"], m["core.sim_speedup_vs_paged"] = 0, 0
	if !w.singleEngine {
		return nil
	}
	var tps [2]float64
	for i, paged := range []bool{true, false} {
		inst, err := w.build(w, seed, max(w.n/4, 1), buildOpts{paged: paged, saturate: true})
		if err != nil {
			return err
		}
		sim, err := inst.run()
		if err != nil {
			return fmt.Errorf("baseline rerun (paged=%v): %w", paged, err)
		}
		tps[i] = sim.TokensPerS
	}
	m["baseline.paged_sim_tokens_per_s"] = tps[0]
	if tps[0] > 0 {
		m["core.sim_speedup_vs_paged"] = tps[1] / tps[0]
	}
	return nil
}

// compareSets prints, per workload and end-to-end metric, each set's
// value, the relative difference between the first and the last set
// and the bound, and reports whether every difference is within it.
func compareSets(selected []*workloadDef, sets []map[string]*plainResult) bool {
	ok := true
	first, last := sets[0], sets[len(sets)-1]
	fmt.Printf("%-18s %-20s %14s %14s %9s %7s\n", "workload", "metric", "set 1", fmt.Sprintf("set %d", len(sets)), "diff", "bound")
	for _, w := range selected {
		a, b := first[w.name], last[w.name]
		for _, d := range endToEnd {
			va, vb := a.metrics[d.name], b.metrics[d.name]
			diff := 0.0
			if va != 0 {
				diff = (vb - va) / math.Abs(va)
			}
			verdict := ""
			if math.Abs(diff) > d.bound {
				verdict = "  EXCEEDS"
				ok = false
			}
			if d.sim && va != vb {
				verdict += "  SIM-NOT-IDENTICAL"
				ok = false
			}
			fmt.Printf("%-18s %-20s %14.6g %14.6g %+8.2f%% %6.0f%%%s\n", w.name, d.name, va, vb, 100*diff, 100*d.bound, verdict)
		}
		if fa, fb := a.sim.fingerprint(), b.sim.fingerprint(); fa != fb {
			fmt.Printf("%-18s sim_fingerprint %s != %s  SIM-NOT-IDENTICAL\n", w.name, fa, fb)
			ok = false
		}
	}
	if ok {
		fmt.Println("repeat: every metric within its bound, sim statistics identical")
	} else {
		fmt.Println("FAIL repeat: see lines marked above")
	}
	return ok
}

// commit names the source revision when the checkout records one (the
// driver's checkout is not a git repository).
func commit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if name, ok := strings.CutPrefix(ref, "ref: "); ok {
		if b, err := os.ReadFile(".git/" + name); err == nil {
			return strings.TrimSpace(string(b))
		}
		return name
	}
	return ref
}

// describeJSON renders BENCHMARK.json from the built-in tables.
func describeJSON() string {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		// The driver stops a run at 180 s; stop cleanly before that.
		Command:    []string{"bash", "cmd/jengaperf/run.sh", "-budget", "170s"},
		Paths:      []string{"cmd/jengaperf"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.name, w.describe()})
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{d.name, d.unit, d.better, d.bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{d.name, d.unit, d.better})
	}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err)
	}
	return string(buf) + "\n"
}

// runSeconds is BENCHMARK.json's run_seconds: how long the driver asks
// each run to measure.
const runSeconds = 25
