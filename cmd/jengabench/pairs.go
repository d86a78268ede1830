package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// The ten-pair protocol (`make pairs`): the parent and the change each
// run `cmd/jengaperf/run.sh -workload W` N times, the side that goes
// first alternating from pair to pair, and -pairs reads the 2N outputs
// from one directory — base.<i>.out and change.<i>.out, i = 1..N.

// perfRun is what one jengaperf run reports: its seed, host core count
// and fingerprint, and every metric it printed.
type perfRun struct {
	workload    string
	seed        string
	nproc       string
	fingerprint string
	metrics     map[string]perfMetric
}

type perfMetric struct {
	value                float64
	unit, family, better string
}

// parseRun reads one jengaperf output. A run that printed a FAIL line,
// or no metric, is refused: its numbers are not a measurement.
func parseRun(r io.Reader) (perfRun, error) {
	run := perfRun{metrics: map[string]perfMetric{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 0 {
			continue
		}
		switch f[0] {
		case "FAIL":
			return run, fmt.Errorf("the run failed: %s", sc.Text())
		case "jengaperf":
			for _, kv := range f[1:] {
				switch k, v, _ := strings.Cut(kv, "="); k {
				case "seed":
					run.seed = v
				case "nproc":
					run.nproc = v
				}
			}
		case "sim_fingerprint":
			if len(f) == 3 {
				run.fingerprint = f[2]
			}
		case "metric":
			if len(f) < 7 {
				return run, fmt.Errorf("short metric line %q", sc.Text())
			}
			v, err := strconv.ParseFloat(f[3], 64)
			if err != nil {
				return run, fmt.Errorf("metric line %q: %w", sc.Text(), err)
			}
			if run.workload != "" && run.workload != f[1] {
				return run, fmt.Errorf("one run reports workloads %s and %s", run.workload, f[1])
			}
			run.workload = f[1]
			run.metrics[f[2]] = perfMetric{value: v, unit: f[4], family: f[5], better: strings.TrimPrefix(f[6], "better=")}
		}
	}
	if err := sc.Err(); err != nil {
		return run, err
	}
	if len(run.metrics) == 0 || run.fingerprint == "" {
		return run, fmt.Errorf("no metric or fingerprint in the output")
	}
	return run, nil
}

// pairStat is one metric over N pairs: both sides' medians, the pairs
// the change won (strictly better) and the spread of the parent's runs.
type pairStat struct {
	name, unit, family, better string
	base, change               float64
	wins                       int
	baseIQR                    float64
}

// delta is the change's median relative to the parent's.
func (s pairStat) delta() float64 { return (s.change - s.base) / s.base }

// claimable reports whether the change is better on at least nine in
// ten pairs and its median beats the parent's by more than the parent's
// interquartile range: the rule a claimed gain is held to.
func (s pairStat) claimable(n int) bool {
	gap := s.base - s.change
	if s.better == "higher" {
		gap = -gap
	}
	return 10*s.wins >= 9*n && gap > s.baseIQR
}

// pairSummary is the whole comparison, and the line BENCH_pairs.jsonl
// keeps of it.
type pairSummary struct {
	Tree          string             `json:"tree"`
	Base          string             `json:"base"`
	Host          string             `json:"host"`
	NumCPU        string             `json:"num_cpu"`
	Workload      string             `json:"workload"`
	N             int                `json:"n"`
	Seed          string             `json:"seed"`
	BaseMedians   map[string]float64 `json:"base_medians"`
	ChangeMedians map[string]float64 `json:"change_medians"`
	Wins          map[string]int     `json:"wins"`
	BaseIQR       map[string]float64 `json:"base_iqr"`
	SimIdentical  bool               `json:"sim_identical"`
	Fingerprints  [2]string          `json:"fingerprints"`

	stats []pairStat
	// simDiff names each sim metric, and the fingerprint, that differs
	// between any two runs.
	simDiff []string
}

// summarizePairs compares base[i] with change[i] for every pair.
func summarizePairs(base, change []perfRun) (*pairSummary, error) {
	n := len(base)
	if n == 0 || len(change) != n {
		return nil, fmt.Errorf("%d parent runs and %d change runs; want N of each, N > 0", len(base), len(change))
	}
	first := base[0]
	s := &pairSummary{
		NumCPU: first.nproc, Workload: first.workload, N: n, Seed: first.seed,
		BaseMedians: map[string]float64{}, ChangeMedians: map[string]float64{},
		Wins: map[string]int{}, BaseIQR: map[string]float64{},
		Fingerprints: [2]string{first.fingerprint, change[0].fingerprint},
	}
	all := append(slices.Clip(base), change...)
	for _, r := range all {
		if r.workload != s.Workload || r.seed != s.Seed || r.nproc != s.NumCPU {
			return nil, fmt.Errorf("runs of %s seed %s on %s cores beside %s seed %s on %s", r.workload, r.seed, r.nproc, s.Workload, s.Seed, s.NumCPU)
		}
	}
	names := make([]string, 0, len(first.metrics))
	for name := range first.metrics {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		m := first.metrics[name]
		st := pairStat{name: name, unit: m.unit, family: m.family, better: m.better}
		bv, cv := make([]float64, n), make([]float64, n)
		for i := range n {
			b, okb := base[i].metrics[name]
			c, okc := change[i].metrics[name]
			if !okb || !okc {
				return nil, fmt.Errorf("pair %d does not report %s on both sides", i+1, name)
			}
			bv[i], cv[i] = b.value, c.value
			if (m.better == "lower" && c.value < b.value) || (m.better == "higher" && c.value > b.value) {
				st.wins++
			}
		}
		if m.family == "sim" && slices.ContainsFunc(append(bv, cv...), func(v float64) bool { return v != bv[0] }) {
			s.simDiff = append(s.simDiff, name)
		}
		slices.Sort(bv)
		slices.Sort(cv)
		st.base, st.change = quantile(bv, 0.5), quantile(cv, 0.5)
		st.baseIQR = quantile(bv, 0.75) - quantile(bv, 0.25)
		s.stats = append(s.stats, st)
		s.BaseMedians[name], s.ChangeMedians[name] = st.base, st.change
		s.Wins[name], s.BaseIQR[name] = st.wins, st.baseIQR
	}
	if slices.ContainsFunc(all, func(r perfRun) bool { return r.fingerprint != s.Fingerprints[0] }) {
		s.simDiff = append(s.simDiff, "sim_fingerprint")
	}
	s.SimIdentical = len(s.simDiff) == 0
	return s, nil
}

// quantile interpolates linearly between the closest ranks of sorted.
func quantile(sorted []float64, p float64) float64 {
	x := p * float64(len(sorted)-1)
	i := int(x)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (x-float64(i))*(sorted[i+1]-sorted[i])
}

// print writes the comparison as a table, then the sim verdict.
func (s *pairSummary) print(w io.Writer) {
	fmt.Fprintf(w, "pairs %s N=%d seed=%s num_cpu=%s base=%s tree=%s\n", s.Workload, s.N, s.Seed, s.NumCPU, s.Base, s.Tree)
	fmt.Fprintf(w, "%-20s %-9s %14s %14s %9s %6s %12s  %s\n", "metric", "unit", "parent", "change", "diff", "wins", "parent IQR", "claim")
	for _, st := range s.stats {
		claim := "-"
		if st.claimable(s.N) {
			claim = "met"
		}
		fmt.Fprintf(w, "%-20s %-9s %14.6g %14.6g %+8.2f%% %3d/%-2d %12.4g  %s\n",
			st.name, st.unit, st.base, st.change, 100*st.delta(), st.wins, s.N, st.baseIQR, claim)
	}
	if s.SimIdentical {
		fmt.Fprintf(w, "sim: every sim_* metric, completed_frac and the fingerprint (%s) identical across sides\n", s.Fingerprints[0])
	} else {
		fmt.Fprintf(w, "sim: NOT identical across runs: %s (fingerprints %s, %s)\n", strings.Join(s.simDiff, ", "), s.Fingerprints[0], s.Fingerprints[1])
	}
}

// readSide parses side's runs in dir, <side>.1.out on until one is
// missing.
func readSide(dir, side string) ([]perfRun, error) {
	var runs []perfRun
	for i := 1; ; i++ {
		f, err := os.Open(filepath.Join(dir, fmt.Sprintf("%s.%d.out", side, i)))
		if errors.Is(err, fs.ErrNotExist) {
			return runs, nil
		} else if err != nil {
			return nil, err
		}
		r, err := parseRun(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s run %d: %w", side, i, err)
		}
		runs = append(runs, r)
	}
}

// runPairs summarizes the outputs in dir, prints the comparison and,
// with a jsonl file, appends its line there.
func runPairs(dir, base, tree, jsonl string) error {
	baseRuns, err := readSide(dir, "base")
	if err != nil {
		return err
	}
	changeRuns, err := readSide(dir, "change")
	if err != nil {
		return err
	}
	s, err := summarizePairs(baseRuns, changeRuns)
	if err != nil {
		return err
	}
	s.Base, s.Tree = base, tree
	if s.Host, err = os.Hostname(); err != nil {
		return err
	}
	s.print(os.Stdout)
	if jsonl == "" {
		return nil
	}
	line, err := json.Marshal(s)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(jsonl, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err = f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
