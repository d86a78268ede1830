package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// perfOutput is a canned jengaperf run of fleet_stream: the header, one
// pass, the fingerprint and the metric lines -pairs reads.
func perfOutput(heap, setup, miss float64, fingerprint string) string {
	return fmt.Sprintf(`jengaperf nproc=2 GOMAXPROCS=2 go=go1.24.0 seed=42 seconds=25 budget=0s spent=1s commit=unknown
workload fleet_stream N=64000 slo_ttft=5ms
pass fleet_stream #1 setup 0.200s wall 1.400s cpu 2.200s peak_heap 18.8MiB mallocs 851
sim_fingerprint fleet_stream %s
metric fleet_stream setup_s %v s host better=lower bound=0.25
metric fleet_stream peak_heap_mb %v MiB host better=lower bound=0.15
metric fleet_stream sim_miss_rate %v fraction sim better=lower bound=0.12
metric fleet_stream completed_frac 1 fraction sim better=higher bound=0.07
{"correct":true,"attempted":192000,"failed":0,"metrics":{}}
`, fingerprint, setup, heap, miss)
}

// TestPairsSummary: over canned outputs of five pairs, -pairs takes each
// side's median, counts the pairs the change won, measures the parent's
// interquartile range, says which gains meet the claim rule, tells a
// sim statistic or fingerprint that moved, and appends one JSON line.
func TestPairsSummary(t *testing.T) {
	const fp = "d335a220b7c83ed2"
	baseHeap := []float64{21.4, 21.6, 21.5, 21.3, 21.5}
	changeHeap := []float64{18.7, 18.8, 18.7, 21.4, 18.9} // pair 4 loses
	baseSetup := []float64{0.12, 0.14, 0.13, 0.15, 0.11}
	changeSetup := []float64{0.13, 0.12, 0.14, 0.12, 0.12}
	write := func(dir string, moved bool) {
		for i := range baseHeap {
			bf, cf, miss := fp, fp, 0.0866
			if moved && i == 2 {
				cf, miss = "5fdcc5ff8abb8ea3", 0.0867
			}
			for name, out := range map[string]string{
				fmt.Sprintf("base.%d.out", i+1):   perfOutput(baseHeap[i], baseSetup[i], 0.0866, bf),
				fmt.Sprintf("change.%d.out", i+1): perfOutput(changeHeap[i], changeSetup[i], miss, cf),
			} {
				if err := os.WriteFile(filepath.Join(dir, name), []byte(out), 0o644); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	dir := t.TempDir()
	write(dir, false)
	jsonl := filepath.Join(t.TempDir(), "BENCH_pairs.jsonl")
	if err := run([]string{"-pairs", dir, "-base", "parent", "-tree", "change", "-jsonl", jsonl}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-pairs", dir, "-jsonl", jsonl}); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(jsonl)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(buf), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("two -pairs runs appended %d lines, want 2", len(lines))
	}
	var s pairSummary
	if err := json.Unmarshal([]byte(lines[0]), &s); err != nil {
		t.Fatal(err)
	}
	near := func(got, want float64) bool { return math.Abs(got-want) < 1e-9 }
	if s.Tree != "change" || s.Base != "parent" || s.Workload != "fleet_stream" || s.N != 5 || s.Seed != "42" || s.NumCPU != "2" || s.Host == "" ||
		!s.SimIdentical || s.Fingerprints != [2]string{fp, fp} {
		t.Errorf("summary header %+v", s)
	}
	for _, c := range []struct {
		name              string
		base, change, iqr float64
		wins              int
	}{
		{"peak_heap_mb", 21.5, 18.8, 0.1, 4},
		{"setup_s", 0.13, 0.12, 0.02, 2},
		{"sim_miss_rate", 0.0866, 0.0866, 0, 0},
		{"completed_frac", 1, 1, 0, 0},
	} {
		if !near(s.BaseMedians[c.name], c.base) || !near(s.ChangeMedians[c.name], c.change) || !near(s.BaseIQR[c.name], c.iqr) || s.Wins[c.name] != c.wins {
			t.Errorf("%s: medians %v → %v, parent IQR %v, wins %d; want %v → %v, %v, %d", c.name,
				s.BaseMedians[c.name], s.ChangeMedians[c.name], s.BaseIQR[c.name], s.Wins[c.name], c.base, c.change, c.iqr, c.wins)
		}
	}

	// The claim rule: 9 of 10 pairs, and a median gap wider than the
	// parent's IQR. Four wins in five miss it; five would meet it.
	sum, err := summarizePairs(readRuns(t, dir, "base"), readRuns(t, dir, "change"))
	if err != nil {
		t.Fatal(err)
	}
	var table bytes.Buffer
	sum.print(&table)
	for _, st := range sum.stats {
		if st.claimable(sum.N) {
			t.Errorf("%s meets the claim rule with %d wins of %d", st.name, st.wins, sum.N)
		}
	}
	if !strings.Contains(table.String(), "-12.56%") {
		t.Errorf("the table lacks peak_heap_mb's change:\n%s", table.String())
	}
	for _, c := range []struct {
		st   pairStat
		want bool
	}{
		{pairStat{better: "lower", base: 21.5, change: 18.8, wins: 5, baseIQR: 0.1}, true},
		{pairStat{better: "lower", base: 21.5, change: 21.45, wins: 5, baseIQR: 0.1}, false},
		{pairStat{better: "higher", base: 1, change: 1.2, wins: 5, baseIQR: 0.1}, true},
	} {
		if got := c.st.claimable(5); got != c.want {
			t.Errorf("%+v over 5 pairs: claimable %v, want %v", c.st, got, c.want)
		}
	}

	// A fingerprint and a sim statistic that move are reported.
	write(dir, true)
	sum, err = summarizePairs(readRuns(t, dir, "base"), readRuns(t, dir, "change"))
	if err != nil {
		t.Fatal(err)
	}
	table.Reset()
	sum.print(&table)
	if sum.SimIdentical || !strings.Contains(table.String(), "NOT identical across runs: sim_miss_rate, sim_fingerprint") {
		t.Errorf("a moved fingerprint and miss rate are not reported:\n%s", table.String())
	}

	// A run that failed, or a side short of runs, is refused.
	if err := os.WriteFile(filepath.Join(dir, "change.3.out"), []byte("FAIL sim statistics differ between passes\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-pairs", dir}); err == nil || !strings.Contains(err.Error(), "change run 3") {
		t.Errorf("a failed run: error %v", err)
	}
	if err := os.Remove(filepath.Join(dir, "change.3.out")); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-pairs", dir}); err == nil {
		t.Error("5 parent runs beside 2 change runs: no error")
	}
}

func readRuns(t *testing.T, dir, side string) []perfRun {
	t.Helper()
	runs, err := readSide(dir, side)
	if err != nil {
		t.Fatal(err)
	}
	return runs
}
