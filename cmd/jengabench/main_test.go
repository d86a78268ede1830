package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestFlagCombinations: a flag the chosen mode would not read is an
// error naming it, not a run that silently ignores it.
func TestFlagCombinations(t *testing.T) {
	dir := t.TempDir()
	for _, c := range []struct {
		args []string
		flag string // the flag the error names; "" for a good combination
	}{
		{[]string{"-scorecard", "fanout", "-seed", "7"}, "-seed"},
		{[]string{"-scorecard", "fanout", "-scale", "0.5"}, "-scale"},
		{[]string{"-scorecard", "fanout", "-exp", "table1"}, "-exp"},
		{[]string{"-scorecard", "fanout", "-list"}, "-list"},
		{[]string{"-scorecard", "fanout", "-csv", dir}, "-csv"},
		{[]string{"-exp", "table1", "-bench-json", dir}, "-bench-json"},
		{[]string{"-scorecard", "fanout", "-bench-json", dir}, ""},
	} {
		err := run(c.args)
		switch {
		case c.flag == "" && err != nil:
			t.Errorf("%v: %v", c.args, err)
		case c.flag != "" && (err == nil || !strings.Contains(err.Error(), c.flag)):
			t.Errorf("%v: error %v, want one naming %s", c.args, err, c.flag)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "BENCH_serving.json")); err != nil {
		t.Errorf("-scorecard fanout -bench-json wrote nothing: %v", err)
	}
}
