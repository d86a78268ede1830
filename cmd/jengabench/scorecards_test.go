package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// get decodes scorecard name's section (empty when the file has none).
func (f *servingFile) get(name string) (*section, error) {
	if name == "stream" {
		return &f.section, nil
	}
	sec := new(section)
	if raw := *f.named(name); raw != nil {
		return sec, decodeStrict(raw, sec)
	}
	return sec, nil
}

// TestScorecardsMatchCommitted gates the deterministic half of the perf
// trajectory: every scorecard that is a pure function of its scenarios
// is re-run in process and compared, value for value, against the
// committed BENCH_serving.json. A change that moves a number has to
// commit the new number (make bench-json) and say why. The scale
// section and BENCH_core.json's timings are wall-clock and excluded.
func TestScorecardsMatchCommitted(t *testing.T) {
	buf, err := os.ReadFile("../../BENCH_serving.json")
	if err != nil {
		t.Fatal(err)
	}
	var committed servingFile
	if err := decodeStrict(buf, &committed); err != nil {
		t.Fatal(err)
	}
	for _, sc := range scorecards() {
		if sc.wallClock || sc.host != nil {
			continue
		}
		t.Run(sc.name, func(t *testing.T) {
			got, err := sc.run(io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			want, err := committed.get(sc.name)
			if err != nil {
				t.Fatal(err)
			}
			if reflect.DeepEqual(got, want) {
				return
			}
			g, _ := json.MarshalIndent(got, "", "  ")
			w, _ := json.MarshalIndent(want, "", "  ")
			gl, wl := strings.Split(string(g), "\n"), strings.Split(string(w), "\n")
			for i := 0; i < len(gl) && i < len(wl); i++ {
				if gl[i] != wl[i] {
					t.Fatalf("scorecard %s differs from the committed file at line %d of its section:\n  ran       %s\n  committed %s\n(run `make bench-json` and commit the result if the change is intended)",
						sc.name, i+1, strings.TrimSpace(gl[i]), strings.TrimSpace(wl[i]))
				}
			}
			t.Fatalf("scorecard %s: section has %d lines, committed %d", sc.name, len(gl), len(wl))
		})
	}
}

// TestUpdateJSON covers the one writer's three cases: a missing file is
// an empty document, an unreadable or invalid one is an error that
// leaves the file alone, and a valid one keeps every section the patch
// does not touch.
func TestUpdateJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_serving.json")
	setFleet := func(model string) func(*servingFile) error {
		return func(f *servingFile) error { return f.set("fleet", &section{header: header{Model: model}}) }
	}

	if err := updateJSON(path, setFleet("a")); err != nil {
		t.Fatalf("missing file: %v", err)
	}
	const scale = `{"replicas": 16, "shard_sweep": [{"sim_req_per_s": 4002.5, "shards": 0}]}`
	if err := updateJSON(path, func(f *servingFile) error {
		f.Scale = json.RawMessage(scale)
		return f.set("stream", &section{header: header{Model: "root"}})
	}); err != nil {
		t.Fatal(err)
	}
	if err := updateJSON(path, setFleet("b")); err != nil {
		t.Fatal(err)
	}
	var f servingFile
	buf, _ := os.ReadFile(path)
	if err := decodeStrict(buf, &f); err != nil {
		t.Fatal(err)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, f.Scale); err != nil {
		t.Fatal(err)
	}
	wantScale := strings.ReplaceAll(scale, " ", "")
	if fleet, _ := f.get("fleet"); fleet.Model != "b" || f.Model != "root" || compact.String() != wantScale {
		t.Fatalf("rewriting one section lost another: fleet %q, root %q, scale %s", fleet.Model, f.Model, &compact)
	}

	for name, content := range map[string]string{
		"truncated":   string(buf[:len(buf)/2]),
		"trailing":    string(buf) + "{}",
		"unknown key": `{"model": "root", "fleeet": {}}`,
	} {
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := updateJSON(path, setFleet("c")); err == nil {
			t.Fatalf("%s file: no error — the write would have erased the other sections", name)
		}
		if after, _ := os.ReadFile(path); string(after) != content {
			t.Fatalf("%s file was overwritten", name)
		}
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(path, 0o755); err != nil { // unreadable: a directory
		t.Fatal(err)
	}
	if err := updateJSON(path, setFleet("d")); err == nil {
		t.Fatal("unreadable file: no error")
	}
	left, _ := filepath.Glob(filepath.Join(filepath.Dir(path), "*"))
	if len(left) != 1 {
		t.Fatalf("temporary files left behind: %v", left)
	}
}
