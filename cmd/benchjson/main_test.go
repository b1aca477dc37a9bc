package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestFoldMinOf(t *testing.T) {
	mustParse := func(line string) record {
		t.Helper()
		r, ok := parseLine(line)
		if !ok {
			t.Fatalf("parseLine(%q) failed", line)
		}
		return r
	}
	recs := []record{
		// Three consecutive runs of Fig5, as go test -count 3 prints them:
		// the middle run is fastest and carries its own coherent metrics.
		mustParse("BenchmarkFig5/lud-8 3 2000 ns/op 10 allocs/op 900 sim_cycles"),
		mustParse("BenchmarkFig5/lud-8 3 1000 ns/op 12 allocs/op 900 sim_cycles"),
		mustParse("BenchmarkFig5/lud-8 3 3000 ns/op 11 allocs/op 900 sim_cycles"),
		// A short group: only 2 of the expected 3 runs.
		mustParse("BenchmarkWarpStep-8 100 500 ns/op"),
		mustParse("BenchmarkWarpStep-8 100 400 ns/op"),
	}

	var warn strings.Builder
	out := foldMinOf(recs, 3, &warn)
	if len(out) != 2 {
		t.Fatalf("folded to %d records, want 2: %+v", len(out), out)
	}
	if out[0].NsPerOp != 1000 || out[0].AllocsPerOp != 12 {
		t.Errorf("fig5 fold kept %+v, want the whole 1000 ns/op run (allocs 12)", out[0])
	}
	if want := 900 / (1000 / 1e9); out[0].SimCyclesPerSec != want {
		t.Errorf("fig5 sim_cycles_per_sec = %g, want %g (derived from the kept run)", out[0].SimCyclesPerSec, want)
	}
	if out[1].NsPerOp != 400 {
		t.Errorf("warpstep fold kept %g ns/op, want 400", out[1].NsPerOp)
	}
	if w := warn.String(); !strings.Contains(w, "BenchmarkWarpStep-8 ran 2 times, want 3") {
		t.Errorf("short group did not warn: %q", w)
	}
	if w := warn.String(); strings.Contains(w, "Fig5") {
		t.Errorf("complete group warned: %q", warn.String())
	}
}

func TestFoldMinOfSingletons(t *testing.T) {
	recs := []record{
		{Name: "BenchmarkA", NsPerOp: 1},
		{Name: "BenchmarkB", NsPerOp: 2},
	}
	var warn strings.Builder
	out := foldMinOf(recs, 1, &warn)
	if len(out) != 2 || out[0].Name != "BenchmarkA" || out[1].Name != "BenchmarkB" {
		t.Fatalf("min-of 1 changed records: %+v", out)
	}
	if warn.Len() != 0 {
		t.Errorf("min-of 1 warned: %q", warn.String())
	}
}

// A report row the baseline lacks is listed, not silently skipped; rows
// present on both sides still gate on the geomean.
func TestCompareListsRowsWithoutBaseline(t *testing.T) {
	base := report{Benchmarks: []record{
		{Name: "BenchmarkFig5/reuse/Cache-2", SimCyclesPerSec: 100},
	}}
	data, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_base.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	rep := report{Benchmarks: []record{
		{Name: "BenchmarkFig5/reuse/Cache-8", SimCyclesPerSec: 200},
		{Name: "BenchmarkFig6/surf/Cache-8", SimCyclesPerSec: 50},
		{Name: "BenchmarkWarpStep-8", NsPerOp: 3},
	}}
	var out strings.Builder
	if err := compareBaseline(rep, path, 0.7, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"BenchmarkFig6/surf/Cache-8",
		"BenchmarkWarpStep-8",
		"(2.00x)",
		"geomean over 1 cells",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("compare output lacks %q:\n%s", want, got)
		}
	}
	if n := strings.Count(got, "no baseline row"); n != 2 {
		t.Errorf("%d rows reported without baseline, want 2:\n%s", n, got)
	}
}
