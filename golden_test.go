package stash

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"runtime"
	"strings"
	"testing"
)

// The golden-metrics regression test pins every simulated metric of
// every (workload, organization) pair to exact values captured before
// the zero-allocation hot-path work. Performance optimizations must
// never change simulated results: cycles, energy, instruction counts
// and network traffic are bit-identical across refactors, and any
// intentional model change must regenerate the table with
//
//	go test -run TestGoldenMetrics -update-golden
//
// and justify the diff in review.

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden.json and testdata/golden_l1.json from the current simulator")

const (
	goldenPath   = "testdata/golden.json"
	goldenL1Path = "testdata/golden_l1.json"
)

// goldenEntry is one (workload, org) cell of the golden table. EnergyPJ
// round-trips exactly through JSON: encoding/json emits the shortest
// float representation that parses back to the identical float64.
type goldenEntry struct {
	Workload     string            `json:"workload"`
	Org          string            `json:"org"`
	Cycles       uint64            `json:"cycles"`
	EnergyPJ     float64           `json:"energy_pj"`
	Instructions uint64            `json:"instructions"`
	FlitHops     map[string]uint64 `json:"flit_hops"`
}

// l1Entry pins one cell's L1 counters, each summed over every L1 unit
// (GPU and CPU). golden.json cannot see a miscounted eviction: evictions
// move cycles only when they change residency. These sums can.
type l1Entry struct {
	Workload string            `json:"workload"`
	Org      string            `json:"org"`
	L1       map[string]uint64 `json:"l1"`
}

// l1Counters are the per-unit counter suffixes l1Sums adds up.
var l1Counters = []string{"hits", "misses", "evictions", "writebacks", "remote_hits"}

// l1Sums sums each l1.<unit>.<counter> over every unit.
func l1Sums(counters map[string]uint64) map[string]uint64 {
	sums := make(map[string]uint64, len(l1Counters))
	for _, name := range l1Counters {
		sums[name] = 0
	}
	for name, v := range counters {
		rest, ok := strings.CutPrefix(name, "l1.")
		if !ok {
			continue
		}
		if i := strings.IndexByte(rest, '.'); i >= 0 {
			if _, pinned := sums[rest[i+1:]]; pinned {
				sums[rest[i+1:]] += v
			}
		}
	}
	return sums
}

func readGoldenL1(t *testing.T) map[string]map[string]uint64 {
	t.Helper()
	data, err := os.ReadFile(goldenL1Path)
	if err != nil {
		t.Fatalf("reading L1 golden table (regenerate with -update-golden): %v", err)
	}
	var entries []l1Entry
	if err := json.Unmarshal(data, &entries); err != nil {
		t.Fatalf("parsing %s: %v", goldenL1Path, err)
	}
	byCell := make(map[string]map[string]uint64, len(entries))
	for _, e := range entries {
		byCell[e.Workload+"/"+e.Org] = e.L1
	}
	return byCell
}

func goldenGrid() []RunSpec {
	return Grid(Workloads(), Orgs())
}

func readGolden(t *testing.T) []goldenEntry {
	t.Helper()
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden table (regenerate with -update-golden): %v", err)
	}
	var entries []goldenEntry
	if err := json.Unmarshal(data, &entries); err != nil {
		t.Fatalf("parsing %s: %v", goldenPath, err)
	}
	return entries
}

func writeGolden(t *testing.T) {
	t.Helper()
	specs := goldenGrid()
	results, err := Sweep(context.Background(), specs, SweepOptions{Workers: runtime.GOMAXPROCS(0)})
	if err != nil {
		t.Fatal(err)
	}
	entries := make([]goldenEntry, 0, len(results))
	l1 := make([]l1Entry, 0, len(results))
	for _, r := range results {
		l1 = append(l1, l1Entry{
			Workload: r.Spec.Workload,
			Org:      r.Spec.Config.Org.String(),
			L1:       l1Sums(r.Result.Counters),
		})
		entries = append(entries, goldenEntry{
			Workload:     r.Spec.Workload,
			Org:          r.Spec.Config.Org.String(),
			Cycles:       r.Result.Cycles,
			EnergyPJ:     r.Result.EnergyPJ,
			Instructions: r.Result.GPUInstructions,
			FlitHops:     r.Result.FlitHops,
		})
	}
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	for _, f := range []struct {
		path string
		v    any
	}{{goldenPath, entries}, {goldenL1Path, l1}} {
		data, err := json.MarshalIndent(f.v, "", "\t")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(f.path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("wrote %d golden entries to %s and %s", len(entries), goldenPath, goldenL1Path)
}

// neutralCells are the cells the neutrality tests replay: implicit/Stash
// exercises the stash and DMA paths, reuse/Cache an L1 replay storm,
// whose parked retries the checker's invariant sweeps read mid-storm.
var neutralCells = []string{"implicit/Stash", "reuse/Cache"}

// goldenByCell indexes the golden table by "workload/Org".
func goldenByCell(t *testing.T) map[string]goldenEntry {
	t.Helper()
	byCell := make(map[string]goldenEntry)
	for _, e := range readGolden(t) {
		byCell[e.Workload+"/"+e.Org] = e
	}
	return byCell
}

// checkGolden reports every pinned metric of res that differs from the
// golden cell e and its L1 sums l1.
func checkGolden(t *testing.T, e goldenEntry, l1 map[string]uint64, res Result) {
	t.Helper()
	if res.Cycles != e.Cycles {
		t.Errorf("Cycles = %d, golden %d", res.Cycles, e.Cycles)
	}
	if res.EnergyPJ != e.EnergyPJ {
		t.Errorf("EnergyPJ = %v, golden %v", res.EnergyPJ, e.EnergyPJ)
	}
	if res.GPUInstructions != e.Instructions {
		t.Errorf("Instructions = %d, golden %d", res.GPUInstructions, e.Instructions)
	}
	for class, want := range e.FlitHops {
		if got := res.FlitHops[class]; got != want {
			t.Errorf("FlitHops[%s] = %d, golden %d", class, got, want)
		}
	}
	got := l1Sums(res.Counters)
	for _, name := range l1Counters {
		if got[name] != l1[name] {
			t.Errorf("l1 %s = %d, golden %d", name, got[name], l1[name])
		}
	}
}

// runNeutral replays each neutral cell under cfgFor and requires
// bit-identical metrics to the golden tables; check, when non-nil,
// inspects each result further.
func runNeutral(t *testing.T, cfgFor func(MemOrg) Config, check func(t *testing.T, cell string, res Result)) {
	golden, l1 := goldenByCell(t), readGoldenL1(t)
	for _, cell := range neutralCells {
		t.Run(cell, func(t *testing.T) {
			e, ok := golden[cell]
			if !ok {
				t.Fatalf("golden table has no %s entry", cell)
			}
			org, err := ParseMemOrg(e.Org)
			if err != nil {
				t.Fatal(err)
			}
			res, err := RunWorkloadCfg(e.Workload, cfgFor(org))
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, e, l1[cell], res)
			if check != nil {
				check(t, cell, res)
			}
		})
	}
}

// TestGoldenChecksNeutral replays the neutral cells with the full
// hardening instrumentation armed — invariant sweeps plus the
// watchdog — and requires bit-identical metrics to the golden table.
// The checker is a host-side probe that never schedules events or
// advances the clock, so "checks on" must be invisible to every
// simulated number.
func TestGoldenChecksNeutral(t *testing.T) {
	runNeutral(t, func(org MemOrg) Config {
		cfg := MicroConfig(org)
		cfg.CheckInvariants = true
		cfg.WatchdogBudget = 1 << 24
		return cfg
	}, nil)
}

// TestGoldenTraceNeutral replays the neutral cells with event tracing
// armed and requires bit-identical metrics to the golden table: trace
// sinks are host-side observers that never schedule events, advance the
// clock, or charge energy, so "tracing on" must be invisible to every
// simulated number — while still producing a populated timeline
// (component tracks, phases, and the headline time-series).
func TestGoldenTraceNeutral(t *testing.T) {
	runNeutral(t, func(org MemOrg) Config {
		cfg := MicroConfig(org)
		cfg.Trace = &TraceConfig{}
		return cfg
	}, checkTimeline)
}

// checkTimeline requires a traced run's timeline to be populated.
func checkTimeline(t *testing.T, cell string, res Result) {
	tl := res.Timeline
	if tl == nil {
		t.Fatal("traced run returned no Timeline")
	}
	if tl.NumEvents() == 0 {
		t.Error("timeline holds no events")
	}
	if n := len(tl.Tracks()); n < 6 {
		t.Errorf("timeline has %d component tracks, want at least 6: %v", n, tl.Tracks())
	}
	if len(tl.Phases()) == 0 {
		t.Error("timeline has no phase annotations")
	}
	sum := func(vals []uint64) uint64 {
		var s uint64
		for _, v := range vals {
			s += v
		}
		return s
	}
	if cell == "implicit/Stash" {
		if vals, ok := tl.Series("stash.gpu0.writebacks"); !ok {
			t.Errorf("timeline is missing series stash.gpu0.writebacks (have %v)", tl.SeriesNames())
		} else if sum(vals) == 0 {
			t.Error("series stash.gpu0.writebacks is all zero")
		}
	}
	if _, ok := tl.Series("l1.gpu0.misses"); !ok {
		t.Errorf("timeline is missing series l1.gpu0.misses (have %v)", tl.SeriesNames())
	}
	// On implicit/Stash the stash absorbs the GPU's misses; the
	// workload's L1 miss traffic is on the producing CPU cores' L1s.
	var l1Misses, linkFlits uint64
	for _, name := range tl.SeriesNames() {
		vals, _ := tl.Series(name)
		switch {
		case strings.HasPrefix(name, "l1.") && strings.HasSuffix(name, ".misses"):
			l1Misses += sum(vals)
		case strings.HasPrefix(name, "noc.link."):
			linkFlits += sum(vals)
		}
	}
	if l1Misses == 0 {
		t.Error("L1 miss series recorded no misses on any L1")
	}
	if linkFlits == 0 {
		t.Error("per-link NoC flit series recorded no traffic")
	}
}

// TestGoldenMetrics replays the full grid and requires exact equality
// with the committed table. In -short mode only the microbenchmark
// machine runs (the application cells are the long ones).
func TestGoldenMetrics(t *testing.T) {
	if *updateGolden {
		writeGolden(t)
		return
	}
	entries := readGolden(t)
	if want := len(goldenGrid()); len(entries) != want {
		t.Fatalf("golden table has %d entries, grid has %d cells; regenerate with -update-golden", len(entries), want)
	}
	l1 := readGoldenL1(t)
	if len(l1) != len(entries) {
		t.Fatalf("L1 golden table has %d cells, golden table %d; regenerate with -update-golden", len(l1), len(entries))
	}
	for _, e := range entries {
		e := e
		if testing.Short() && !IsMicrobenchmark(e.Workload) {
			continue
		}
		t.Run(e.Workload+"/"+e.Org, func(t *testing.T) {
			t.Parallel()
			org, err := ParseMemOrg(e.Org)
			if err != nil {
				t.Fatal(err)
			}
			want, ok := l1[e.Workload+"/"+e.Org]
			if !ok {
				t.Fatalf("%s has no L1 golden entry", e.Workload+"/"+e.Org)
			}
			res, err := RunWorkload(e.Workload, org)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, e, want, res)
		})
	}
}
