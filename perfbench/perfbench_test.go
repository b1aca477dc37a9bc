package main

import (
	"encoding/json"
	"maps"
	"os"
	"slices"
	"testing"
	"time"

	"stash"
)

func TestGridOrderRepeatsPerSeed(t *testing.T) {
	a, b, c := gridOrder(7), gridOrder(7), gridOrder(8)
	differs := false
	for range 3 {
		x, y, z := a.Perm(33), b.Perm(33), c.Perm(33)
		if !slices.Equal(x, y) {
			t.Fatalf("seed 7 gave two cell orders: %v and %v", x, y)
		}
		differs = differs || !slices.Equal(x, z)
	}
	if !differs {
		t.Error("seeds 7 and 8 gave the same cell orders")
	}
}

func testPlan(t *testing.T, seed int64) *planner {
	t.Helper()
	cells, sweep, cheap, err := mixCells()
	if err != nil {
		t.Fatal(err)
	}
	owners := make([]int, len(cells))
	for i, c := range cells {
		owners[i] = c.owner
	}
	sweepKeys, pool := mixInputs(seed, cells, sweep, cheap)
	return newPlanner(seed, owners, sweepKeys, pool, cheap)
}

func TestRequestSequenceRepeatsPerSeed(t *testing.T) {
	a, b, c := testPlan(t, 3), testPlan(t, 3), testPlan(t, 4)
	differs := false
	for i := range 5000 {
		x, y, z := a.next(), b.next(), c.next()
		if x != y {
			t.Fatalf("request %d: seed 3 gave %+v and %+v", i, x, y)
		}
		differs = differs || x != z
	}
	if !differs {
		t.Error("seeds 3 and 4 gave the same request sequence")
	}
}

// TestPlanKeepsItsRules replays a long plan and checks the properties
// the class audit relies on: every class occurs, cold cells are new,
// and no cell is reused sooner than its gap allows.
func TestPlanKeepsItsRules(t *testing.T) {
	p := testPlan(t, 1)
	seen := make(map[mixKey]bool)
	last := make(map[mixKey]int)
	cold := make(map[mixKey]int)
	for i := range 20000 {
		r := p.next()
		if r.class == classSweep || r.class == classMem {
			continue
		}
		k := r.key
		if r.class == classCold {
			if seen[k] {
				t.Fatalf("request %d: cold cell %v was used before", i, k)
			}
			cold[k] = i
		} else {
			if j, ok := last[k]; ok && i-j < reuseGap {
				t.Fatalf("request %d: %v reused %d requests after its last use", i, k, i-j)
			}
			if j, ok := cold[k]; ok && i-j < coldGap {
				t.Fatalf("request %d: cold cell %v reused %d requests after it was made", i, k, i-j)
			}
		}
		seen[k] = true
		last[k] = i
	}
	counts, _ := p.planned()
	for c, n := range counts {
		if n == 0 {
			t.Errorf("no %s requests in 20000", class(c))
		}
	}
	if share := float64(counts[classMem]) / 20000; share > 0.8 {
		t.Errorf("memory hits are %.0f%% of the plan: the mix has decayed into hits", 100*share)
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, c := range []struct {
		p       float64
		n       int
		ok      bool
		wantVal float64
	}{
		{0.5, 19, false, 0},
		{0.5, 20, true, 10},
		{0.9, 99, false, 0},
		{0.9, 100, true, 90},
		{0.99, 999, false, 0},
		{0.99, 1000, true, 990},
		{0.5, 0, false, 0},
	} {
		v, n, err := percentile(seq(c.n), c.p)
		if n != c.n {
			t.Errorf("p%g over %d samples reports %d samples", c.p*100, c.n, n)
		}
		if (err == nil) != c.ok {
			t.Errorf("p%g over %d samples: err = %v, want ok=%v", c.p*100, c.n, err, c.ok)
		}
		if c.ok && v != c.wantVal {
			t.Errorf("p%g over %d samples = %v, want %v", c.p*100, c.n, v, c.wantVal)
		}
	}
}

func TestGoldenFlagsOneCyclePerturbation(t *testing.T) {
	t.Chdir("..")
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	spec := stash.Grid([]string{"implicit"}, []stash.MemOrg{stash.Stash})[0]
	e := g[spec.String()]
	res := stash.Result{Cycles: e.Cycles, EnergyPJ: e.EnergyPJ, GPUInstructions: e.Instructions, FlitHops: e.FlitHops}
	if err := g.check(spec, res); err != nil {
		t.Fatalf("golden values themselves rejected: %v", err)
	}
	res.Cycles++
	if g.check(spec, res) == nil {
		t.Error("a one-cycle perturbation passed the golden check")
	}
	res.Cycles--
	res.FlitHops = map[string]uint64{"read": e.FlitHops["read"] + 1, "write": e.FlitHops["write"], "writeback": e.FlitHops["writeback"]}
	if g.check(spec, res) == nil {
		t.Error("a one-flit perturbation passed the golden check")
	}
}

func TestPinnedCountsFlagOnePerturbation(t *testing.T) {
	layer := make(map[string]bool)
	for _, m := range perLayer {
		layer[m.name] = true
	}
	for _, grid := range []string{"grid-l1", "grid-direct"} {
		pinned, err := pinnedCounts(grid)
		if err != nil {
			t.Fatal(err)
		}
		for name := range pinned {
			if !layer[name] {
				t.Errorf("%s: pinned count %s is not a per-layer metric", grid, name)
			}
		}
		got := maps.Clone(pinned)
		if diffs := countDiffs(got, pinned); len(diffs) != 0 {
			t.Errorf("%s: pinned counts differ from themselves: %v", grid, diffs)
		}
		got["sim.cycles"]++
		if diffs := countDiffs(got, pinned); len(diffs) != 1 {
			t.Errorf("%s: one-cycle perturbation gave diffs %v", grid, diffs)
		}
		got = maps.Clone(pinned)
		delete(got, "noc.messages") // a layer that reported nothing
		if diffs := countDiffs(got, pinned); len(diffs) != 1 {
			t.Errorf("%s: a missing count gave diffs %v", grid, diffs)
		}
	}
}

func TestSelfTimeSubtractsChildCoverageOnce(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "coord", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "shard", Start: 10, End: 50},
		{ID: 3, Parent: 1, Name: "shard", Start: 30, End: 70}, // overlaps span 2
		{ID: 4, Parent: 2, Name: "frame", Start: 20, End: 25},
	}
	self := selfTimes(spans)
	for id, want := range map[int64]time.Duration{1: 40, 2: 35, 3: 40, 4: 5} {
		if self[id] != want {
			t.Errorf("span %d self time %v, want %v", id, self[id], want)
		}
	}
}

// TestMetricsMatchBenchmarkJSON keeps the metric tables and
// BENCHMARK.json in step.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	for w := range workloads {
		if !slices.Contains(names, w) {
			t.Errorf("workload %s is not in BENCHMARK.json", w)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(names), len(workloads))
	}
	for _, c := range []struct {
		json  []struct{ Name, Unit string }
		table []metric
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		if len(c.json) != len(c.table) {
			t.Errorf("BENCHMARK.json has %d metrics, the table %d", len(c.json), len(c.table))
			continue
		}
		for i, m := range c.table {
			if c.json[i].Name != m.name || c.json[i].Unit != m.unit {
				t.Errorf("metric %d: BENCHMARK.json %s (%s), table %s (%s)", i, c.json[i].Name, c.json[i].Unit, m.name, m.unit)
			}
		}
	}
}

// TestMixAuditPasses runs a short stashd-mix against a real cluster:
// every reply must pass its check and the shards' counters must match
// the plan's classes.
func TestMixAuditPasses(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates about 300 cells")
	}
	t.Chdir("..")
	rep, err := runMix(options{seed: 5, seconds: 3 * time.Second, out: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if rep.attempted == 0 || rep.failed != 0 || len(rep.problems) != 0 {
		t.Fatalf("attempted %d, failed %d, problems %v", rep.attempted, rep.failed, rep.problems)
	}
}
