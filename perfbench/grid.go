package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"maps"
	"math/rand/v2"
	"slices"
	"strings"
	"time"

	"stash"
)

// The two grids split the paper's 66 golden cells by whether the GPU's
// global accesses go through the L1: l1Orgs carry the L1 replay storms,
// directOrgs do not.
var (
	l1Orgs     = []stash.MemOrg{stash.Scratch, stash.ScratchG, stash.Cache}
	directOrgs = []stash.MemOrg{stash.ScratchGD, stash.Stash, stash.StashG}
)

// setupsPerCell is how many times a grid run repeats its set-up after
// each cell, outside the timed passes; setup_s is the median of these
// and the first set-up. One set-up takes about 0.4 ms, so a block of
// them in a row samples the host's speed at one moment, and that speed
// drifts; spread over the run, the set-ups average the drift the way
// the passes do.
const setupsPerCell = 8

// pinnedCountsJSON holds the simulator counts of one whole pass of each
// grid. golden.json pins four numbers per cell; these pin every layer's
// counts, so a change that moves any of them fails every run.
//
//go:embed counts.json
var pinnedCountsJSON []byte

// pinnedCounts returns the pinned simulator counts of grid.
func pinnedCounts(grid string) (map[string]float64, error) {
	var all map[string]map[string]float64
	if err := json.Unmarshal(pinnedCountsJSON, &all); err != nil {
		return nil, fmt.Errorf("parsing counts.json: %w", err)
	}
	c, ok := all[grid]
	if !ok {
		return nil, fmt.Errorf("counts.json has no counts for %s", grid)
	}
	return c, nil
}

// countDiffs lists every count on which got and want differ, a count
// missing from either reading as 0.
func countDiffs(got, want map[string]float64) []string {
	names := slices.Collect(maps.Keys(got))
	for name := range want {
		if _, ok := got[name]; !ok {
			names = append(names, name)
		}
	}
	slices.Sort(names)
	var diffs []string
	for _, name := range names {
		if got[name] != want[name] {
			diffs = append(diffs, fmt.Sprintf("%s %.0f, pinned %.0f", name, got[name], want[name]))
		}
	}
	return diffs
}

// setupGrid is everything a grid run does before its first cell: load
// the golden table and build and validate the half-grid's cells.
func setupGrid(orgs []stash.MemOrg) (golden, []stash.RunSpec, error) {
	g, err := loadGolden()
	if err != nil {
		return nil, nil, err
	}
	specs := stash.Grid(stash.Workloads(), orgs)
	for _, s := range specs {
		if _, ok := g[s.String()]; !ok {
			return nil, nil, fmt.Errorf("%s: not in %s", s, goldenPath)
		}
		if err := s.Config.Validate(); err != nil {
			return nil, nil, err
		}
	}
	return g, specs, nil
}

// gridOrder draws each pass's cell order as a seeded permutation, so a
// seed reproduces the orders and different seeds vary them.
func gridOrder(seed int64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), 0x67726964))
}

// runGrid simulates the half-grid on orgs one cell at a time through
// stash.Sweep, in whole passes until the run's seconds are used (at
// least one pass). It checks every cell against golden and every pass's
// simulator counts against the counts pinned for grid.
func runGrid(o options, grid string, orgs []stash.MemOrg) (*report, error) {
	rep := newReport()
	pinned, err := pinnedCounts(grid)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	g, specs, err := setupGrid(orgs)
	if err != nil {
		return nil, err
	}
	setups := []float64{time.Since(start).Seconds()}
	// resetup repeats the set-up setupsPerCell times and returns how long
	// that took, which the pass's wall time leaves out.
	resetup := func(parent int64) (time.Duration, error) {
		id := o.tr.begin("grid.setup", parent, 0)
		defer o.tr.end(id)
		begin := time.Now()
		for range setupsPerCell {
			t := time.Now()
			if _, _, err := setupGrid(orgs); err != nil {
				return 0, err
			}
			setups = append(setups, time.Since(t).Seconds())
		}
		return time.Since(begin), nil
	}

	var (
		order  = gridOrder(o.seed)
		ctx    = context.Background()
		walls  = make(map[string][]float64) // seconds, by per-layer cell metric
		passes []float64
		cycles float64
		simNS  float64
		counts map[string]float64 // simulator counts of the first pass
	)
	start = time.Now()
	for pass := 0; pass == 0 || time.Since(start) < o.seconds; pass++ {
		passCounts := make(map[string]float64)
		passSpan := o.tr.begin("grid.pass", 0, 0)
		passStart := time.Now()
		var setupTime time.Duration
		for _, i := range order.Perm(len(specs)) {
			spec := specs[i]
			id := o.tr.begin("grid.cell", passSpan, 0)
			t := time.Now()
			res, err := stash.Sweep(ctx, []stash.RunSpec{spec}, stash.SweepOptions{Workers: 1})
			wall := time.Since(t)
			o.tr.end(id)
			rep.attempted++
			if err == nil {
				err = g.check(spec, res[0].Result)
			}
			if err == nil {
				walls[cellMetric(spec)] = append(walls[cellMetric(spec)], wall.Seconds())
				cycles += float64(res[0].Result.Cycles)
				simNS += float64(wall)
				simCounts(passCounts, res[0].Result)
			} else {
				rep.fail("%v", err)
			}
			d, err := resetup(passSpan)
			if err != nil {
				return nil, err
			}
			setupTime += d
		}
		o.tr.end(passSpan)
		passes = append(passes, (time.Since(passStart) - setupTime).Seconds())
		if rep.failed == 0 {
			if diffs := countDiffs(passCounts, pinned); len(diffs) > 0 {
				rep.problem("pass %d: simulator counts differ from perfbench/counts.json: %s", pass+1, strings.Join(diffs, "; "))
			}
		}
		if counts == nil {
			counts = passCounts
		}
	}

	var total float64
	for _, p := range passes {
		total += p
	}
	for name, v := range counts {
		rep.metrics[name] = v
	}
	for name, w := range walls {
		rep.metrics[name] = median(w)
	}
	finishSimCounts(rep.metrics, simNS)
	rep.metrics["setup_s"] = median(setups)
	rep.metrics["grid_wall_s"] = median(passes)
	rep.metrics["sim_cycles_per_s"] = cycles / total
	rep.metrics["ops_per_s"] = float64(rep.attempted) / total
	return rep, nil
}

// measureSystemBuild times stash.NewSystem for the micro and app
// machines of every organization, five times over, as system.build_ms
// (the median build). It runs after the measured phase of traced runs.
func (r *report) measureSystemBuild(tr *tracer) error {
	var ms []float64
	for range 5 {
		for _, org := range stash.Orgs() {
			for _, cfg := range []stash.Config{stash.MicroConfig(org), stash.AppConfig(org)} {
				id := tr.begin("system.build", 0, 0)
				t := time.Now()
				_, err := stash.NewSystem(cfg)
				elapsed := time.Since(t)
				tr.end(id)
				if err != nil {
					return fmt.Errorf("building %v: %w", org, err)
				}
				ms = append(ms, float64(elapsed)/1e6)
			}
		}
	}
	p50, _, err := percentile(ms, 0.5)
	if err != nil {
		return err
	}
	r.metrics["system.build_ms"] = p50
	return nil
}
