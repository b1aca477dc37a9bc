package main

import (
	"encoding/json"
	"fmt"
	"os"

	"stash"
)

// goldenPath is the 66-cell paper grid pinned by the repository's
// golden test. It pins the model's own output, not its accuracy against
// hardware (EXPERIMENTS.md holds the comparison with the paper).
const goldenPath = "testdata/golden.json"

// goldenEntry is one pinned cell, in the schema of testdata/golden.json.
type goldenEntry struct {
	Workload     string            `json:"workload"`
	Org          string            `json:"org"`
	Cycles       uint64            `json:"cycles"`
	EnergyPJ     float64           `json:"energy_pj"`
	Instructions uint64            `json:"instructions"`
	FlitHops     map[string]uint64 `json:"flit_hops"`
}

// golden indexes the pinned cells by "workload/Org".
type golden map[string]goldenEntry

func loadGolden() (golden, error) {
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		return nil, fmt.Errorf("reading golden table: %w", err)
	}
	var entries []goldenEntry
	if err := json.Unmarshal(data, &entries); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", goldenPath, err)
	}
	g := make(golden, len(entries))
	for _, e := range entries {
		g[e.Workload+"/"+e.Org] = e
	}
	return g, nil
}

// check compares a simulated result with the pinned cell on cycles,
// energy, GPU instructions and flit-hops per class. Energy compares
// exactly: the table stores the shortest float64 representation, which
// round-trips bit for bit.
func (g golden) check(spec stash.RunSpec, r stash.Result) error {
	e, ok := g[spec.String()]
	if !ok {
		return fmt.Errorf("%s: not in %s", spec, goldenPath)
	}
	switch {
	case r.Cycles != e.Cycles:
		return fmt.Errorf("%s: cycles %d, golden %d", spec, r.Cycles, e.Cycles)
	case r.EnergyPJ != e.EnergyPJ:
		return fmt.Errorf("%s: energy %v pJ, golden %v", spec, r.EnergyPJ, e.EnergyPJ)
	case r.GPUInstructions != e.Instructions:
		return fmt.Errorf("%s: instructions %d, golden %d", spec, r.GPUInstructions, e.Instructions)
	case len(r.FlitHops) != len(e.FlitHops):
		return fmt.Errorf("%s: flit-hop classes %v, golden %v", spec, r.FlitHops, e.FlitHops)
	}
	for class, want := range e.FlitHops {
		if got := r.FlitHops[class]; got != want {
			return fmt.Errorf("%s: %s flit-hops %d, golden %d", spec, class, got, want)
		}
	}
	return nil
}
