// Benchjson converts `go test -bench` output on stdin into the JSON
// benchmark-trajectory schema committed as BENCH_*.json (see
// scripts/bench.sh). Every benchmark line becomes one record carrying
// ns/op, allocs/op, B/op and all custom metrics; records with a
// sim_cycles metric also get the derived sim_cycles_per_sec, the
// simulator-throughput number the perf work tracks.
//
//	go test -run '^$' -bench BenchmarkFig5 -benchmem | benchjson -label baseline
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"stash/internal/cliutil"
)

type record struct {
	Name            string             `json:"name"`
	Iterations      int64              `json:"iterations"`
	NsPerOp         float64            `json:"ns_per_op"`
	BytesPerOp      float64            `json:"bytes_per_op,omitempty"`
	AllocsPerOp     float64            `json:"allocs_per_op,omitempty"`
	Metrics         map[string]float64 `json:"metrics,omitempty"`
	SimCyclesPerSec float64            `json:"sim_cycles_per_sec,omitempty"`
}

type report struct {
	Label      string    `json:"label"`
	Date       time.Time `json:"date"`
	GoVersion  string    `json:"go_version"`
	GOOS       string    `json:"goos"`
	GOARCH     string    `json:"goarch"`
	MinOf      int       `json:"min_of,omitempty"`
	Benchmarks []record  `json:"benchmarks"`
}

func main() {
	label := flag.String("label", "", "free-form label stored in the report (e.g. baseline, a git SHA)")
	compare := flag.String("compare", "", "baseline BENCH_*.json to compare against; exits 1 when the sim_cycles_per_sec geomean ratio falls below -floor")
	floor := flag.Float64("floor", 0.7, "minimum acceptable new/baseline sim_cycles_per_sec geomean ratio for -compare")
	minOf := flag.Int("min-of", 1, "fold N consecutive runs of each benchmark (from go test -count N) into one record, keeping the fastest; min-of-N damps scheduler noise in regression gates")
	version := cliutil.VersionFlag()
	flag.Parse()
	version()
	if *minOf < 1 {
		fmt.Fprintln(os.Stderr, "benchjson: -min-of must be >= 1")
		os.Exit(2)
	}

	rep := report{
		Label:     *label,
		Date:      time.Now().UTC(),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
	}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(os.Stderr, line) // pass the raw output through for the console
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		if r, ok := parseLine(line); ok {
			rep.Benchmarks = append(rep.Benchmarks, r)
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if *minOf > 1 {
		rep.MinOf = *minOf
		rep.Benchmarks = foldMinOf(rep.Benchmarks, *minOf, os.Stderr)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "\t")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if *compare != "" {
		if err := compareBaseline(rep, *compare, *floor, os.Stderr); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
	}
}

// foldMinOf collapses the consecutive runs `go test -count N` emits
// for each benchmark into the single fastest record (minimum ns/op),
// the standard way to strip one-sided scheduler noise before a
// regression comparison. The kept record is one coherent measurement —
// its allocs, custom metrics, and derived sim_cycles_per_sec all come
// from the same run, never mixed across runs. Runs are matched by raw
// name and must be adjacent, exactly as go test prints them; a group
// whose size differs from n folds anyway but warns, so a truncated
// bench log cannot masquerade as a clean min-of-N gate.
func foldMinOf(recs []record, n int, warn io.Writer) []record {
	out := recs[:0]
	for i := 0; i < len(recs); {
		j := i + 1
		for j < len(recs) && recs[j].Name == recs[i].Name {
			j++
		}
		best := recs[i]
		for _, r := range recs[i+1 : j] {
			if r.NsPerOp < best.NsPerOp {
				best = r
			}
		}
		if j-i != n {
			fmt.Fprintf(warn, "benchjson: %s ran %d times, want %d (-min-of %d)\n",
				best.Name, j-i, n, n)
		}
		out = append(out, best)
		i = j
	}
	return out
}

// compareBaseline is the regression guard behind -compare: it matches
// the new report's records against the baseline file by name and
// requires the geomean of the new/baseline sim_cycles_per_sec ratios to
// stay at or above floor. Records without a sim_cycles metric on both
// sides (micro-benchmarks without a simulated clock) are ignored.
// Records the baseline has no row for are listed on w, so a newly
// benchmarked cell is visibly ungated rather than silently skipped.
func compareBaseline(rep report, path string, floor float64, w io.Writer) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base report
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("parsing baseline %s: %w", path, err)
	}
	baseBy := make(map[string]record, len(base.Benchmarks))
	for _, r := range base.Benchmarks {
		baseBy[stripProcs(r.Name)] = r
	}
	var logSum float64
	n := 0
	for _, r := range rep.Benchmarks {
		b, ok := baseBy[stripProcs(r.Name)]
		if !ok {
			fmt.Fprintf(w, "compare %-60s no baseline row\n", r.Name)
			continue
		}
		if r.SimCyclesPerSec <= 0 || b.SimCyclesPerSec <= 0 {
			continue
		}
		ratio := r.SimCyclesPerSec / b.SimCyclesPerSec
		fmt.Fprintf(w, "compare %-60s %12.0f -> %12.0f cycles/s  (%.2fx)\n",
			r.Name, b.SimCyclesPerSec, r.SimCyclesPerSec, ratio)
		logSum += math.Log(ratio)
		n++
	}
	if n == 0 {
		return fmt.Errorf("no comparable sim_cycles_per_sec records between report and %s", path)
	}
	geomean := math.Exp(logSum / float64(n))
	fmt.Fprintf(w, "compare geomean over %d cells: %.3fx (floor %.2fx, baseline %s)\n",
		n, geomean, floor, path)
	if geomean < floor {
		return fmt.Errorf("sim_cycles_per_sec geomean %.3fx below floor %.2fx vs %s", geomean, floor, path)
	}
	return nil
}

// stripProcs removes the -N GOMAXPROCS suffix go test appends to
// benchmark names (absent when GOMAXPROCS is 1), so reports from hosts
// with different core counts compare by the same key.
func stripProcs(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 || i == len(name)-1 {
		return name
	}
	for _, c := range name[i+1:] {
		if c < '0' || c > '9' {
			return name
		}
	}
	return name[:i]
}

// parseLine parses one benchmark result line: a name, the iteration
// count, then (value, unit) pairs.
func parseLine(line string) (record, bool) {
	f := strings.Fields(line)
	if len(f) < 4 || len(f)%2 != 0 {
		return record{}, false
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return record{}, false
	}
	r := record{Name: f[0], Iterations: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return record{}, false
		}
		switch f[i+1] {
		case "ns/op":
			r.NsPerOp = v
		case "B/op":
			r.BytesPerOp = v
		case "allocs/op":
			r.AllocsPerOp = v
		default:
			r.Metrics[f[i+1]] = v
		}
	}
	if len(r.Metrics) == 0 {
		r.Metrics = nil
	}
	if cycles, ok := r.Metrics["sim_cycles"]; ok && r.NsPerOp > 0 {
		r.SimCyclesPerSec = cycles / (r.NsPerOp / 1e9)
	}
	return r, true
}
