// Command perfbench is the repository benchmark. It drives the
// simulator (stash.Sweep, stash.NewSystem) and the stashd serving plane
// (serve, cluster, cellcache on loopback listeners) through their
// public functions, checks every output it gets, and prints one JSON
// result line. See README.md for the workloads and metrics.
//
//	perfbench -out DIR --workload grid-l1|grid-direct|stashd-mix --seed N --seconds S --trace 0|1
//
// Untraced runs (--trace 0) report the end-to-end metrics; traced runs
// (--trace 1) record spans from this package's own code and report the
// per-layer metrics, the self-time table and the tracing overhead.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"time"
)

// runLimit bounds one run: a run that has not finished by then is
// broken, and exits nonzero rather than stalling its caller.
const runLimit = 170 * time.Second

// options are one run's inputs.
type options struct {
	seed    int64
	seconds time.Duration
	tr      *tracer // nil for untraced runs
	out     string  // directory for traces, results and scratch stores
}

// report is one run's outcome: every metric the workload measured, the
// operation counts, and the correctness failures seen.
type report struct {
	attempted, failed int
	clients           int // closed-loop clients; 1 on the grids
	problems          []string
	metrics           map[string]float64
	// extra holds stashd-mix's per-class latencies, printed for people
	// beside the JSON line.
	extra []string
}

func newReport() *report { return &report{clients: 1, metrics: make(map[string]float64)} }

// fail records a failed operation.
func (r *report) fail(format string, args ...any) {
	r.failed++
	r.problem(format, args...)
}

// problem records a correctness failure that is not one operation (an
// audit mismatch, a count that did not repeat).
func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(options) (*report, error){
	"grid-l1":     func(o options) (*report, error) { return runGrid(o, "grid-l1", l1Orgs) },
	"grid-direct": func(o options) (*report, error) { return runGrid(o, "grid-direct", directOrgs) },
	"stashd-mix":  runMix,
}

func main() {
	out := flag.String("out", ".bench_build/perfbench", "directory for traces, results and scratch stores")
	workload := flag.String("workload", "", "workload: grid-l1, grid-direct or stashd-mix")
	seed := flag.Int64("seed", 1, "seed for the workload's inputs")
	seconds := flag.Int("seconds", 20, "measurement length in seconds")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	flag.Parse()
	if err := run(*out, *workload, *seed, *seconds, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(out, workload string, seed int64, seconds, trace int) error {
	fn, ok := workloads[workload]
	switch {
	case !ok:
		return fmt.Errorf("unknown workload %q (want grid-l1, grid-direct or stashd-mix)", workload)
	case seconds < 1:
		return fmt.Errorf("--seconds %d: want at least 1", seconds)
	case trace != 0 && trace != 1:
		return fmt.Errorf("--trace %d: want 0 or 1", trace)
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	limit := time.AfterFunc(runLimit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: %s did not finish within %v\n", workload, runLimit)
		os.Exit(1)
	})
	defer limit.Stop()

	o := options{seed: seed, seconds: time.Duration(seconds) * time.Second, out: out}
	if trace == 1 {
		o.tr = newTracer()
	}
	rep, err := fn(o)
	if err != nil {
		return err
	}
	rep.metrics["peak_rss_mb"] = peakRSSMB()
	if trace == 1 {
		if err := rep.measureSystemBuild(o.tr); err != nil {
			return err
		}
	}

	want := endToEnd
	if trace == 1 {
		want = perLayer
	}
	printed := make(map[string]any, len(want))
	for _, m := range want {
		v, ok := rep.metrics[m.name]
		if !ok {
			v = 0 // a layer this workload does not drive
			if trace == 0 {
				return fmt.Errorf("workload %s did not measure %s", workload, m.name)
			}
		}
		printed[m.name] = map[string]any{"value": v, "unit": m.unit}
		fmt.Printf("%-40s %16.6g %s\n", m.name, v, m.unit)
	}
	for _, line := range rep.extra {
		fmt.Println(line)
	}

	correct := len(rep.problems) == 0 && rep.failed == 0 && rep.attempted > 0
	results := filepath.Join(out, "last-"+workload+".json")
	if trace == 1 {
		if err := reportTrace(o, workload, rep, results); err != nil {
			return err
		}
	} else if correct {
		// Kept so a later traced run can report its overhead.
		last := untracedRun{Seed: seed, Seconds: seconds, Clients: rep.clients, Metrics: rep.metrics}
		if data, err := json.Marshal(last); err == nil {
			os.WriteFile(results, data, 0o644) //nolint:errcheck // the overhead report is optional
		}
	}

	for i, p := range rep.problems {
		if i == 20 {
			fmt.Fprintf(os.Stderr, "perfbench: ... and %d more\n", len(rep.problems)-i)
			break
		}
		fmt.Fprintln(os.Stderr, "perfbench: FAIL:", p)
	}
	line, err := json.Marshal(map[string]any{
		"correct":   correct,
		"attempted": rep.attempted,
		"failed":    rep.failed,
		"metrics":   printed,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !correct {
		os.Exit(1)
	}
	return nil
}

// untracedRun is what an untraced run keeps for a later traced run of
// the same workload to compare with.
type untracedRun struct {
	Seed    int64              `json:"seed"`
	Seconds int                `json:"seconds"`
	Clients int                `json:"clients"`
	Metrics map[string]float64 `json:"metrics"`
}

// reportTrace prints the self-time table and the tracing overhead
// against the last untraced run of the same workload, and writes the
// spans to the output directory. Only setup_s runs no clients, so when
// the two runs' client counts differ (the traced stashd-mix run uses
// one) every other metric's difference is not tracing overhead and is
// not printed as such.
func reportTrace(o options, workload string, rep *report, untracedPath string) error {
	spans := o.tr.finished()
	rows := selfTable(spans)
	printSelfTable(os.Stdout, rows)
	path := filepath.Join(o.out, fmt.Sprintf("trace-%s-seed%d.json", workload, o.seed))
	if err := writeTrace(path, spans, rows); err != nil {
		return err
	}
	fmt.Printf("spans written to %s\n", path)

	var u untracedRun
	data, err := os.ReadFile(untracedPath)
	if err == nil {
		err = json.Unmarshal(data, &u)
	}
	if errors.Is(err, os.ErrNotExist) || (err == nil && u.Metrics == nil) {
		fmt.Println("tracing overhead: no untraced run of this workload to compare with")
		return nil
	} else if err != nil {
		return fmt.Errorf("reading %s: %w", untracedPath, err)
	}
	fmt.Printf("tracing overhead (traced - untraced): traced seed %d, %d client(s); untraced seed %d, %d s, %d client(s)\n",
		o.seed, rep.clients, u.Seed, u.Seconds, u.Clients)
	if u.Seed != o.seed {
		fmt.Println("  the seeds differ, so the inputs differ too")
	}
	for _, m := range endToEnd {
		t, v := rep.metrics[m.name], u.Metrics[m.name]
		if rep.clients != u.Clients && m.name != "setup_s" {
			fmt.Printf("  %-20s not compared: it depends on the client count\n", m.name)
			continue
		}
		rel := 0.0
		if v != 0 {
			rel = 100 * (t - v) / v
		}
		fmt.Printf("  %-20s %14.6g - %14.6g = %+14.6g %s (%+.1f%%)\n", m.name, t, v, t-v, m.unit, rel)
	}
	return nil
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
