#!/usr/bin/env bash
# bench.sh — run the workload benchmarks and record the performance
# trajectory as BENCH_<date>.json (ns/op, B/op, allocs/op, sim_cycles
# and the derived sim_cycles_per_sec per cell).
#
#   scripts/bench.sh                 # Figures 5 and 6, three iterations per cell
#   BENCH=. scripts/bench.sh         # every benchmark
#   BENCHTIME=1x scripts/bench.sh    # quicker, noisier single iteration
#   MINOF=3 scripts/bench.sh         # run each cell 3 times, keep the fastest
#   LABEL=baseline OUT=BENCH_baseline.json scripts/bench.sh
#
# MINOF > 1 runs every benchmark N times (go test -count N) and folds
# each group to its fastest run (benchjson -min-of N), the standard way
# to strip one-sided scheduler noise before a regression comparison.
#
# The default selection is the whole paper grid: the Figure 5
# microbenchmarks and the Figure 6 applications, whose Cache cells
# (surf/Cache above all) dominate the grid's host time. Shrink the
# iteration count with BENCHTIME/MINOF, never the workload.
#
# The default selection includes BenchmarkFig5TraceOverhead,
# so every report carries a trace-on vs trace-off row pair; compare
# them to read the tracing subsystem's host-time overhead:
#
#   jq -r '.benchmarks[] | select(.name | contains("TraceOverhead"))
#          | [.name, .ns_per_op, .allocs_per_op] | @tsv' "$OUT"
#
# Compare two reports field by field (the committed BENCH_baseline.json
# is the pre-optimization reference):
#
#   jq -r '.benchmarks[] | [.name, .ns_per_op, .allocs_per_op, .sim_cycles_per_sec] | @tsv' BENCH_baseline.json
set -euo pipefail
cd "$(dirname "$0")/.."

BENCH=${BENCH:-BenchmarkFig[56]}
BENCHTIME=${BENCHTIME:-3x}
DISPATCHTIME=${DISPATCHTIME:-1000x}
MINOF=${MINOF:-1}
LABEL=${LABEL:-$(git rev-parse --short HEAD 2>/dev/null || echo unlabeled)}
OUT=${OUT:-BENCH_$(date -u +%Y%m%d).json}

# The report carries two benchmark families: the Figure 5 and 6 workload
# grids (simulator throughput, sim_cycles_per_sec) and the warp-dispatch
# micro-benchmarks from internal/isa (interpreter cost in isolation,
# instr/s, zero allocs/op in steady state).
{
	go test -run '^$' -bench "$BENCH" -benchmem -benchtime "$BENCHTIME" -count "$MINOF" .
	go test -run '^$' -bench 'BenchmarkWarpStep|BenchmarkCompiledDispatch' \
		-benchmem -benchtime "$DISPATCHTIME" -count "$MINOF" ./internal/isa
} | go run ./cmd/benchjson -label "$LABEL" -min-of "$MINOF" >"$OUT"
echo "wrote $OUT" >&2
