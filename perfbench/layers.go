package main

import (
	"strings"

	"stash"
)

// metric names one reported number and its unit.
type metric struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported by every
// untraced run on every workload. A grid's operation is one cell
// simulated through stash.Sweep and checked against golden; the
// stashd-mix operation is one client request.
var endToEnd = []metric{
	{"setup_s", "s"},            // time until the first timed operation (median of repeated set-ups)
	{"grid_wall_s", "s"},        // grids: one whole half-grid; stashd-mix: one warm Fig. 5 sweep (median)
	{"sim_cycles_per_s", "1/s"}, // simulated GPU cycles per host second spent simulating
	{"ops_per_s", "1/s"},        // operations completed per second
	{"peak_rss_mb", "MiB"},      // peak resident memory of the process
}

// perLayer are the metrics of single layers, named after the module
// that does the work, reported by traced runs. A layer a workload does
// not drive reports 0.
var perLayer = func() []metric {
	var ms []metric
	for _, w := range stash.Workloads() {
		for _, o := range stash.Orgs() {
			ms = append(ms, metric{cellMetric(stash.RunSpec{Workload: w, Config: stash.Config{Org: o}}), "s"})
		}
	}
	return append(ms, []metric{
		{"system.build_ms", "ms"},
		{"cache.l1_accesses", "count"},
		{"cache.l1_misses", "count"},
		{"cache.l1_evictions", "count"},
		{"cache.l1_evictions_per_access", "ratio"},
		{"core.stash_accesses", "count"},
		{"core.stash_misses", "count"},
		{"core.stash_writebacks", "count"},
		{"scratch.accesses", "count"},
		{"scratch.conflict_rounds", "count"},
		{"dma.lines", "count"},
		{"llc.accesses", "count"},
		{"llc.registrations", "count"},
		{"llc.forwards", "count"},
		{"noc.messages", "count"},
		{"noc.flit_hops", "count"},
		{"gpu.instructions", "count"},
		{"gpu.issue_cycles", "count"},
		{"gpu.global_transactions", "count"},
		{"cpu.instructions", "count"},
		{"sim.cycles", "count"},
		{"sim.host_ns_per_instr", "ns"},
		{"cellcache.mem_hits", "count"},
		{"cellcache.store_hits", "count"},
		{"cellcache.remote_fills", "count"},
		{"cellcache.remote_misses", "count"},
		{"cellcache.misses", "count"},
		{"cellcache.mem_evictions", "count"},
		{"cellcache.hit_ratio", "ratio"},
		{"serve.shard_mem_ms_p50", "ms"},
		{"serve.shard_store_ms_p50", "ms"},
		{"serve.shard_peer_ms_p50", "ms"},
		{"serve.cellframe_ms_p50", "ms"},
		{"serve.cells_simulated", "count"},
		{"serve.sim_busy_s", "s"},
		{"serve.shed", "count"},
		{"cluster.coord_self_ms_p50", "ms"},
		{"cluster.coord_self_ms_p99", "ms"},
		{"cluster.route_imbalance", "ratio"},
	}...)
}()

// cellMetric names a cell's host-time metric, sweep.cell_s.<workload>.<org>.
func cellMetric(spec stash.RunSpec) string {
	return "sweep.cell_s." + spec.Workload + "." + spec.Config.Org.String()
}

// simCounts folds a result's raw per-unit counters
// ("<kind>.<unit>.<stat>", e.g. l1.gpu3.evictions) into the per-layer
// simulator counts, adding them to into.
func simCounts(into map[string]float64, r stash.Result) {
	for name, v := range r.Counters {
		parts := strings.Split(name, ".")
		kind, stat, n := parts[0], parts[len(parts)-1], float64(v)
		switch kind {
		case "l1":
			switch stat {
			case "hits":
				into["cache.l1_accesses"] += n
			case "misses":
				into["cache.l1_accesses"] += n
				into["cache.l1_misses"] += n
			case "evictions":
				into["cache.l1_evictions"] += n
			}
		case "stash":
			switch stat {
			case "hits":
				into["core.stash_accesses"] += n
			case "misses":
				into["core.stash_accesses"] += n
				into["core.stash_misses"] += n
			case "writebacks":
				into["core.stash_writebacks"] += n
			}
		case "scratch":
			into["scratch."+stat] += n
		case "dma":
			if stat == "lines" {
				into["dma.lines"] += n
			}
		case "llc":
			switch stat {
			case "hits", "misses":
				into["llc.accesses"] += n
			case "registrations", "forwards":
				into["llc."+stat] += n
			}
		case "noc":
			if name == "noc.messages" {
				into["noc.messages"] += n
			} else if parts[1] == "flit_hops" {
				into["noc.flit_hops"] += n
			}
		case "cu":
			switch stat {
			case "instructions", "issue_cycles", "global_transactions":
				into["gpu."+stat] += n
			}
		case "cpu":
			if stat == "instructions" {
				into["cpu.instructions"] += n
			}
		}
	}
	into["sim.cycles"] += float64(r.Cycles)
}

// finishSimCounts adds the ratios derived from the summed counts, given
// the host time spent simulating them.
func finishSimCounts(v map[string]float64, simNanos float64) {
	if acc := v["cache.l1_accesses"]; acc > 0 {
		v["cache.l1_evictions_per_access"] = v["cache.l1_evictions"] / acc
	}
	if instr := v["gpu.instructions"] + v["cpu.instructions"]; instr > 0 {
		v["sim.host_ns_per_instr"] = simNanos / instr
	}
}
