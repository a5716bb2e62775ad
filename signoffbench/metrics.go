package main

// metricDef is one metric the benchmark reports. Bound applies to
// end-to-end metrics only: the share of the parent's median by which the
// metric may worsen before a change counts as a regression.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// timeBound is the regression bound of the host-time metrics. On a shared
// 2-CPU host whole runs are slower or faster by 10-35 % for minutes at a
// time, which no statistic within one run removes, so the bound is the
// widest allowed.
const timeBound = 0.25

// endToEnd lists the metrics of an untraced run (--trace 0), in print order.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower", timeBound},
	{"cpu_s", "s", "lower", timeBound},
	{"cycles_per_s", "1/s", "higher", timeBound},
	{"units_per_cpu_s", "1/s", "higher", timeBound},
	{"allocs_per_unit", "count", "lower", 0.05},
	{"alloc_bytes_per_unit", "B", "lower", 0.05},
	{"live_heap_mb", "MB", "lower", 0.05},
	{"pass_share", "share", "higher", 0.01},
	{"setup_s", "s", "lower", 0.25},
}

// spanNames lists the traced spans, each recorded by this package around a
// public call into the layer its prefix names.
var spanNames = []string{
	"regress.load",        // LoadSourceDir; LoadConfigDir + OpenCache
	"lint.check",          // lint.CheckSet
	"regress.run",         // one regress pass: parent of its units, merges and report
	"regress.unit",        // one (config, test, seed) unit: parent of the spans below
	"regress.cache_load",  // Cache.Load + PairRecord.Result
	"core.rtl_view",       // RunTestCtx on the RTL view with RecordWave
	"core.bca_view",       // RunTestCtx on the BCA view with AlignWith
	"coverage.equal",      // Group.EqualHits
	"regress.cache_store", // PairResult.Record + Cache.Store
	"regress.merge",       // Group.Merge + CodeMap.Merge and the aggregate counters
	"regress.report",      // BuildReport + WriteJSON
}

// spanFields are the per-span metrics, appended to each span name.
var spanFields = []metricDef{
	{"calls", "count", "lower", 0},
	{"busy_s", "s", "lower", 0},
	{"self_s", "s", "lower", 0},
	{"allocs_per_call", "count", "lower", 0},
	{"p50_ms", "ms", "lower", 0},
	{"ptail_ms", "ms", "lower", 0},
}

// cpuLayers are the CPU-profile attribution buckets (see layerOf).
var cpuLayers = []string{
	"regress", "lint", "core", "core.build", "catg.bfm", "catg.check", "catg.cov",
	"rtl", "bca", "arb", "stbus", "sim", "vcd", "stba", "coverage",
	"runtime.gc", "other",
}

// counters are the per-layer counts of a traced run.
var counters = []metricDef{
	{"sim.cycles", "count", "lower", 0},
	{"sim.deltas_per_cycle", "count", "lower", 0},
	{"sim.evals_per_cycle", "count", "lower", 0},
	{"core.transactions", "count", "higher", 0},
	{"core.failing_units", "count", "lower", 0},
	{"vcd.wave_bytes_per_unit", "B", "lower", 0},
	{"regress.cache_entry_bytes", "B", "lower", 0},
	{"regress.cache_hits", "count", "higher", 0},
	{"regress.cache_misses", "count", "lower", 0},
	{"runtime.gc_cycles", "count", "lower", 0},
	{"runtime.gc_cpu_share", "%", "lower", 0},
	{"bench.trace_overhead_s", "s", "lower", 0},
	{"bench.profile_samples", "count", "higher", 0},
}

// perLayer lists the metrics of a traced run (--trace 1), in print order.
func perLayer() []metricDef {
	var out []metricDef
	for _, s := range spanNames {
		for _, f := range spanFields {
			out = append(out, metricDef{Name: s + "." + f.Name, Unit: f.Unit, Better: f.Better})
		}
	}
	for _, l := range cpuLayers {
		out = append(out, metricDef{Name: "cpu_share." + l, Unit: "%", Better: "lower"})
	}
	return append(out, counters...)
}
