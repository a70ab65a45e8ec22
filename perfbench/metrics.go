package main

// metricDef declares one reported metric. The two tables below are the
// benchmark's metric contract; BENCHMARK.json at the repository root lists
// the same names, units and directions (TestMetricTablesMatchBenchmarkJSON).
type metricDef struct {
	name, unit, better string
}

// endToEnd is what an untraced run prints: metrics every workload measures.
// Wall-clock ones are paced (pace.go).
// A "job" is the workload's unit of work: one guest run (guest-run), one
// cold recompile job (pipeline), one warm daemon request (daemon-mix) or
// one support-matrix cell (verdict).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"job_p50_ms", "ms", "lower"},
	{"job_p90_ms", "ms", "lower"},
	{"guest_mips", "Minst/s", "higher"},
	{"cycle_ratio_gm", "ratio", "lower"},
	{"code_bytes", "bytes", "lower"},
	{"ok_ratio", "ratio", "higher"},
}

// perLayer is what a traced run prints. A layer a workload bypasses reads 0
// there; the workload-named end-to-end figures (jobs_per_s, pipeline_*,
// cold_job_*, warm_job_*, verdict_s, error_ratio) come from the run's
// untraced segment. jobs_per_s is not gated: on the serial workloads it
// mirrors job latency, and on daemon-mix it follows the disk tier's fsync
// latency, whose run-to-run spread on the reference host (0.13 to 0.42 of
// the median) is wider than any allowed bound.
var perLayer = []metricDef{
	{"jobs_per_s", "1/s", "higher"},
	{"pipeline_p50_ms", "ms", "lower"},
	{"pipeline_p90_ms", "ms", "lower"},
	{"cold_job_p50_ms", "ms", "lower"},
	{"cold_job_p90_ms", "ms", "lower"},
	{"warm_job_p50_ms", "ms", "lower"},
	{"warm_job_p90_ms", "ms", "lower"},
	{"verdict_s", "s", "lower"},
	{"error_ratio", "ratio", "lower"},
	{"trace_overhead_pct", "%", "lower"},

	{"vm.mips.native", "Minst/s", "higher"},
	{"vm.mips.mx64", "Minst/s", "higher"},
	{"vm.mips.mx64w", "Minst/s", "higher"},
	{"vm.new_ms", "ms", "lower"},
	{"vm.insts", "count", "lower"},
	{"vm.icache_hit_ratio", "ratio", "higher"},
	{"vm.tlb_hit_ratio", "ratio", "higher"},
	{"vm.preemptions", "count", "lower"},
	{"vm.lock_rmw", "count", "lower"},
	{"vm.fences", "count", "lower"},
	{"vm.spill_ops", "count", "lower"},
	{"vm.spin_mips", "Minst/s", "higher"},
	{"verdict.budget_insts", "count", "lower"},

	{"disasm.ms", "ms", "lower"},
	{"disasm.blocks", "count", "lower"},
	{"tracer.ms", "ms", "lower"},
	{"tracer.insts", "count", "lower"},
	{"prune.ms", "ms", "lower"},
	{"additive.ms", "ms", "lower"},
	{"additive.loops", "count", "lower"},
	{"additive.cache_hit_ratio", "ratio", "higher"},
	{"core.output_variants", "count", "lower"},
	{"spindet.ms", "ms", "lower"},
	{"spindet.removable", "count", "higher"},
	{"recompile.ms", "ms", "lower"},
	{"lift.ms", "ms", "lower"},
	{"opt.ms", "ms", "lower"},
	{"lower.ms", "ms", "lower"},
	{"liftopt.wall_ms", "ms", "lower"},
	{"funcs", "count", "lower"},

	{"serve.queue_wait_ms", "ms", "lower"},
	{"serve.job_ms.cold", "ms", "lower"},
	{"serve.job_ms.warm", "ms", "lower"},
	{"serve.overhead_ms", "ms", "lower"},
	{"serve.rejected", "count", "lower"},
	{"store.mem.hit_ratio", "ratio", "higher"},
	{"store.disk.hit_ratio", "ratio", "higher"},
	{"store.disk.get_ms", "ms", "lower"},
	{"store.disk.put_ms", "ms", "lower"},
	{"image.marshal_ms", "ms", "lower"},
	{"baselines.mcsema.ms", "ms", "lower"},
	{"baselines.mctoll.ms", "ms", "lower"},
	{"baselines.binrec.ms", "ms", "lower"},
	{"cc.compile_ms", "ms", "lower"},
}

// layers are the modules self time is attributed to (self_pct.<layer>);
// "bench" is the benchmark's own time between calls into the system.
var layers = []string{
	"bench", "cc", "vm", "disasm", "tracer", "core", "spindet",
	"lifter", "opt", "lower", "serve", "store", "image", "baselines",
}

func init() {
	for _, l := range layers {
		perLayer = append(perLayer, metricDef{"self_pct." + l, "%", "lower"})
	}
}
