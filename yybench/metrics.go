package main

// metricDef is one reported metric. BENCHMARK.json lists the same
// names, units and directions; TestBenchmarkJSONMatchesCode keeps the
// two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string
}

// endToEnd are the metrics a user of the system sees, printed by every
// untraced run. Campaign workloads define them over one pass of their
// fixed catalogue of campaigns; the service workload over a batch of
// serviceBatch jobs (see README.md).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"wall_s", "s", "lower"},
	{"tests_per_s", "tests/s", "higher"},
	{"cpu_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"allocs_per_test", "allocs", "lower"},
}

// cpuLayers are the profile buckets: each CPU sample is charged to the
// innermost frame on its stack that belongs to one of these packages
// (see layerOf). GC worker stacks go to runtime.gc and everything else
// to other, so the shares sum to 1.
var cpuLayers = []string{
	"solver.strings", "solver.simplex", "solver.arith", "solver.sat", "solver",
	"eval", "regex", "ast", "smtlib", "gen", "analysis", "core", "mutate",
	"harness", "backend", "service", "telemetry",
}

// perLayer are the metrics of single layers, printed by every traced
// run. Counts are totals over one traced pass of the catalogue (service:
// over the batch), so they repeat exactly for a given seed.
var perLayer = append(shareDefs(),
	metricDef{"solver.strings.dfs_steps", "count", "lower"},
	metricDef{"solver.strings.warm_eval_hit_ratio", "ratio", "higher"},
	metricDef{"regex.derivatives", "count", "lower"},
	metricDef{"solver.simplex.pivots", "count", "lower"},
	metricDef{"solver.simplex.tableau_warm_hit_ratio", "ratio", "higher"},
	metricDef{"solver.arith.bnb_nodes", "count", "lower"},
	metricDef{"solver.arith.interval_steps", "count", "lower"},
	metricDef{"solver.sat.conflicts", "count", "lower"},
	metricDef{"solver.sat.decisions", "count", "lower"},
	metricDef{"solver.sat.restarts", "count", "lower"},
	metricDef{"solver.solves", "count", "lower"},
	metricDef{"solver.fuel_per_solve", "steps", "lower"},
	metricDef{"solver.rewrite_memo_hit_ratio", "ratio", "higher"},
	metricDef{"solver.timeouts", "count", "lower"},
	metricDef{"solver.unknowns", "count", "lower"},
	metricDef{"runtime.gc_cycles", "count", "lower"},
	metricDef{"runtime.alloc_mb", "MB", "lower"},
	metricDef{"backend.checks", "count", "lower"},
	metricDef{"backend.retries", "count", "lower"},
	metricDef{"backend.timeouts", "count", "lower"},
	metricDef{"backend.child_cpu_s", "s", "lower"},
	metricDef{"backend.check_p50_ms", "ms", "lower"},
	metricDef{"backend.check_p97.5_ms", "ms", "lower"},
	metricDef{"mutate.skips", "count", "lower"},
	metricDef{"mutate.variant_pairs", "count", "higher"},
	metricDef{"mutate.variant_skips", "count", "lower"},
	metricDef{"harness.oracle_votes", "count", "higher"},
	metricDef{"harness.consensus_ratio", "ratio", "higher"},
	metricDef{"harness.outvoted", "count", "higher"},
	metricDef{"harness.violations", "count", "higher"},
	metricDef{"harness.parallel_efficiency", "ratio", "higher"},
	metricDef{"harness.useful_ratio", "ratio", "higher"},
	metricDef{"harness.bugs_found", "count", "higher"},
	metricDef{"harness.wrong_verdicts", "count", "lower"},
	metricDef{"gen.seeds_generated", "count", "lower"},
	metricDef{"gen.vet_accept_ratio", "ratio", "higher"},
	metricDef{"analysis.gate_rejects", "count", "lower"},
	metricDef{"core.derived", "count", "higher"},
	metricDef{"service.submit_http_p50_ms", "ms", "lower"},
	metricDef{"service.inspect_http_p50_ms", "ms", "lower"},
	metricDef{"service.resume_http_p50_ms", "ms", "lower"},
	metricDef{"service.straight_p50_ms", "ms", "lower"},
	metricDef{"service.paused_p50_ms", "ms", "lower"},
	metricDef{"service.submit_p50_ms", "ms", "lower"},
	metricDef{"service.submit_p97.5_ms", "ms", "lower"},
	metricDef{"service.jobs_per_s", "jobs/s", "higher"},
	metricDef{"harness.checkpoint_bytes", "bytes", "lower"},
	metricDef{"harness.envelope_bytes", "bytes", "lower"},
	metricDef{"trace.overhead", "ratio", "lower"},
)

func shareDefs() []metricDef {
	var defs []metricDef
	for _, l := range cpuLayers {
		defs = append(defs, metricDef{l + ".cpu_share", "share", "lower"})
	}
	return append(defs,
		metricDef{"runtime.gc_cpu_share", "share", "lower"},
		metricDef{"other.cpu_share", "share", "lower"})
}

// telemetryCounts maps the per-layer count metrics to the campaign
// telemetry counters they are read from.
var telemetryCounts = map[string]string{
	"solver.strings.dfs_steps":    "yy_strings_dfs_steps_total",
	"regex.derivatives":           "yy_regex_derivatives_total",
	"solver.simplex.pivots":       "yy_simplex_pivots_total",
	"solver.arith.bnb_nodes":      "yy_arith_bnb_nodes_total",
	"solver.arith.interval_steps": "yy_arith_interval_steps_total",
	"solver.sat.conflicts":        "yy_cdcl_conflicts_total",
	"solver.sat.decisions":        "yy_cdcl_decisions_total",
	"solver.sat.restarts":         "yy_cdcl_restarts_total",
	"solver.solves":               "yy_solves_total",
	"solver.timeouts":             "yy_funnel_timeouts_total",
	"solver.unknowns":             "yy_funnel_unknowns_total",
	"backend.checks":              "yy_backend_checks_total",
	"backend.retries":             "yy_backend_retries_total",
	"backend.timeouts":            "yy_backend_timeouts_total",
	"mutate.skips":                "yy_funnel_skipped_total",
	"mutate.variant_pairs":        "yy_oracle_pairs_total",
	"mutate.variant_skips":        "yy_oracle_pair_skips_total",
	"harness.oracle_votes":        "yy_oracle_votes_total",
	"harness.outvoted":            "yy_oracle_outvoted_total",
	"harness.violations":          "yy_oracle_violations_total",
	"gen.seeds_generated":         "yy_funnel_seed_generated_total",
	"analysis.gate_rejects":       "yy_funnel_invalid_total",
	"core.derived":                "yy_funnel_derived_total",
}

// telemetryRatios are the per-layer hit/useful ratios: num / (num +
// plus) when plus is set, num / over otherwise.
var telemetryRatios = map[string]struct{ num, plus, over string }{
	"solver.strings.warm_eval_hit_ratio":    {num: "yy_warm_eval_hits_total", plus: "yy_warm_eval_misses_total"},
	"solver.simplex.tableau_warm_hit_ratio": {num: "yy_tableau_warm_hits_total", plus: "yy_tableau_warm_misses_total"},
	"solver.rewrite_memo_hit_ratio":         {num: "yy_rewrite_memo_hits_total", plus: "yy_rewrite_memo_misses_total"},
	"solver.fuel_per_solve":                 {num: "yy_solve_fuel_spent_total", over: "yy_solves_total"},
	"harness.consensus_ratio":               {num: "yy_oracle_consensus_total", plus: "yy_oracle_abstained_total"},
	"harness.useful_ratio":                  {num: "yy_funnel_oracle_checked_total", over: "yy_funnel_solved_total"},
	"gen.vet_accept_ratio":                  {num: "yy_funnel_seed_vetted_total", over: "yy_funnel_seed_generated_total"},
}
