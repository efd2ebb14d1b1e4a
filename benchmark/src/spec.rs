//! The names every run prints: workloads, end-to-end metrics and per-layer
//! metrics. `BENCHMARK.json` at the repo root lists exactly these (a test in
//! `tests/` holds the two together).

/// `min(cores, MAX_WORKERS)` worker threads are pinned inside the product.
pub const MAX_WORKERS: usize = 4;

pub const WORKLOADS: [&str; 4] = [
    "reproduce_paper",
    "polybench_schedule",
    "strided_trace",
    "fuzz_frontend",
];

/// `(name, unit)` of the end-to-end metrics, reported by every workload of
/// an untraced run. What a pass and an operation are is the workload's
/// (see the README's table).
pub const END_TO_END: [(&str, &str); 3] = [("setup_s", "s"), ("pass_s", "s"), ("cpu_s", "s")];

pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    /// A deterministic count or model output: identical between two runs of
    /// one commit on one seed, whatever the machine does.
    pub exact: bool,
}

const fn timed(name: &'static str, unit: &'static str) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        exact: true,
    }
}

/// The per-layer metrics of a traced run. A workload that does not exercise
/// a layer reports 0 for it — which is itself the recorded prediction (e.g.
/// `machine.cache.accesses` on `polybench_schedule`).
pub const PER_LAYER: [LayerMetric; 60] = [
    timed("bench.op_ms_p50", "ms"),
    timed("bench.op_ms_p95", "ms"),
    timed("bench.reproduce.cold_s", "s"),
    timed("bench.reproduce.warm_s", "s"),
    timed("bench.figures.fig1_s", "s"),
    timed("bench.figures.table1_s", "s"),
    timed("bench.figures.fig6_s", "s"),
    timed("bench.figures.fig7_s", "s"),
    timed("bench.figures.fig9_s", "s"),
    timed("bench.figures.fig11_s", "s"),
    timed("bench.figures.fig12_s", "s"),
    timed("loop_ir.parse_mb_per_s", "MB/s"),
    timed("loop_ir.to_source_ms", "ms"),
    timed("normalize.run_ms", "ms"),
    exact("normalize.nests_out_per_in", "ratio"),
    timed("dependence.analyze_ms", "ms"),
    exact("dependence.edges", "count"),
    timed("transforms.apply_us", "us"),
    exact("transforms.apply_ok_share", "ratio"),
    timed("machine.exec.lower_us", "us"),
    timed("machine.exec.stream_macc_per_s", "Macc/s"),
    timed("machine.exec.execute_mstmt_per_s", "Mstmt/s"),
    timed("machine.cache.macc_per_s", "Macc/s"),
    exact("machine.cache.accesses", "count"),
    exact("machine.cache.probes_per_access", "ratio"),
    exact("machine.cache.l1_misses", "count"),
    exact("machine.cache.l2_misses", "count"),
    timed("machine.shard.macc_per_s_w1", "Macc/s"),
    timed("machine.shard.macc_per_s_wW", "Macc/s"),
    timed("machine.shard.speedup", "x"),
    exact("machine.shard.shards", "count"),
    timed("machine.analytic.estimate_ms", "ms"),
    exact("machine.analytic.bracket_share", "ratio"),
    timed("machine.cost.estimate_us_cold", "us"),
    timed("machine.cost.estimate_us_memo", "us"),
    timed("machine.cost.memo_hit_share", "ratio"),
    timed("daisy.search.search_ms", "ms"),
    timed("daisy.search.candidates_per_s", "1/s"),
    exact("daisy.search.dedup_share", "ratio"),
    exact("daisy.search.rejected_precost_share", "ratio"),
    exact("daisy.database.entries", "count"),
    timed("daisy.database.nearest_us_38", "us"),
    timed("daisy.database.nearest_us_450", "us"),
    exact("daisy.database.exact_hit_share", "ratio"),
    timed("daisy.scheduler.seed_ms", "ms"),
    timed("daisy.scheduler.normalize_share", "ratio"),
    timed("daisy.scheduler.seed_share", "ratio"),
    timed("daisy.scheduler.search_share", "ratio"),
    timed("daisy.scheduler.cost_share", "ratio"),
    timed("daisy.scheduler.parallel_speedup", "x"),
    exact("daisy.quality.modelled_speedup_geomean", "x"),
    exact("daisy.quality.ab_aligned_share", "ratio"),
    timed("tunestore.persist_ms", "ms"),
    timed("tunestore.warm_start_ms", "ms"),
    exact("tunestore.snapshot_bytes", "bytes"),
    timed("tunestore.journal_appends_per_s", "1/s"),
    timed("baselines.model_ms", "ms"),
    timed("polybench.build_ms", "ms"),
    timed("telemetry.overhead_share", "ratio"),
    timed("process.peak_rss_mb", "MB"),
];
