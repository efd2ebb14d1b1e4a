//! The four workloads. Each stresses different layers, so a change to one
//! layer has a workload that exercises it and one that bypasses it (the
//! README's table records why each exists and what it predicts).

pub mod fuzz_frontend;
pub mod polybench_schedule;
pub mod reproduce_paper;
pub mod strided_trace;

use daisy::{DaisyConfig, DaisyScheduler, ScheduleOutcome};
use loop_ir::nest::Node;
use loop_ir::program::Program;
use machine::interp::{reference, ProgramData};
use machine::CompiledProgram;
use normalize::Normalizer;
use telemetry::Profile;

use crate::run::{layer, share, Config, Run, Spans};

/// What `Run::drive` needs from a workload.
pub trait Workload<'a> {
    /// One measured pass: the product work under a stopwatch (`Run::pass`,
    /// `Run::op`), then the output checks outside it.
    fn pass(&mut self, run: &mut Run<'a>);

    /// The per-layer probes and metrics of a traced run. `profile` snapshots
    /// what the recorder has seen so far.
    fn layers(&mut self, run: &mut Run<'a>, profile: &dyn Fn() -> Profile);
}

/// The scheduler configuration under test: the paper's defaults with the
/// product's worker threads pinned to `W`.
pub fn scheduler_config(cfg: &Config) -> DaisyConfig {
    DaisyConfig::default()
        .with_parallelism(cfg.workers)
        .with_simulation_parallelism(cfg.workers)
}

/// Checks that `scheduled` computes what `original` computes: the original
/// runs on the tree-walking reference interpreter — independent of the
/// compiled engine, the normalizer and the scheduler — and the scheduled
/// program on the compiled engine.
pub fn outputs_match(original: &Program, scheduled: &Program, cfg: &Config) -> Result<(), String> {
    let mut expected = reference::run_seeded(original).map_err(|e| format!("reference: {e}"))?;
    if cfg.corrupt_expected {
        corrupt(&mut expected, original);
    }
    let mut actual = ProgramData::seeded(scheduled).map_err(|e| format!("storage: {e}"))?;
    CompiledProgram::lower(scheduled)
        .and_then(|compiled| compiled.execute(&mut actual))
        .map_err(|e| format!("execution: {e}"))?;
    within_tolerance(original, &expected, &actual)
}

/// Every array of `original` must agree between `expected` and `actual`
/// within 1e-9 of the largest expected magnitude (at least 1): transformed
/// loop orders reassociate floating-point sums.
pub fn within_tolerance(
    original: &Program,
    expected: &ProgramData,
    actual: &ProgramData,
) -> Result<(), String> {
    for name in original.arrays.keys() {
        let name = name.as_str();
        let scale = expected
            .array(name)
            .into_iter()
            .flatten()
            .fold(1.0f64, |m, v| m.max(v.abs()));
        match expected.max_abs_diff(actual, name) {
            Some(diff) if diff <= 1e-9 * scale => {}
            Some(diff) => return Err(format!("array {name} differs by {diff:e}")),
            None => return Err(format!("array {name} was dropped or reshaped")),
        }
    }
    Ok(())
}

/// The test-only hook behind `Config::corrupt_expected`: shifts one expected
/// value so that the comparison must fail.
pub fn corrupt(expected: &mut ProgramData, program: &Program) {
    for name in program.arrays.keys() {
        if let Some(first) = expected
            .array_mut(name.as_str())
            .and_then(|a| a.first_mut())
        {
            *first += 1.0;
            return;
        }
    }
}

/// Geo-mean over the inputs of `baseline / scheduled` modelled seconds on the
/// paper's machine (`bench::paper_machine_model`, 12 threads): the paper's
/// headline quantity under this repo's cost model. Inputs the model prices at
/// zero (nothing executes) are left out.
pub fn modelled_speedup_geomean(inputs: &[Program], outcomes: &[ScheduleOutcome]) -> f64 {
    let model = bench::paper_machine_model(bench::THREADS);
    let speedups: Vec<f64> = inputs
        .iter()
        .zip(outcomes)
        .map(|(input, outcome)| model.estimate(input).seconds / outcome.report.seconds)
        .filter(|s| s.is_finite() && *s > 0.0)
        .collect();
    bench::geometric_mean(&speedups)
}

fn top_level_loops(program: &Program) -> usize {
    program
        .body
        .iter()
        .filter(|n| matches!(n, Node::Loop(_)))
        .count()
}

/// Probes the normalizer and the dependence analysis on `programs`, one span
/// per call, and reports their metrics.
pub fn probe_analyses<'p>(run: &mut Run<'_>, programs: impl Iterator<Item = &'p Program>) {
    let (mut nests_in, mut nests_out, mut edges) = (0usize, 0usize, 0usize);
    for program in programs {
        let normalized = layer("bench.normalize.run", || Normalizer::new().run(program));
        run.check(normalized.is_ok(), || {
            format!("normalizing {}: {normalized:?}", program.name)
        });
        if let Ok(normalized) = normalized {
            nests_in += top_level_loops(program);
            nests_out += top_level_loops(&normalized.program);
        }
        edges += layer("bench.dependence.analyze", || dependence::analyze(program)).len();
    }
    run.layer(
        "normalize.nests_out_per_in",
        share(nests_out as f64, nests_in as f64),
    );
    run.layer("dependence.edges", edges as f64);
}

/// Probes the transfer-tuning database on the nests of `programs`
/// (normalized first, as the scheduler queries it): exact-key lookups and
/// `k`-nearest queries. Returns the mean microseconds of a `nearest` call.
pub fn probe_database<'p>(
    run: &mut Run<'_>,
    scheduler: &DaisyScheduler,
    programs: impl Iterator<Item = &'p Program>,
    profile: &dyn Fn() -> Profile,
) -> f64 {
    let database = scheduler.database();
    let neighbors = scheduler.config().neighbors;
    let (mut lookups, mut hits) = (0u64, 0u64);
    for program in programs {
        let Ok(normalized) = Normalizer::new().run(program) else {
            continue;
        };
        let normalized = normalized.program;
        for node in &normalized.body {
            let Node::Loop(nest) = node else { continue };
            let key = daisy::nest_key(&normalized, node);
            lookups += 1;
            hits +=
                u64::from(layer("bench.daisy.database.lookup", || database.lookup(key)).is_some());
            let embedding = daisy::PerformanceEmbedding::of_nest(&normalized, nest);
            let found = layer("bench.daisy.database.nearest", || {
                database.nearest(&embedding, neighbors)
            });
            std::hint::black_box(found);
        }
    }
    run.layer("daisy.database.entries", database.len() as f64);
    run.layer(
        "daisy.database.exact_hit_share",
        share(hits as f64, lookups as f64),
    );
    Spans(profile()).mean_seconds("bench.daisy.database.nearest") * 1e6
}

/// The metrics every scheduling workload derives from its traced pass: the
/// layer means of the spans it recorded, the scheduler's phase shares and
/// the cost model's memo hit share.
pub fn report_scheduling_layers(run: &mut Run<'_>, spans: &Spans, outcomes: &[ScheduleOutcome]) {
    run.layer(
        "normalize.run_ms",
        spans.mean_seconds("bench.normalize.run") * 1e3,
    );
    run.layer(
        "dependence.analyze_ms",
        spans.mean_seconds("bench.dependence.analyze") * 1e3,
    );
    run.layer(
        "machine.exec.lower_us",
        spans.mean_seconds("bench.machine.exec.lower") * 1e6,
    );
    let mut phases = [0u64; 4];
    for outcome in outcomes {
        let t = outcome.phase_timings;
        for (sum, ns) in phases
            .iter_mut()
            .zip([t.normalize_ns, t.seed_ns, t.search_ns, t.cost_ns])
        {
            *sum += ns;
        }
    }
    let total: u64 = phases.iter().sum();
    for (name, ns) in [
        "daisy.scheduler.normalize_share",
        "daisy.scheduler.seed_share",
        "daisy.scheduler.search_share",
        "daisy.scheduler.cost_share",
    ]
    .into_iter()
    .zip(phases)
    {
        run.layer(name, share(ns as f64, total as f64));
    }
    let hits = spans.counter("machine.cost.memo_hits") as f64;
    let misses = spans.counter("machine.cost.memo_misses") as f64;
    run.layer("machine.cost.memo_hit_share", share(hits, hits + misses));
    run.layer(
        "machine.cache.accesses",
        (spans.counter("machine.cache.accesses") + spans.counter("machine.shard.accesses")) as f64,
    );
}
