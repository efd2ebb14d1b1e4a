//! Differential test of the scheduler's transfer tuning, with the oracle on
//! the test side.
//!
//! [`DaisyScheduler::schedule`] prices a candidate by the nest it rewrote
//! and splices per-node costs in its merge. The oracle here does neither: it
//! is the materializing planner written from public helpers only — every
//! candidate is a whole program (`apply_recipe_to_program`), every price a
//! whole-program [`CostModel::estimate`], every decision applied to a
//! program that is then re-priced from scratch. The two must agree on the whole
//! [`ScheduleOutcome`] — program, report (every `f64` bit for bit) and
//! decision log — at any scheduler parallelism.

use daisy::scheduler::PhaseTimings;
use daisy::search::apply_recipe_to_program;
use daisy::{
    detect_blas_idiom, nest_key, nest_scoped_graph, recipe_is_semantically_legal, DaisyConfig,
    DaisyScheduler, PerformanceEmbedding, ScheduleOutcome, TuningDatabase,
};
use fuzz::gen::{generate, GenConfig};
use loop_ir::expr::Var;
use loop_ir::nest::{BlasCall, Node};
use loop_ir::program::Program;
use machine::CostModel;
use normalize::Normalizer;
use polybench::cloudsc::{full_model, CloudscSizes, CloudscVariant};
use polybench::{all_benchmarks, random_b_variant, Dataset};
use transforms::{perfect_chain, Recipe};

/// What the oracle decided for one top-level node of the normalized program.
enum Decision {
    Passthrough,
    Idiom(BlasCall),
    Recipe { recipe: Recipe, source: String },
    Unoptimized,
}

/// Plans node `index` of `normalized` the expensive way: one materialized
/// program and one whole-program estimate per candidate.
fn decide(
    scheduler: &DaisyScheduler,
    normalized: &Program,
    index: usize,
    model: &CostModel,
    baseline: f64,
) -> Decision {
    let config = scheduler.config();
    let database = scheduler.database();
    let Node::Loop(nest) = &normalized.body[index] else {
        return Decision::Passthrough;
    };
    if config.idiom_detection {
        if let Some(call) = detect_blas_idiom(normalized, nest) {
            return Decision::Idiom(call);
        }
    }
    if database.is_empty() {
        return Decision::Unoptimized;
    }
    let chain: Vec<Var> = perfect_chain(nest).map(|l| l.iter.clone()).collect();
    let graph = nest_scoped_graph(normalized, nest);
    let embedding = PerformanceEmbedding::of_nest(normalized, nest);
    let exact = database.lookup(nest_key(normalized, &normalized.body[index]));
    let candidates = exact.map(|entry| (entry, true)).into_iter().chain(
        database
            .nearest(&embedding, config.neighbors)
            .into_iter()
            .map(|entry| (entry, false)),
    );
    // No dedupe: a candidate priced twice costs the same twice, and only a
    // strictly better one displaces the best.
    let mut best: Option<(f64, Recipe, String)> = None;
    for (entry, exact) in candidates {
        let Some(recipe) = TuningDatabase::retarget(entry, &chain) else {
            continue;
        };
        if !recipe_is_semantically_legal(&graph, nest, &recipe) {
            continue;
        }
        let Some(candidate) = apply_recipe_to_program(normalized, index, &recipe) else {
            continue;
        };
        let seconds = model.estimate(&candidate).seconds;
        if seconds < best.as_ref().map_or(baseline, |(s, _, _)| *s) {
            let source = if exact {
                format!("{} [exact]", entry.source)
            } else {
                entry.source.clone()
            };
            best = Some((seconds, recipe, source));
        }
    }
    match best {
        Some((_, recipe, source)) => Decision::Recipe { recipe, source },
        None => Decision::Unoptimized,
    }
}

/// The materializing scheduler: decisions taken against the normalized
/// program, then applied one by one to a program that is re-priced whole
/// after each.
fn oracle(scheduler: &DaisyScheduler, program: &Program) -> ScheduleOutcome {
    let config = scheduler.config();
    assert!(config.normalize, "the oracle normalizes like the default");
    let model = CostModel::new(config.machine.clone(), config.threads);
    let normalized = Normalizer::new()
        .run(program)
        .map(|n| n.program)
        .unwrap_or_else(|_| program.clone());
    let baseline = model.estimate(&normalized).seconds;
    let plans: Vec<Decision> = (0..normalized.body.len())
        .map(|index| decide(scheduler, &normalized, index, &model, baseline))
        .collect();

    let mut current = normalized;
    let mut decisions = Vec::new();
    for (index, plan) in plans.into_iter().enumerate() {
        match plan {
            Decision::Passthrough => {}
            Decision::Idiom(call) => {
                decisions.push(format!("nest {index}: replaced with {call}"));
                current.body[index] = Node::Call(call);
            }
            Decision::Recipe { recipe, source } => {
                current = apply_recipe_to_program(&current, index, &recipe)
                    .expect("the recipe applied to this very nest when it was priced");
                let seconds = model.estimate(&current).seconds;
                decisions.push(format!(
                    "nest {index}: applied recipe from {source} ({recipe}), est. {seconds:.4}s"
                ));
            }
            Decision::Unoptimized => {
                decisions.push(format!("nest {index}: left unoptimized (-O3 only)"));
            }
        }
    }
    ScheduleOutcome {
        report: model.estimate(&current),
        program: current,
        decisions,
        phase_timings: PhaseTimings::default(),
    }
}

/// `schedule` at parallelism 1 and 4 against the oracle, input by input.
/// Returns how many recipes the inputs had applied (so callers can insist
/// the transfer path really ran).
fn assert_agrees(scheduler: &DaisyScheduler, inputs: &[Program], what: &str) -> usize {
    let mut wide = scheduler.clone();
    wide.set_parallelism(4);
    let mut narrow = scheduler.clone();
    narrow.set_parallelism(1);
    let mut applied = 0;
    for (index, program) in inputs.iter().enumerate() {
        let expected = oracle(scheduler, program);
        for (parallelism, scheduler) in [(1, &narrow), (4, &wide)] {
            let outcome = scheduler.schedule(program);
            // Field by field first: a one-bit `f64` difference should name
            // itself, not drown in a whole-outcome dump.
            assert_eq!(
                outcome.decisions, expected.decisions,
                "{what} #{index} ({}), parallelism {parallelism}: decisions",
                program.name
            );
            assert_eq!(
                outcome.report.seconds.to_bits(),
                expected.report.seconds.to_bits(),
                "{what} #{index} ({}), parallelism {parallelism}: {:e} vs {:e}",
                program.name,
                outcome.report.seconds,
                expected.report.seconds
            );
            assert!(
                outcome == expected,
                "{what} #{index} ({}), parallelism {parallelism}: outcome",
                program.name
            );
        }
        applied += expected
            .decisions
            .iter()
            .filter(|d| d.contains("applied recipe from"))
            .count();
    }
    applied
}

/// The `polybench_schedule` workload's inputs: per benchmark the A, B and Py
/// variants plus four random B variants. Returns `(A variants, inputs)`.
fn polybench_inputs(dataset: Dataset) -> (Vec<Program>, Vec<Program>) {
    let mut a_variants = Vec::new();
    let mut inputs = Vec::new();
    for bench in all_benchmarks() {
        let a = (bench.a)(dataset);
        inputs.extend([a.clone(), (bench.b)(dataset), (bench.py)(dataset).0]);
        inputs.extend((0..4).map(|k| random_b_variant(&a, 1 + k)));
        a_variants.push(a);
    }
    (a_variants, inputs)
}

#[test]
fn polybench_and_cloudsc_against_the_a_seeded_database() {
    for dataset in [Dataset::Mini, Dataset::Large] {
        let (a_variants, inputs) = polybench_inputs(dataset);
        assert_eq!(inputs.len(), 105);
        let mut scheduler = DaisyScheduler::new(DaisyConfig::default());
        scheduler.seed_from_programs(&a_variants);
        let applied = assert_agrees(&scheduler, &inputs, &format!("polybench {dataset:?}"));
        assert!(applied > 100, "transfer tuning barely ran: {applied}");

        if dataset == Dataset::Large {
            let cloudsc: Vec<Program> = [CloudscSizes::mini(), CloudscSizes::paper()]
                .into_iter()
                .flat_map(|sizes| {
                    [
                        CloudscVariant::Fortran,
                        CloudscVariant::C,
                        CloudscVariant::Dace,
                    ]
                    .map(|variant| full_model(variant, sizes))
                })
                .collect();
            assert_agrees(&scheduler, &cloudsc, "cloudsc");
        }
    }
}

#[test]
fn generated_programs_against_a_sibling_seeded_database() {
    let gen = GenConfig::default();
    let inputs: Vec<Program> = (0..500).map(|seed| generate(seed, &gen)).collect();
    let siblings: Vec<Program> = (500..564).map(|seed| generate(seed, &gen)).collect();
    let mut scheduler = DaisyScheduler::new(DaisyConfig::default());
    scheduler.seed_from_programs(&siblings);
    assert!(scheduler.database().len() > 100);
    let applied = assert_agrees(&scheduler, &inputs, "generated");
    assert!(applied > 100, "transfer tuning barely ran: {applied}");
}
