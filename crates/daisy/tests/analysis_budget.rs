//! How many dependence analyses normalizing and scheduling cost, counted by
//! `dependence.analyze.calls`. The recorder is process-global, so exact
//! totals need a test binary in which every instrumented call sits inside a
//! `with_recorder` scope — hence a binary of its own (the lesson of
//! `crates/machine/tests/telemetry_counters.rs`).

use std::sync::Arc;

use daisy::{DaisyConfig, DaisyScheduler};
use loop_ir::parser::parse_program;
use loop_ir::program::Program;
use normalize::Normalizer;
use telemetry::{with_recorder, CollectingRecorder};

const ANALYSES: &str = "dependence.analyze.calls";

/// Runs `f` recorded; returns its result and the sink.
fn recorded<R>(f: impl FnOnce() -> R) -> (R, Arc<CollectingRecorder>) {
    let sink = Arc::new(CollectingRecorder::default());
    let result = with_recorder(sink.clone(), f);
    (result, sink)
}

/// Initialization, a GEMM update and an independent column-major copy in one
/// loop nest: fission makes three nests of it, keeping the statements' order.
fn fused() -> Program {
    parse_program(
        "program fused { param N = 24;
           array A[N][N]; array B[N][N]; array C[N][N]; array D[N][N]; array E[N][N];
           for i in 0..N { for j in 0..N {
             C[i][j] = C[i][j] * 0.5;
             for k in 0..N { C[i][j] += A[i][k] * B[k][j]; }
             E[j][i] = D[j][i] + 1.0;
           } } }",
    )
    .unwrap()
}

#[test]
fn normalizing_analyzes_once_while_fission_keeps_the_statements_in_order() {
    let program = fused();
    let (normalized, sink) = recorded(|| Normalizer::new().run(&program).unwrap());
    assert_eq!(normalized.program.loop_nests().len(), 3);
    assert!(normalized.stats.fission.iterations >= 2);
    assert_eq!(sink.counter_total(ANALYSES), 1);
    assert_eq!(sink.span_count("normalize.run"), 1);
    assert!(sink.counter_total("dependence.analyze.pair_tests") > 0);
    assert!(sink.counter_total("dependence.analyze.pruned_leaves") > 0);
}

#[test]
fn a_sweep_that_reorders_statements_costs_no_further_analysis() {
    // The corpus file has the story of this program: its first sweep moves
    // statements ahead of earlier ones, the second confirms the fixed point.
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../fuzz/corpus/seed_b37c307619f39f10.loop"
    );
    let program = parse_program(&std::fs::read_to_string(path).unwrap()).unwrap();
    let (normalized, sink) = recorded(|| Normalizer::new().run(&program).unwrap());
    assert_eq!(normalized.stats.fission.iterations, 2);
    assert_eq!(normalized.program.loop_nests().len(), 3);
    assert_eq!(sink.counter_total(ANALYSES), 1);
}

#[test]
fn seeding_analyzes_only_the_nests_stride_minimization_reordered() {
    let config = DaisyConfig {
        idiom_detection: false,
        ..DaisyConfig::default()
    };
    // Stride minimization interchanges `fused`'s GEMM update and its
    // column-major copy, and nothing in their normal form.
    let (normalized, _) = recorded(|| Normalizer::new().run(&fused()).unwrap());
    assert_eq!(normalized.reordered, [false, true, true]);
    for (program, analyses) in [(fused(), 3), (normalized.program, 1)] {
        let (_, sink) = recorded(|| {
            DaisyScheduler::new(config.clone()).seed_from_programs(std::slice::from_ref(&program))
        });
        assert_eq!(sink.counter_total("daisy.seed.nests"), 3);
        assert_eq!(sink.counter_total(ANALYSES), analyses, "{}", program.name);
    }
}

/// A scheduler whose database is seeded from the normal form of [`fused`],
/// idiom detection off: every nest of `fused` has candidates that reach the
/// legality gate.
fn seeded_scheduler() -> DaisyScheduler {
    let (normalized, _) = recorded(|| Normalizer::new().run(&fused()).unwrap().program);
    let config = DaisyConfig {
        idiom_detection: false,
        ..DaisyConfig::default()
    };
    let (scheduler, _) = recorded(|| {
        let mut scheduler = DaisyScheduler::new(config);
        scheduler.seed_from_programs(std::slice::from_ref(&normalized));
        scheduler
    });
    assert!(!scheduler.database().is_empty());
    scheduler
}

#[test]
fn scheduling_a_normalized_program_analyzes_it_once_and_each_nest_at_most_once() {
    let scheduler = seeded_scheduler();
    // Already normal: stride minimization reorders nothing, so every nest
    // takes its legality graph from the normalizer's one analysis.
    let (normalized, _) = recorded(|| Normalizer::new().run(&fused()).unwrap().program);
    let (outcome, sink) = recorded(|| scheduler.schedule(&normalized));
    assert_eq!(outcome.program.loop_nests().len(), 3);
    assert_eq!(sink.counter_total("daisy.plan.candidates_priced"), 3);
    assert_eq!(sink.counter_total(ANALYSES), 1);
}

#[test]
fn a_reordered_nest_with_a_candidate_costs_one_more_analysis() {
    let scheduler = seeded_scheduler();
    // The normal form of `fused` but for the column-major copy, which
    // stride minimization interchanges: the normalizer's graph no longer
    // describes that nest, so its candidates have it analyzed by itself.
    let program = parse_program(
        "program one_reordered { param N = 24;
           array A[N][N]; array B[N][N]; array C[N][N]; array D[N][N]; array E[N][N];
           for i in 0..N { for j in 0..N { C[i][j] = C[i][j] * 0.5; } }
           for i in 0..N { for k in 0..N { for j in 0..N { C[i][j] += A[i][k] * B[k][j]; } } }
           for i in 0..N { for j in 0..N { E[j][i] = D[j][i] + 1.0; } } }",
    )
    .unwrap();
    let (normalized, sink) = recorded(|| Normalizer::new().run(&program).unwrap());
    assert_eq!(normalized.reordered, [false, false, true]);
    assert_eq!(sink.counter_total(ANALYSES), 1);
    let (_, sink) = recorded(|| scheduler.schedule(&program));
    assert_eq!(sink.counter_total("daisy.plan.candidates_priced"), 3);
    assert_eq!(sink.counter_total(ANALYSES), 2);
}
