//! Exact telemetry counter totals of the machine layer. The recorder is
//! process-global, so totals are only stable in a test binary whose every
//! instrumented call sits inside a `with_recorder` scope — hence a binary
//! of its own rather than unit tests next to the code (where
//! `analytic_pricings_memoize_and_count` failed about one run in four on
//! two cores, counting the pricings of neighbouring tests).

use std::sync::Arc;

use loop_ir::parser::parse_program;
use machine::{simulate_cache_sharded, CostMode, CostModel, MachineConfig};
use telemetry::{with_recorder, CollectingRecorder};

#[test]
fn the_pool_counts_and_clamps_to_classes_while_plan_counters_keep_their_totals() {
    // Nine blocks, each one whole set period of the tiny machine (64 B
    // lines x 16 L2 sets = 128 doubles) after the other: one class.
    let program = parse_program(
        "program rows { param NB = 9; param N = 128;
           array A[NB * N]; array B[NB * N];
           for b in 0..NB {
             for i in 0..N { B[b * N + i] = A[b * N + i] * 2.0; }
           } }",
    )
    .unwrap();
    let sink = Arc::new(CollectingRecorder::default());
    let stats = with_recorder(sink.clone(), || {
        simulate_cache_sharded(&program, &MachineConfig::tiny_for_tests(), 4).unwrap()
    });
    assert_eq!((stats.shards(), stats.classes()), (9, 1));
    assert_eq!(stats.accesses(), 9 * 128 * 2);
    for (counter, total) in [
        ("machine.shard.simulations", 1),
        ("machine.shard.shards", 9),
        ("machine.shard.classes", 1),
        ("machine.shard.accesses", stats.accesses()),
        ("machine.shard.jobs", 1),
        ("machine.shard.pool_workers", 1),
    ] {
        assert_eq!(sink.counter_total(counter), total, "{counter}");
    }
}

#[test]
fn analytic_pricings_memoize_and_count() {
    let program = parse_program(
        "program gemm { param NI = 32; param NJ = 32; param NK = 32;
           array A[NI][NK]; array B[NK][NJ]; array C[NI][NJ];
           for i in 0..NI { for k in 0..NK { for j in 0..NJ {
             C[i][j] += A[i][k] * B[k][j];
           } } } }",
    )
    .unwrap();
    let model = CostModel::sequential().with_cost_mode(CostMode::Analytic);
    let sink = Arc::new(CollectingRecorder::default());
    with_recorder(sink.clone(), || {
        let first = model.assess_cache(&program, false).unwrap();
        let second = model.assess_cache(&program, false).unwrap();
        assert_eq!(first.l1(), second.l1());
    });
    assert_eq!(sink.counter_total("machine.cost.analytic_pricings"), 2);
    assert_eq!(sink.counter_total("machine.cost.exact_pricings"), 0);
    assert_eq!(sink.counter_total("machine.cost.analytic_memo_misses"), 1);
    assert_eq!(sink.counter_total("machine.cost.analytic_memo_hits"), 1);
}
