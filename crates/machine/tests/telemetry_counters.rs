//! Exact telemetry counter totals of the machine layer. The recorder is
//! process-global, so totals are only stable in a test binary whose every
//! instrumented call sits inside a `with_recorder` scope — hence a binary
//! of its own rather than unit tests next to the code, where a
//! neighbouring test's instrumented calls land in the totals (seen about
//! one run in four on two cores).

use std::sync::Arc;

use loop_ir::parser::parse_program;
use machine::{simulate_cache, simulate_cache_sharded, CacheHierarchy, MachineConfig, StrideRun};
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
        ("machine.shard.l1_streams", 1),
        ("machine.shard.accesses", stats.accesses()),
        ("machine.shard.jobs", 1),
        ("machine.shard.workers", 1),
        ("machine.shard.fanouts", 0),
    ] {
        assert_eq!(sink.counter_total(counter), total, "{counter}");
    }
}

#[test]
fn each_l1_stream_is_one_job_of_the_pool() {
    // `A` moves by one L1 period of the tiny machine (64 B lines x 4 L1
    // sets = 32 doubles) per block next to the stationary `C`: four
    // translation classes, one L1 class.
    let program = parse_program(
        "program quarter { param NB = 8; param N = 96;
           array A[NB * 32 + N]; array C[N];
           for b in 0..NB {
             for i in 0..N { A[b * 32 + i] = A[b * 32 + i] + C[i]; }
           } }",
    )
    .unwrap();
    let sink = Arc::new(CollectingRecorder::default());
    let stats = with_recorder(sink.clone(), || {
        simulate_cache_sharded(&program, &MachineConfig::tiny_for_tests(), 4).unwrap()
    });
    assert_eq!((stats.classes(), stats.l1_streams()), (4, 1));
    for (counter, total) in [
        ("machine.shard.shards", 8),
        ("machine.shard.classes", 4),
        ("machine.shard.l1_streams", 1),
        ("machine.shard.jobs", 1),
    ] {
        assert_eq!(sink.counter_total(counter), total, "{counter}");
    }
}

#[test]
fn mixed_stride_groups_count_credited_accesses_and_replayed_iterations() {
    // GEMM in ijk order: the innermost loop's group is `C[i][j]` (stride
    // 0), `A[i][k]` (8 B), `B[k][j]` (a 192 B row: three lines, a mover)
    // and `C[i][j]` again. Only `B` is probed in a quiet iteration; the
    // other three lanes are credited.
    let program = parse_program(
        "program gemm_ijk { param N = 24;
           array A[N][N]; array B[N][N]; array C[N][N];
           for i in 0..N { for j in 0..N { for k in 0..N {
             C[i][j] += A[i][k] * B[k][j];
           } } } }",
    )
    .unwrap();
    let sink = Arc::new(CollectingRecorder::default());
    let cache = with_recorder(sink.clone(), || {
        simulate_cache(&program, &MachineConfig::tiny_for_tests()).unwrap()
    });
    let total = |name: &str| sink.counter_total(name);
    assert_eq!(cache.accesses(), 4 * 24 * 24 * 24);
    assert_eq!(total("machine.cache.group_accesses"), cache.accesses());
    assert_eq!(total("machine.cache.group_superline_accesses"), 0);
    // 24^3 iterations = 1728 phase heads (`A` crosses a line every eighth
    // `k`) + 3360 quiet + 8736 replayed: with four L1 sets a mover lands in
    // a stationary set more often than not, and no phase needs the conflict
    // fallback.
    assert_eq!(total("machine.cache.group_stationary_credited"), 3 * 3360);
    assert_eq!(total("machine.cache.group_replayed_iterations"), 8736);
    assert_eq!(total("machine.cache.group_conflict_accesses"), 0);
    assert!(
        total("machine.cache.group_stationary_credited") <= total("machine.cache.group_accesses")
    );
    // Credited accesses are L1 hits like any other: the books still close.
    assert_eq!(cache.l1().hits + cache.l1().misses, cache.accesses());
}

/// The total of counter `name` over one `access_run_group` call on a cold
/// tiny hierarchy; `lanes` are `(base, stride, array)`, `count` long.
fn group_counter(lanes: &[(u64, i64, u32)], count: u64, name: &str) -> u64 {
    let runs: Vec<StrideRun> = lanes
        .iter()
        .map(|&(base, stride, array)| StrideRun {
            base,
            stride,
            count,
            array,
            is_write: false,
        })
        .collect();
    let sink = Arc::new(CollectingRecorder::default());
    let mut cache = CacheHierarchy::from_machine(&MachineConfig::tiny_for_tests());
    with_recorder(sink.clone(), || cache.access_run_group(&runs));
    sink.counter_total(name)
}

#[test]
fn superline_only_groups_take_the_per_access_path_up_front() {
    // Every lane strides a line or more: the whole group takes the up-front
    // per-access path. One sub-line lane re-enables the phase machinery.
    let superline = "machine.cache.group_superline_accesses";
    let columns = [(0x10000, 64, 0), (0x20000, 128, 1), (0x60000, -64, 2)];
    assert_eq!(group_counter(&columns, 300, superline), 3 * 300);
    let mixed = [(0x10000, 64, 0), (0x30000, 8, 1)];
    assert_eq!(group_counter(&mixed, 300, superline), 0);
}

#[test]
fn stagger_clusters_elide_middle_lanes() {
    // Three taps one element apart: the middle lane is elided in every
    // iteration. Two taps both bound the cluster: nothing to elide.
    let elided = "machine.cache.group_stagger_elided";
    let taps = [(0x40000, 8, 0), (0x40008, 8, 0), (0x40010, 8, 0)];
    assert_eq!(group_counter(&taps, 64, elided), 64);
    assert_eq!(group_counter(&taps[..2], 64, elided), 0);
}
