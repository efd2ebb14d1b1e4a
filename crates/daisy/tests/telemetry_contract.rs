//! Instrumentation contracts of the scheduling stack, asserted through a
//! [`CollectingRecorder`]: what a cold seeding emits, that its searches
//! price whole spaces and each program once, that a warm start prices
//! **zero** search candidates (the whole point of the persistent store),
//! that `schedule()` reports its four phases, and that counter values are
//! deterministic across identical runs.
//!
//! Every test runs inside `telemetry::with_recorder`, which serializes on
//! the process-global recorder — tests in this file can run on any number
//! of harness threads without cross-contaminating each other's sinks.

use std::sync::Arc;

use daisy::{DaisyConfig, DaisyScheduler};
use loop_ir::expr::Var;
use loop_ir::nest::Node;
use loop_ir::parser::parse_program;
use loop_ir::program::Program;
use normalize::Normalizer;
use telemetry::{with_recorder, CollectingRecorder};
use transforms::{Recipe, Transform};
use tunestore::{Snapshot, StoredEntry};

fn gemm(n: i64) -> Program {
    parse_program(&format!(
        "program gemm_a {{ param NI = {n}; param NJ = {n}; param NK = {n};
           scalar alpha = 1.5; scalar beta = 1.2;
           array A[NI][NK]; array B[NK][NJ]; array C[NI][NJ];
           for i in 0..NI {{ for j in 0..NJ {{
             C[i][j] = C[i][j] * beta;
             for k in 0..NK {{ C[i][j] += alpha * A[i][k] * B[k][j]; }}
           }} }} }}"
    ))
    .unwrap()
}

fn config() -> DaisyConfig {
    DaisyConfig {
        idiom_detection: false,
        ..DaisyConfig::default()
    }
}

#[test]
fn cold_seeding_emits_search_generation_spans_and_search_counters() {
    let sink = Arc::new(CollectingRecorder::default());
    with_recorder(sink.clone(), || {
        let mut scheduler = DaisyScheduler::new(config());
        scheduler.seed_from_programs(&[gemm(128)]);
    });
    assert_eq!(sink.span_count("seeding"), 1);
    // Normalized, the program is two nests, and the gemm nest's chain of
    // three loops alone has a space of 20 recipes.
    assert!(
        sink.counter_total("daisy.search.candidates") >= 20,
        "a cold seeding prices the gemm nest's whole space"
    );
    assert!(
        sink.counter_total("daisy.search.candidates")
            >= sink.counter_total("daisy.search.deduped_recipes"),
        "dedupes are a subset of candidates"
    );
}

#[test]
fn warm_start_prices_no_search_candidates() {
    let dir = std::env::temp_dir().join(format!("daisy-telemetry-{}", std::process::id()));
    let path = dir.join("warm.tunedb");
    std::fs::create_dir_all(&dir).unwrap();
    let program = gemm(128);

    // Seed + persist under a throwaway sink: only the warm run is under
    // observation, but the recorder is process-global, so instrumented work
    // outside every scope would land in whichever sink another harness
    // thread has installed (the scope also serializes against them).
    let cold_outcome = with_recorder(Arc::new(CollectingRecorder::default()), || {
        let mut cold = DaisyScheduler::new(config());
        cold.seed_from_programs(std::slice::from_ref(&program));
        cold.persist(&path).unwrap();
        cold.schedule(&program)
    });

    let sink = Arc::new(CollectingRecorder::default());
    let warm_outcome = with_recorder(sink.clone(), || {
        let mut warm = DaisyScheduler::new(config());
        warm.warm_start(&path).unwrap();
        warm.schedule(&program)
    });
    assert_eq!(cold_outcome, warm_outcome, "warm must match cold");
    assert_eq!(
        sink.counter_total("daisy.search.candidates"),
        0,
        "a warm-started schedule must never re-run the search"
    );
    assert_eq!(sink.span_count("seeding"), 0);
    assert_eq!(sink.span_count("schedule"), 1);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn schedule_reports_its_four_phases_as_nested_spans() {
    let sink = Arc::new(CollectingRecorder::default());
    let outcome = with_recorder(sink.clone(), || {
        DaisyScheduler::new(config()).schedule(&gemm(64))
    });
    for phase in [
        "schedule.normalize",
        "schedule.seed",
        "schedule.search",
        "schedule.cost",
    ] {
        assert_eq!(sink.span_count(phase), 1, "missing {phase}");
    }
    assert_eq!(sink.span_count("schedule"), 1);
    assert!(outcome.phase_timings.total_ns() > 0);
    assert_eq!(sink.counter_total("daisy.schedule.calls"), 1);
}

#[test]
fn counter_values_are_deterministic_across_identical_runs() {
    let run = || {
        let sink = Arc::new(CollectingRecorder::default());
        with_recorder(sink.clone(), || {
            let mut scheduler = DaisyScheduler::new(config());
            scheduler.seed_from_programs(&[gemm(96)]);
            scheduler.schedule(&gemm(96));
        });
        [
            "daisy.search.candidates",
            "daisy.search.deduped_recipes",
            "daisy.search.rejected_precost",
            "daisy.search.rewrites_priced",
            "daisy.plan.candidates_priced",
            "daisy.plan.recipes_applied",
            "daisy.schedule.nests",
            "daisy.seed.nests",
        ]
        .map(|name| (name, sink.counter_total(name)))
    };
    let first = run();
    let second = run();
    assert_eq!(
        first, second,
        "decision counters must be stable across identical runs"
    );
}

#[test]
fn fan_out_counters_tell_calls_that_spawned_from_calls_that_did_not() {
    // One worker: every fan-out point is a sequential loop on the caller.
    let sink = Arc::new(CollectingRecorder::default());
    with_recorder(sink.clone(), || {
        DaisyScheduler::new(config().with_parallelism(1)).schedule(&gemm(64));
    });
    assert_eq!(sink.counter_total("daisy.parallel.jobs"), 2, "two nests");
    assert_eq!(sink.counter_total("daisy.parallel.workers"), 1);
    assert_eq!(sink.counter_total("daisy.parallel.fanouts"), 0);

    // Seeding runs one search per nest, and the 16 of them
    // outlast the spawn budget many times over: with cores to spare the
    // queue must fan out, with at most one helper per spare core. Whether a
    // helper gets to an item before the caller empties the queue is timing
    // (`machine::pool`'s own tests hold that a helper drains when it can);
    // every call counts its caller as a worker, so the helpers that did are
    // what a seeding at the machine's parallelism reports beyond a
    // sequential one. The items handed to the pool do not depend on it.
    let programs: Vec<Program> = (2..10).map(|n| gemm(32 * n)).collect();
    let seed = |parallelism: usize| {
        let sink = Arc::new(CollectingRecorder::default());
        with_recorder(sink.clone(), || {
            DaisyScheduler::new(config().with_parallelism(parallelism))
                .seed_from_programs(&programs);
        });
        assert_eq!(sink.counter_total("daisy.seed.nests"), 16);
        (
            sink.counter_total("daisy.parallel.jobs"),
            sink.counter_total("daisy.parallel.fanouts"),
            sink.counter_total("daisy.parallel.workers"),
        )
    };
    let (sequential_jobs, sequential_fanouts, callers) = seed(1);
    assert_eq!(sequential_fanouts, 0);
    let (jobs, fanouts, workers) = seed(0);
    assert_eq!(jobs, sequential_jobs, "the queues do not depend on workers");
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get()) as u64;
    if cores > 1 {
        assert_eq!(fanouts, 1, "the seeding queue spawns, its searches do not");
        let helpers = workers - callers;
        assert!(helpers < cores, "{helpers} helpers");
    } else {
        assert_eq!((fanouts, workers), (0, callers));
    }
}

const UNOPTIMIZED: &str = "daisy.plan.unoptimized";
const REASONS: [&str; 3] = [
    "daisy.plan.unoptimized.no_candidate",
    "daisy.plan.unoptimized.none_legal",
    "daisy.plan.unoptimized.none_better",
];

#[test]
fn each_unoptimized_nest_is_counted_under_its_reason() {
    // A database of one entry, `parallelize(a)` on a two-loop chain, and a
    // program with one nest per reason it cannot help:
    // * a one-loop chain, onto which the recipe does not retarget;
    // * `i` carries `A[i - 1][j]`, so `parallelize(i)` fails the gate;
    // * a 4 x 4 copy, whose parallel region costs more than it saves.
    let dir = std::env::temp_dir().join(format!("daisy-reasons-{}", std::process::id()));
    let path = dir.join("one.tunedb");
    let mut scheduler = DaisyScheduler::new(config());
    let mut snapshot = Snapshot::new();
    snapshot.fingerprint = scheduler.store_fingerprint();
    snapshot.entries.push(StoredEntry {
        key: 1,
        cost: 1.0,
        embedding: vec![0.0; daisy::embedding::EMBEDDING_DIM],
        recipe: Recipe::new(vec![Transform::Parallelize {
            iter: Var::new("a"),
        }]),
        chain: vec![Var::new("a"), Var::new("b")],
        source: "par_outer".to_string(),
    });
    snapshot.save(&path).unwrap();
    let loaded = with_recorder(Arc::new(CollectingRecorder::default()), || {
        scheduler.warm_start(&path)
    });
    assert_eq!(loaded.unwrap(), 1);
    std::fs::remove_dir_all(&dir).ok();

    let program = parse_program(
        "program reasons { param N = 4; array A[N][N]; array B[N][N]; array X[N];
           for i in 0..N { X[i] = 1.0; }
           for i in 1..N { for j in 0..N { A[i][j] = A[i - 1][j] + 1.0; } }
           for i in 0..N { for j in 0..N { B[i][j] = 2.0; } } }",
    )
    .unwrap();
    let sink = Arc::new(CollectingRecorder::default());
    let outcome = with_recorder(sink.clone(), || scheduler.schedule(&program));
    assert_eq!(
        outcome.decisions,
        (0..3)
            .map(|n| format!("nest {n}: left unoptimized (-O3 only)"))
            .collect::<Vec<_>>()
    );
    assert_eq!(sink.counter_total(UNOPTIMIZED), 3);
    for reason in REASONS {
        assert_eq!(sink.counter_total(reason), 1, "{reason}");
    }
    assert_eq!(sink.counter_total("daisy.plan.candidates_priced"), 1);
}

#[test]
fn the_unoptimized_reasons_sum_to_the_unoptimized_count() {
    let gen = fuzz::gen::GenConfig::default();
    let siblings: Vec<Program> = (2001..=2016)
        .map(|seed| fuzz::gen::generate(seed, &gen))
        .collect();
    // Seeded inside a scope of its own: the recorder is process-global.
    let scheduler = with_recorder(Arc::new(CollectingRecorder::default()), || {
        let mut scheduler = DaisyScheduler::new(DaisyConfig::default());
        scheduler.seed_from_programs(&siblings);
        scheduler
    });
    let sink = Arc::new(CollectingRecorder::default());
    with_recorder(sink.clone(), || {
        for seed in 1..=200 {
            scheduler.schedule(&fuzz::gen::generate(seed, &gen));
        }
    });
    let reasons = REASONS.map(|reason| sink.counter_total(reason));
    assert!(
        reasons.iter().all(|&count| count > 0),
        "every reason occurs: {reasons:?}"
    );
    assert_eq!(reasons.iter().sum::<u64>(), sink.counter_total(UNOPTIMIZED));
}

#[test]
fn seeding_prices_each_program_once_and_then_only_rewrites() {
    // The cost model keeps no tables, so seeding prices each normalized
    // program once and hands its node costs to every search of its nests:
    // every nest the model prices is a top-level loop nest of one of the
    // programs, or a rewrite one of the searches priced.
    let programs: Vec<Program> = polybench::all_benchmarks()
        .iter()
        .map(|bench| (bench.a)(polybench::Dataset::Large))
        .collect();
    assert_eq!(programs.len(), 15);
    let sink = Arc::new(CollectingRecorder::default());
    let top_level_nests: u64 = with_recorder(sink.clone(), || {
        DaisyScheduler::new(DaisyConfig::default()).seed_from_programs(&programs);
        let normalized = programs
            .iter()
            .map(|p| Normalizer::new().run(p).expect("normalizes").program);
        normalized
            .map(|p| {
                p.body
                    .iter()
                    .filter(|node| matches!(node, Node::Loop(_)))
                    .count() as u64
            })
            .sum()
    });
    let rewrites = sink.counter_total("daisy.search.rewrites_priced");
    assert!(rewrites > 0);
    assert_eq!(
        sink.counter_total("machine.cost.nests_priced"),
        top_level_nests + rewrites
    );
}
