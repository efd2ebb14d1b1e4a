//! Cross-crate integration tests: normalization and scheduling preserve the
//! semantics of every benchmark, and the daisy scheduler is robust across the
//! A/B/Py structural families.

use baselines::{clang_schedule, icc_schedule, polly_schedule};
use daisy::{DaisyConfig, DaisyScheduler};
use loop_ir::nest::Node;
use machine::interp::run_seeded;
use normalize::Normalizer;
use polybench::{all_benchmarks, random_b_variant, Dataset};

fn assert_equivalent(
    name: &str,
    reference: &loop_ir::Program,
    candidate: &loop_ir::Program,
    arrays: &[&str],
) {
    let a = run_seeded(reference).unwrap_or_else(|e| panic!("{name}: reference fails: {e}"));
    let b = run_seeded(candidate).unwrap_or_else(|e| panic!("{name}: candidate fails: {e}"));
    for array in arrays {
        let diff = a
            .max_abs_diff(&b, array)
            .unwrap_or_else(|| panic!("{name}: array {array} missing or reshaped"));
        assert!(diff < 1e-9, "{name}: array {array} differs by {diff}");
    }
}

#[test]
fn normalization_preserves_semantics_of_every_benchmark() {
    let normalizer = Normalizer::new();
    for b in all_benchmarks() {
        for (label, program) in [("A", (b.a)(Dataset::Mini)), ("B", (b.b)(Dataset::Mini))] {
            let normalized = normalizer
                .run(&program)
                .unwrap_or_else(|e| panic!("{} {label}: normalization fails: {e}", b.name));
            assert!(normalized.program.validate().is_ok());
            assert_equivalent(
                &format!("{} {label}", b.name),
                &program,
                &normalized.program,
                b.outputs,
            );
        }
    }
}

#[test]
fn a_and_b_variants_of_every_benchmark_are_equivalent() {
    for b in all_benchmarks() {
        assert_equivalent(
            b.name,
            &(b.a)(Dataset::Mini),
            &(b.b)(Dataset::Mini),
            b.outputs,
        );
    }
}

#[test]
fn python_variants_are_equivalent_to_the_c_variants() {
    for b in all_benchmarks() {
        let (py, ops) = (b.py)(Dataset::Mini);
        assert!(!ops.is_empty(), "{} should report framework ops", b.name);
        assert_equivalent(b.name, &(b.a)(Dataset::Mini), &py, b.outputs);
    }
}

#[test]
fn baseline_schedulers_do_not_change_program_results() {
    // Schedule annotations (tiling, parallel marks) must not change what the
    // interpreter computes.
    for b in all_benchmarks().into_iter().take(5) {
        let program = (b.a)(Dataset::Mini);
        for (label, scheduled) in [
            ("clang", clang_schedule(&program)),
            ("icc", icc_schedule(&program)),
            ("polly", polly_schedule(&program)),
        ] {
            assert_equivalent(
                &format!("{} {label}", b.name),
                &program,
                &scheduled,
                b.outputs,
            );
        }
    }
}

#[test]
fn scheduled_polybench_computes_what_its_input_computes() {
    // Both schedulers `reproduce` runs, with and without normalization,
    // seeded from the 15 Mini A variants; every A, B and Py variant they
    // schedule must compute what it computed before.
    let a_variants: Vec<_> = all_benchmarks()
        .iter()
        .map(|b| (b.a)(Dataset::Mini))
        .collect();
    let nonorm = DaisyConfig {
        normalize: false,
        ..DaisyConfig::default()
    };
    let (mut outcomes, mut with_call, mut with_tile) = (0, 0, 0);
    for config in [DaisyConfig::default(), nonorm] {
        let normalize = config.normalize;
        let mut scheduler = DaisyScheduler::new(config);
        scheduler.seed_from_programs(&a_variants);
        for b in all_benchmarks() {
            let (py, _) = (b.py)(Dataset::Mini);
            for (label, program) in [
                ("A", (b.a)(Dataset::Mini)),
                ("B", (b.b)(Dataset::Mini)),
                ("Py", py),
            ] {
                let scheduled = scheduler.schedule(&program).program;
                let name = format!("{} {label}, normalize {normalize}", b.name);
                assert_equivalent(&name, &program, &scheduled, b.outputs);
                outcomes += 1;
                // The idiom path and the recipe path must both be reached.
                with_call += usize::from(scheduled.body.iter().any(|n| matches!(n, Node::Call(_))));
                let mut tiled = false;
                for nest in scheduled.loop_nests() {
                    nest.for_each_loop(&mut |l| tiled |= l.iter.as_str().ends_with("_t"));
                }
                with_tile += usize::from(tiled);
            }
        }
    }
    assert_eq!(outcomes, 90);
    assert!(with_call > 0, "no outcome holds a BLAS call");
    assert!(with_tile > 0, "no outcome holds a tile loop");
}

#[test]
fn daisy_schedules_a_and_b_variants_to_similar_estimated_runtimes() {
    let dataset = Dataset::Large;
    let mut scheduler = DaisyScheduler::new(DaisyConfig::default());
    let seeds: Vec<_> = ["gemm", "2mm", "mvt", "jacobi-2d"]
        .iter()
        .map(|n| (polybench::benchmark(n).unwrap().a)(dataset))
        .collect();
    scheduler.seed_from_programs(&seeds);
    for name in ["gemm", "2mm", "mvt", "jacobi-2d"] {
        let b = polybench::benchmark(name).unwrap();
        let a_time = scheduler.schedule(&(b.a)(dataset)).seconds();
        let b_time = scheduler.schedule(&(b.b)(dataset)).seconds();
        let gap = (b_time / a_time - 1.0).abs();
        assert!(
            gap < 0.30,
            "{name}: A/B estimated runtime gap {gap:.2} exceeds 30% (A={a_time}, B={b_time})"
        );
    }
}

#[test]
fn randomly_generated_variants_stay_equivalent_after_normalization() {
    let normalizer = Normalizer::new();
    for b in all_benchmarks().into_iter().take(4) {
        let a = (b.a)(Dataset::Mini);
        for seed in 0..3u64 {
            let variant = random_b_variant(&a, seed);
            let normalized = normalizer.run(&variant).unwrap().program;
            assert_equivalent(
                &format!("{} seed {seed}", b.name),
                &a,
                &normalized,
                b.outputs,
            );
        }
    }
}
