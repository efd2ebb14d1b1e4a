//! `Normalizer::run` analyzes its input once and reuses that graph for the
//! fission sweeps and for stride minimization, also after a sweep that
//! reordered computations (see the `normalize::pipeline` module docs). This
//! suite pins that the shortcut decides nothing differently: on every
//! program below the pipeline equals the passes run standalone, each sweep
//! and each pass analyzing the program it is handed — program *and*
//! statistics. The committed fuzz corpus holds the case where a tester
//! that was not symmetric made them differ.

use std::path::Path;

use loop_ir::parser::parse_program;
use loop_ir::program::Program;
use normalize::fission::FissionStats;
use normalize::{
    MaximalFission, NormalizationStats, NormalizedProgram, Normalizer, StrideMinimization,
};
use polybench::cloudsc::{self, CloudscSizes, CloudscVariant};
use polybench::{all_benchmarks, random_b_variant, Dataset};

/// The pipeline with nothing shared: one single-sweep fission pass per
/// iteration of the fixed point, then stride minimization, every call
/// deriving the graph of its own input.
fn each_pass_analyzing_for_itself(program: &Program) -> NormalizedProgram {
    let mut fission = FissionStats {
        nests_before: program.loop_nests().len(),
        ..FissionStats::default()
    };
    let mut current = program.clone();
    for _ in 0..MaximalFission::new().max_iterations {
        let (next, sweep) = MaximalFission { max_iterations: 1 }.run(current);
        fission.iterations += 1;
        fission.loops_split += sweep.loops_split;
        current = next;
        if sweep.loops_split == 0 {
            break;
        }
    }
    fission.nests_after = current.loop_nests().len();
    let (program, permutation) = StrideMinimization::new().run(current);
    NormalizedProgram {
        program,
        stats: NormalizationStats {
            fission,
            permutation,
        },
        graph: None,
        reordered: Vec::new(),
    }
}

fn assert_single_graph_changes_nothing(label: &str, program: &Program) {
    let pipeline = Normalizer::new().run(program).expect("normalizes");
    let standalone = each_pass_analyzing_for_itself(program);
    assert_eq!(pipeline, standalone, "{label}");
}

#[test]
fn polybench_variants_at_mini_and_large() {
    for dataset in [Dataset::Mini, Dataset::Large] {
        for bench in all_benchmarks() {
            let a = (bench.a)(dataset);
            let mut family = vec![
                ("a".to_string(), a.clone()),
                ("b".to_string(), (bench.b)(dataset)),
                ("py".to_string(), (bench.py)(dataset).0),
            ];
            for seed in 1..=4 {
                family.push((format!("rand{seed}"), random_b_variant(&a, seed)));
            }
            for (variant, program) in family {
                let label = format!("{}/{variant} at {dataset:?}", bench.name);
                assert_single_graph_changes_nothing(&label, &program);
            }
        }
    }
}

#[test]
fn cloudsc_models_and_erosion_proxies() {
    for sizes in [CloudscSizes::mini(), CloudscSizes::paper()] {
        for variant in [
            CloudscVariant::Fortran,
            CloudscVariant::C,
            CloudscVariant::Dace,
        ] {
            let label = format!("cloudsc {variant:?} at {sizes:?}");
            assert_single_graph_changes_nothing(&label, &cloudsc::full_model(variant, sizes));
        }
        for (name, program) in [
            ("erosion_original", cloudsc::erosion_original(sizes)),
            ("erosion_optimized", cloudsc::erosion_optimized(sizes)),
            (
                "erosion_1level",
                cloudsc::erosion_single_level(sizes, false),
            ),
            (
                "erosion_1level_opt",
                cloudsc::erosion_single_level(sizes, true),
            ),
        ] {
            assert_single_graph_changes_nothing(&format!("{name} at {sizes:?}"), &program);
        }
    }
}

#[test]
fn committed_fuzz_corpus() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../fuzz/corpus");
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .expect("fuzz/corpus is committed")
        .map(|entry| entry.expect("readable entry").path())
        .filter(|path| path.extension().is_some_and(|x| x == "loop"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "no corpus under {}", dir.display());
    for path in paths {
        let text = std::fs::read_to_string(&path).expect("readable case");
        let program = parse_program(&text).expect("corpus cases parse");
        assert_single_graph_changes_nothing(&path.display().to_string(), &program);
    }
}
