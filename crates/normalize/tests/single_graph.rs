//! `Normalizer::run` analyzes its input once and reuses that graph for the
//! fission sweeps and for stride minimization, analyzing again only after a
//! sweep that reordered computations (see the `normalize::pipeline` module
//! docs). This suite pins that the shortcut decides nothing differently: on
//! every program below the pipeline equals the passes run standalone, each
//! sweep and each pass analyzing the program it is handed — program *and*
//! statistics.

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
    }
}

fn assert_single_graph_changes_nothing(label: &str, program: &Program) {
    let pipeline = Normalizer::new().run(program).expect("normalizes");
    let standalone = each_pass_analyzing_for_itself(program);
    assert_eq!(pipeline, standalone, "{label}");
    // Bit-identical costs, which `==` on `f64` would let `0.0 == -0.0` past.
    assert_eq!(
        format!("{:?}", pipeline.stats),
        format!("{:?}", standalone.stats),
        "{label}"
    );
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

/// Case 9610 of `daisyfuzz run --seed 3405 --budget 10000`, shrunk. `S2`
/// writes `A4[5 - i0]`, `S3` reads `A4[i0]`: no iteration pair meets, but the
/// tester's relaxation reports `S3 -> S2` while `S2` comes first and
/// `S2 -> S3` once fission has put `S3` first. Only the second graph lets the
/// outer loop split, so a graph kept across that sweep left one nest where
/// three are due — and normalizing the result again then produced the three.
#[test]
fn a_sweep_that_reorders_statements_is_followed_by_a_fresh_analysis() {
    let program = parse_program(
        "program reordered {
           param N = 5; scalar alpha = 1.5;
           array A0[6]; array A3[6][N]; array A4[6][1]; array A5[1]; array A6[11];
           for i0 in 3..6 step 2 {
             A0[5 - i0] = 1.0;
             for i1 in 0..N {
               A3[i0][i1] = A0[i0] + 1.0;
               A4[5 - i0][0] = A3[i0][6 - i1] * alpha * 0.5;
               A5[0] += A4[i0][0] * alpha * 0.5;
             }
             A6[2 * i0] = A0[5 - i0] * A5[0] + 1.0;
           }
         }",
    )
    .expect("parses");
    assert_single_graph_changes_nothing("reordered", &program);
    let once = Normalizer::new().run(&program).expect("normalizes");
    assert_eq!(once.program.loop_nests().len(), 3);
    let twice = Normalizer::new().run(&once.program).expect("normalizes");
    assert_eq!(twice.program, once.program, "not idempotent");
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
