//! Pinned normal forms.
//!
//! `tests/single_graph.rs` compares the pipeline with its own passes, so a
//! node the passes both lose — moved out of a body and never put back — is
//! invisible to it. This suite compares with the past instead: an FNV-1a
//! digest of `format!("{:?}")` of every [`normalize::NormalizedProgram`]
//! (program *and* statistics) over PolyBench, CLOUDSC and 2000 generated
//! programs, computed at commit `ce82fa1`, before the passes took ownership
//! of the tree they rewrite. A digest changes only when a normal form does;
//! re-pin it in the change that means to move one, and say which.
//!
//! Re-pinned once since: the generated digest, when the dependence tester
//! began to bound the destination iteration as it bounds the source. Its
//! graphs only lost edges; 248 of the 2000 generated normal forms moved (no
//! PolyBench or CLOUDSC one did).

use std::hash::Hasher;

use fuzz::gen::{generate, GenConfig};
use loop_ir::program::Program;
use loop_ir::visit::StructuralHasher;
use normalize::Normalizer;
use polybench::cloudsc::{self, CloudscSizes, CloudscVariant};
use polybench::{all_benchmarks, Dataset};

/// Holds FNV-1a (64 bit, [`StructuralHasher`]'s byte hash) over the `Debug`
/// rendering of each program's normal form against `golden`.
fn assert_digest_of_normal_forms(programs: impl IntoIterator<Item = Program>, golden: u64) {
    let mut hasher = StructuralHasher::default();
    for program in programs {
        let normalized = Normalizer::new().run(&program).expect("normalizes");
        hasher.write(format!("{normalized:?}").as_bytes());
    }
    let digest = hasher.finish();
    assert_eq!(digest, golden, "the digest is {digest:#018x}");
}

fn polybench(dataset: Dataset) -> impl Iterator<Item = Program> {
    all_benchmarks().into_iter().flat_map(move |bench| {
        [
            (bench.a)(dataset),
            (bench.b)(dataset),
            (bench.py)(dataset).0,
        ]
    })
}

#[test]
fn polybench_a_b_py_at_mini() {
    assert_digest_of_normal_forms(polybench(Dataset::Mini), 0xbe8d_11ae_a110_d070);
}

#[test]
fn polybench_a_b_py_at_large() {
    assert_digest_of_normal_forms(polybench(Dataset::Large), 0x73b3_491d_6283_7c53);
}

#[test]
fn cloudsc_models_and_erosion_proxies_at_mini_and_paper() {
    let programs = [CloudscSizes::mini(), CloudscSizes::paper()]
        .into_iter()
        .flat_map(|sizes| {
            [
                cloudsc::full_model(CloudscVariant::Fortran, sizes),
                cloudsc::full_model(CloudscVariant::C, sizes),
                cloudsc::full_model(CloudscVariant::Dace, sizes),
                cloudsc::erosion_original(sizes),
                cloudsc::erosion_optimized(sizes),
                cloudsc::erosion_single_level(sizes, false),
                cloudsc::erosion_single_level(sizes, true),
            ]
        });
    assert_digest_of_normal_forms(programs, 0x2d7b_5b08_f993_9797);
}

#[test]
fn generated_programs_0_to_2000() {
    let gen = GenConfig::default();
    let programs = (0..2000).map(|seed| generate(seed, &gen));
    assert_digest_of_normal_forms(programs, 0x3221_fb3f_46c4_8b17);
}
