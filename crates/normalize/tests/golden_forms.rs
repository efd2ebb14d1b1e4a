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
//! Re-pinned twice since:
//!
//! * the generated digest, when the dependence tester began to bound the
//!   destination iteration as it bounds the source. Its graphs only lost
//!   edges; 248 of the 2000 generated normal forms moved (no PolyBench or
//!   CLOUDSC one did);
//! * all four, when `PermutationStats` lost its two stride-cost totals
//!   (`cost_before`, `cost_after`) and with them two fields of every
//!   rendering. No normal form moved: the parent's renderings with those
//!   two fields cut out hash to exactly the digests pinned now.

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
    assert_digest_of_normal_forms(polybench(Dataset::Mini), 0xf34b_510c_686a_4710);
}

#[test]
fn polybench_a_b_py_at_large() {
    assert_digest_of_normal_forms(polybench(Dataset::Large), 0x5b3c_1a5c_a90d_18c6);
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
    assert_digest_of_normal_forms(programs, 0x5fed_2251_0ec5_34ff);
}

#[test]
fn generated_programs_0_to_2000() {
    let gen = GenConfig::default();
    let programs = (0..2000).map(|seed| generate(seed, &gen));
    assert_digest_of_normal_forms(programs, 0x918d_03e4_437f_1643);
}
