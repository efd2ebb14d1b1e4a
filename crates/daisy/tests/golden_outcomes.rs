//! Pinned schedules.
//!
//! `transfer_differential.rs` holds `schedule` against a planner that calls
//! the same normalizer and the same per-nest analysis, so what those two
//! decide is on both sides of its comparison. This suite compares with the
//! past instead: an FNV-1a digest of `format!("{:?}")` of
//! `(program, report, decisions)` of every [`ScheduleOutcome`] — the 105
//! `polybench_schedule` inputs against the A-seeded database, 500 generated
//! programs against a 64-sibling database — computed at commit `ce82fa1`,
//! before the normalize → schedule path stopped copying the program it
//! rewrites. The digest is the same at parallelism 1 and 4; re-pin it in the
//! change that means to move a schedule, and say which.
//!
//! Re-pinned twice since:
//!
//! * the generated digest, when the dependence tester began to bound the
//!   destination iteration as it bounds the source. 96 of the 500 generated
//!   outcomes moved — 59 with their normal form, 37 through the smaller
//!   nest-scoped graphs or the sibling database (6 of its 64 normal forms
//!   moved). No PolyBench outcome did;
//! * the Large and generated digests, when the seeding search began to
//!   enumerate its space and keep the first minimum. Only ties moved: 22
//!   Large and 11 generated outcomes changed their decision text (a
//!   `vectorize` mark that does not change the price, say), and not one
//!   `report.seconds` moved. The Mini digest did not move.

use std::hash::Hasher;

use daisy::{DaisyConfig, DaisyScheduler};
use fuzz::gen::{generate, GenConfig};
use loop_ir::program::Program;
use loop_ir::visit::StructuralHasher;
use polybench::{all_benchmarks, random_b_variant, Dataset};

/// FNV-1a (64 bit, [`StructuralHasher`]'s byte hash) over the `Debug`
/// rendering of each outcome, wall-clock `phase_timings` left out.
fn digest_of_outcomes(scheduler: &DaisyScheduler, inputs: &[Program]) -> u64 {
    let mut hasher = StructuralHasher::default();
    for program in inputs {
        let outcome = scheduler.schedule(program);
        let rendered = format!(
            "{:?}",
            (&outcome.program, &outcome.report, &outcome.decisions)
        );
        hasher.write(rendered.as_bytes());
    }
    hasher.finish()
}

fn assert_digest_at_parallelism_1_and_4(
    scheduler: &mut DaisyScheduler,
    inputs: &[Program],
    golden: u64,
) {
    for parallelism in [1, 4] {
        scheduler.set_parallelism(parallelism);
        let digest = digest_of_outcomes(scheduler, inputs);
        assert_eq!(
            digest, golden,
            "at parallelism {parallelism} the digest is {digest:#018x}"
        );
    }
}

/// The `polybench_schedule` workload: per benchmark the A, B and Py variants
/// plus four random B variants, against a database seeded from the A variants.
fn assert_polybench_digest(dataset: Dataset, golden: u64) {
    let mut a_variants = Vec::new();
    let mut inputs = Vec::new();
    for bench in all_benchmarks() {
        let a = (bench.a)(dataset);
        inputs.extend([a.clone(), (bench.b)(dataset), (bench.py)(dataset).0]);
        inputs.extend((0..4).map(|k| random_b_variant(&a, 1 + k)));
        a_variants.push(a);
    }
    assert_eq!(inputs.len(), 105);
    let mut scheduler = DaisyScheduler::new(DaisyConfig::default());
    scheduler.seed_from_programs(&a_variants);
    assert_digest_at_parallelism_1_and_4(&mut scheduler, &inputs, golden);
}

#[test]
fn polybench_schedule_inputs_at_mini() {
    assert_polybench_digest(Dataset::Mini, 0x1d82_b705_5210_3283);
}

#[test]
fn polybench_schedule_inputs_at_large() {
    assert_polybench_digest(Dataset::Large, 0x299e_5c70_3a61_11d1);
}

#[test]
fn generated_programs_against_a_sibling_seeded_database() {
    let gen = GenConfig::default();
    let inputs: Vec<Program> = (0..500).map(|seed| generate(seed, &gen)).collect();
    let siblings: Vec<Program> = (500..564).map(|seed| generate(seed, &gen)).collect();
    let mut scheduler = DaisyScheduler::new(DaisyConfig::default());
    scheduler.seed_from_programs(&siblings);
    assert_digest_at_parallelism_1_and_4(&mut scheduler, &inputs, 0xcc7d_a646_74d5_6854);
}
