//! Allocation budgets of the front door: parse → normalize → analyze →
//! schedule → lower → storage → execute.
//!
//! A binary of its own because it installs a counting `#[global_allocator]`.
//! The counter is per thread and the scheduler runs at parallelism 1, so the
//! tests below do not see each other (or the harness); counts are exact and
//! repeat run to run.
//!
//! Mean allocations per generated program (seeds 1..=2000, release build;
//! `960f646` copied every subscript tree per `accesses()` and per affine
//! form, one fold borrows them since; at `0a530e4` the stride pass still
//! linearized nests it cannot permute and built a nest for every order that
//! led its scan, pricing built a name per computation, a parameter map and
//! a bound-variable set per loop and a vector per access, and `schedule`
//! analyzed every nest again, now it reuses the normalizer's graph for
//! nests that kept their order; at `11ec2cd` the IR's queries built a
//! collection per call — accesses, loads, variables, strides, perfect
//! chains — `parse_program` validated twice and allocated a name per
//! identifier occurrence, and the dependence walk cloned a loop stack per
//! computation and kept a vector per access, per array and per pair
//! (queries borrow since); at `132902c` pricing built an affine form per
//! access and looked every nest and computation up in two shared tables,
//! now strides come straight from the affine fold and nothing is cached):
//!
//! | | `ce82fa1` | `960f646` | `0a530e4` | `11ec2cd` | `132902c` | now | budget |
//! |---|---|---|---|---|---|---|---|
//! | `parse_program` | | | | 326 | 155 | 155 | 163 |
//! | `Normalizer::run` | 3 623 | 1 388 | 1 000 | 664 | 301 | 301 | 316 |
//! | `dependence::analyze` | | | | 184 | 57 | 57 | 60 |
//! | `DaisyScheduler::schedule`, 64-sibling database | 7 217 | 3 185 | 2 321 | 1 436 | 747 | 716 | 795 |
//! | `CompiledProgram::lower` | | | | 388 | 251 | 251 | 279 |
//! | `ProgramData::seeded` (storage) | | | | 80 | 49 | 49 | 51 |
//! | `CompiledProgram::execute` | | | | 4 | 3 | 3 | 4 |
//! | the front door | | | | 3 082 | 1 563 | 1 532 | 1 668 |
//!
//! Debug builds allocate a little more (`debug_assert!`s that collect, and
//! one that prices the scheduled program again: `schedule` 752) and stay
//! inside the same budgets.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use daisy::{DaisyConfig, DaisyScheduler};
use fuzz::gen::{generate, GenConfig};
use loop_ir::parser::parse_program;
use loop_ir::program::Program;
use loop_ir::source::to_source;
use machine::interp::ProgramData;
use machine::CompiledProgram;
use normalize::Normalizer;

struct CountingAllocator;

thread_local! {
    /// Allocations made by this thread (`alloc` and `realloc` calls).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: a thread may allocate while its locals are torn down.
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a `const`-initialized thread-local
// `Cell` without a destructor, so touching it never allocates or unwinds.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's obligations are `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Allocations `f` makes on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    let value = f();
    let after = ALLOCATIONS.with(Cell::get);
    drop(value);
    after - before
}

/// Budgets, mean allocations per program: each stage's mean at the last
/// ratchet plus 5 %.
const PARSE: u64 = 163;
const NORMALIZE: u64 = 316;
const ANALYZE: u64 = 60;
const SCHEDULE: u64 = 795;
const LOWER: u64 = 279;
const STORAGE: u64 = 51;
const EXECUTE: u64 = 4;
const FRONT_DOOR: u64 = 1668;

fn generated(seeds: std::ops::RangeInclusive<u64>) -> Vec<Program> {
    let gen = GenConfig::default();
    seeds.map(|seed| generate(seed, &gen)).collect()
}

#[test]
fn normalizer_run_stays_within_its_allocation_budget() {
    let programs = generated(1..=2000);
    let normalizer = Normalizer::new();
    let total: u64 = programs
        .iter()
        .map(|p| allocations(|| normalizer.run(p).expect("normalizes")))
        .sum();
    let mean = total / programs.len() as u64;
    println!("Normalizer::run: {mean} allocations per program");
    assert!(mean <= NORMALIZE, "{mean} allocations per program");
}

#[test]
fn schedule_stays_within_its_allocation_budget() {
    let programs = generated(1..=2000);
    let mut scheduler = DaisyScheduler::new(DaisyConfig::default().with_parallelism(1));
    scheduler.seed_from_programs(&generated(2001..=2064));
    let total: u64 = programs
        .iter()
        .map(|p| allocations(|| scheduler.schedule(p)))
        .sum();
    let mean = total / programs.len() as u64;
    println!("DaisyScheduler::schedule: {mean} allocations per program");
    assert!(mean <= SCHEDULE, "{mean} allocations per program");
}

/// The "unchanged nests are never copied" contract: on a program that is
/// already normal the pipeline pays for its one working copy, its one
/// analysis, and per loop a bounded amount of looking (SCCs of each body,
/// strides and legality of each loop order, the final `validate`) — 4.9
/// allocations per loop over these programs (also in debug builds), 22 at
/// `11ec2cd`, 35 at `0a530e4`, 59 at `960f646`, 181 at `ce82fa1`. One more
/// copy of the tree would add 11.
#[test]
fn normalizing_a_normal_program_copies_it_once() {
    const PER_LOOP: u64 = 6;
    let normalizer = Normalizer::new();
    let (mut run, mut floor, mut loops) = (0u64, 0u64, 0u64);
    for program in generated(1..=2000) {
        let normal = normalizer.run(&program).expect("normalizes").program;
        run += allocations(|| {
            let again = normalizer.run(&normal).expect("normalizes");
            assert_eq!(again.stats.fission.loops_split, 0);
            assert_eq!(again.stats.permutation.nests_permuted, 0);
            again
        });
        floor += allocations(|| normal.clone()) + allocations(|| dependence::analyze(&normal));
        loops += loop_ir::visit::walk_loops(&normal.body).len() as u64;
    }
    println!(
        "Normalizer::run on normal forms: {run} allocations, clone + analyze {floor}, {loops} loops"
    );
    assert!(
        run <= floor + PER_LOOP * loops,
        "{run} allocations against clone + analyze = {floor} and {loops} loops"
    );
}

/// Mean allocations per program of each stage of the front door, in the
/// order a source text goes through it: parse, normalize, analyze,
/// schedule, lower, storage, execute.
fn front_door_stages() -> [u64; 7] {
    let sources: Vec<String> = generated(1..=2000)
        .iter()
        .map(|p| to_source(p).expect("renders"))
        .collect();
    let mut scheduler = DaisyScheduler::new(DaisyConfig::default().with_parallelism(1));
    scheduler.seed_from_programs(&generated(2001..=2064));
    let normalizer = Normalizer::new();
    let mut totals = [0u64; 7];
    for source in &sources {
        let mut program = None;
        totals[0] += allocations(|| program = Some(parse_program(source).expect("parses")));
        let program = program.expect("parsed");
        totals[1] += allocations(|| normalizer.run(&program).expect("normalizes"));
        totals[2] += allocations(|| dependence::analyze(&program));
        let mut outcome = None;
        totals[3] += allocations(|| outcome = Some(scheduler.schedule(&program)));
        let scheduled = outcome.expect("scheduled").program;
        let mut compiled = None;
        totals[4] += allocations(|| compiled = Some(CompiledProgram::lower(&scheduled)));
        let compiled = compiled.expect("lowered").expect("lowers");
        let mut data = None;
        totals[5] += allocations(|| data = Some(ProgramData::seeded(&scheduled)));
        let mut data = data.expect("allocated").expect("fits");
        totals[6] += allocations(|| compiled.execute(&mut data).expect("executes"));
    }
    totals.map(|total| total / sources.len() as u64)
}

#[test]
fn front_door_stays_within_its_allocation_budget() {
    let stages = front_door_stages();
    let total: u64 = stages.iter().sum();
    println!("front door: {stages:?} = {total} allocations per program");
    let budgets = [
        ("parse_program", PARSE),
        ("Normalizer::run", NORMALIZE),
        ("dependence::analyze", ANALYZE),
        ("DaisyScheduler::schedule", SCHEDULE),
        ("CompiledProgram::lower", LOWER),
        ("ProgramData::seeded", STORAGE),
        ("CompiledProgram::execute", EXECUTE),
    ];
    for ((name, budget), mean) in budgets.into_iter().zip(stages) {
        assert!(mean <= budget, "{name}: {mean} allocations per program");
    }
    assert!(total <= FRONT_DOOR, "{total} allocations per program");
}
