//! Allocation budgets of the normalize → schedule path.
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
//! nests that kept their order):
//!
//! | | `ce82fa1` | `960f646` | `0a530e4` | now | budget |
//! |---|---|---|---|---|---|
//! | `Normalizer::run` | 3 623 | 1 388 | 1 000 | 664 | 698 |
//! | `DaisyScheduler::schedule`, 64-sibling database | 7 217 | 3 185 | 2 321 | 1 436 | 1 508 |
//!
//! Debug builds allocate a little more (`debug_assert!`s that collect:
//! 685 and 1 465) and stay inside the same budgets.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use daisy::{DaisyConfig, DaisyScheduler};
use fuzz::gen::{generate, GenConfig};
use loop_ir::program::Program;
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
    assert!(mean <= 698, "{mean} allocations per program");
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
    assert!(mean <= 1508, "{mean} allocations per program");
}

/// The "unchanged nests are never copied" contract: on a program that is
/// already normal the pipeline pays for its one working copy, its one
/// analysis, and per loop a bounded amount of looking (SCCs of each body,
/// strides and legality of each loop order, the final `validate`) — 22
/// allocations per loop over these programs (23 in debug builds), 35 at
/// `0a530e4`, 59 at `960f646`, 181 at `ce82fa1`. One more copy of the tree
/// would add 11.
#[test]
fn normalizing_a_normal_program_copies_it_once() {
    const PER_LOOP: u64 = 40;
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
