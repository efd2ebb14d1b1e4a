//! Differential coverage of [`CacheHierarchy::access_run_group`] at the
//! kernel: random lockstep groups are fed to it directly — no program, no
//! lowering in between — and its counters must equal those of the naive
//! [`ReferenceCacheHierarchy`] fed the interleaved per-access expansion
//! (`AccessSink::run_group`'s default).
//!
//! The groups mix every lane kind the phase loop tells apart (stride zero,
//! sub-line, exactly one line, super-line as a line multiple and not, both
//! directions), duplicate lanes (`C[i][j]` read and written in one body) and
//! a stagger cluster next to a super-line lane, on two geometries: the tiny
//! test machine and one with fewer L1 ways than a group has lanes, so that
//! stationary lines get evicted and the conflict fallback runs. The state a
//! group starts from is pre-warmed, and the state it leaves behind is
//! checked through a shared random suffix.
//!
//! What this suite pins in particular is the second half of the quiet rule
//! (an iteration right after one in which a mover's line entered a
//! stationary set must be replayed too): without it every other `-p machine`
//! test passes. The directed test shows the smallest group that tells the
//! difference.

use machine::{AccessSink, CacheHierarchy, MachineConfig, ReferenceCacheHierarchy, StrideRun};
use proptest::{prop_assert_eq, proptest, ProptestConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// 4 sets x 2 ways of 64 B: fewer ways than most groups have lanes.
fn two_way() -> MachineConfig {
    MachineConfig {
        l1_bytes: 512,
        l1_assoc: 2,
        ..MachineConfig::tiny_for_tests()
    }
}

fn run(base: u64, stride: i64, count: u64, array: u32) -> StrideRun {
    StrideRun {
        base,
        stride,
        count,
        array,
        is_write: false,
    }
}

/// A random group of 2–6 lanes sharing one trip count. Bases sit far enough
/// from zero that no negative stride walks below it.
fn random_group(rng: &mut StdRng) -> Vec<StrideRun> {
    const SUB_LINE: [i64; 7] = [4, 8, 8, 12, 24, 40, 63];
    const LINE_MULTIPLE: [i64; 4] = [128, 256, 1024, 4096];
    const SUPER_LINE: [i64; 5] = [65, 72, 100, 200, 2200];
    let lanes = rng.gen_range(2..7usize);
    let count = rng.gen_range(1..400u64);
    let mut runs: Vec<StrideRun> = Vec::new();
    while runs.len() < lanes {
        let array = runs.len() as u32;
        let base = 0x40_0000 + rng.gen_range(0..0x4000u64);
        let sign = if rng.gen_bool(0.25) { -1 } else { 1 };
        match rng.gen_range(0..8u32) {
            0 => runs.push(run(base, 0, count, array)),
            1 | 2 => {
                let stride = SUB_LINE[rng.gen_range(0..SUB_LINE.len())];
                runs.push(run(base, sign * stride, count, array));
            }
            3 => runs.push(run(base, sign * 64, count, array)),
            4 => {
                let stride = LINE_MULTIPLE[rng.gen_range(0..LINE_MULTIPLE.len())];
                runs.push(run(base, sign * stride, count, array));
            }
            5 => {
                let stride = SUPER_LINE[rng.gen_range(0..SUPER_LINE.len())];
                runs.push(run(base, sign * stride, count, array));
            }
            6 if !runs.is_empty() => {
                // The same reference twice: a read and a write of one cell.
                let twin = runs[rng.gen_range(0..runs.len())];
                runs.push(twin);
            }
            _ => {
                // A three-tap stagger cluster, contiguous on one array.
                for tap in 0..3 {
                    runs.push(run(base + 8 * tap, sign * 8, count, array));
                }
            }
        }
    }
    runs.truncate(6);
    runs
}

fn assert_group_matches_reference(machine: &MachineConfig, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut fast = CacheHierarchy::from_machine(machine);
    let mut slow = ReferenceCacheHierarchy::from_machine(machine);
    let mut shared = |fast: &mut CacheHierarchy, slow: &mut ReferenceCacheHierarchy| {
        for _ in 0..300 {
            let address = 0x40_0000 + rng.gen_range(0..0x8000u64);
            fast.access(address);
            slow.access(address);
        }
    };
    shared(&mut fast, &mut slow);
    // Two groups back to back: the second starts from what the first left.
    for _ in 0..2 {
        let runs = random_group(&mut StdRng::seed_from_u64(seed ^ fast.accesses()));
        fast.access_run_group(&runs);
        slow.run_group(&runs);
        prop_assert_eq!(fast.accesses(), slow.accesses(), "{:?}", runs);
        prop_assert_eq!(fast.l1(), slow.l1(), "L1 after {:?}", runs);
        prop_assert_eq!(fast.l2(), slow.l2(), "L2 after {:?}", runs);
    }
    shared(&mut fast, &mut slow);
    prop_assert_eq!(fast.l1(), slow.l1(), "L1 after the suffix (seed {seed:#x})");
    prop_assert_eq!(fast.l2(), slow.l2(), "L2 after the suffix (seed {seed:#x})");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn random_groups_match_the_reference_on_the_tiny_machine(seed in 0..u64::MAX) {
        assert_group_matches_reference(&MachineConfig::tiny_for_tests(), seed);
    }

    #[test]
    fn random_groups_match_the_reference_with_fewer_ways_than_lanes(seed in 0..u64::MAX) {
        assert_group_matches_reference(&two_way(), seed);
    }
}

#[test]
fn a_line_that_entered_a_stationary_set_forces_one_more_replay() {
    // Two ways, four sets. Lane order: mover A, stationary S (line X, set
    // 0), mover B; A and B advance one line per iteration.
    //
    //   i = 1  B's line enters set 0 *after* S touched X: the set reads
    //          [B1, X], not the [X, ..] every other iteration leaves.
    //   i = 2  no mover is in set 0. S's touch still has work to do — it
    //          moves X back in front of B1 — so the iteration is not quiet.
    //   i = 3  A's line enters set 0 and evicts its LRU way: B1. Had i = 2
    //          been skipped, the victim would be X and S would miss.
    let machine = two_way();
    let line = |n: u64| 0x40_0000 + 64 * n; // line `n` maps to set `n % 4`
    let runs = [
        run(line(65), 64, 4, 0),  // A: sets 1, 2, 3, 0
        run(line(0), 0, 4, 1),    // S: set 0
        run(line(131), 64, 4, 2), // B: sets 3, 0, 1, 2
    ];
    let mut fast = CacheHierarchy::from_machine(&machine);
    fast.access_run_group(&runs);
    let mut slow = ReferenceCacheHierarchy::from_machine(&machine);
    slow.run_group(&runs);
    assert_eq!(fast.l1(), slow.l1());
    assert_eq!(fast.l2(), slow.l2());
    // S misses once, the movers every time.
    assert_eq!(fast.l1().misses, 1 + 2 * 4);
}
