//! Differential coverage of the block-sharded parallel cache simulation.
//!
//! [`machine::simulate_cache_sharded`] cuts a compiled program's trace into
//! shards (one per block-loop trip, or contiguous run-group windows for
//! non-blocked programs), streams each shard through its own cold
//! [`machine::CacheHierarchy`] replica on a worker pool and merges the
//! counters by shard index. This suite pins the two halves of the
//! determinism contract on random programs:
//!
//! * **worker invariance** — the merged [`machine::ShardedCacheStats`] is
//!   *bit-identical* at worker counts 1, 3 and 8 (the plan is a pure
//!   function of the program, never of the worker count);
//! * **per-shard run compression** — accesses and per-level counters match
//!   the sequential shard oracle
//!   ([`machine::simulate_cache_sharded_reference`]: every shard streamed
//!   into its own naive LRU) on the same plan, including ragged and
//!   clamped-past-the-end cuts. `probes` is excluded: run compression
//!   probes once per distinct line, the naive LRU counts none.
//!
//! * **translation classes** — the driver simulates one representative per
//!   class of block shards that move every array by one whole number of
//!   lines (up to whole set periods) against each other — a relabeling of
//!   the cache sets — and weights its counters by the class size; the
//!   oracle never deduplicates, so oracle equality on nests built to form
//!   classes (and to break every precondition: two coefficients on one
//!   array, block-dependent bounds, symbolic subscripts, sub-line shifts,
//!   clamped and spilling offsets) *is* the equivalence check. `probes` is
//!   pinned separately against every shard simulated alone.
//! * **L1 classes** — translation classes whose representatives agree at
//!   the L1 set period share one L1 stream, whose misses reach one L2
//!   replica per translation class, each moved by that class's per-array
//!   line offset; nests where slabs move by a fraction of the L2 period, at
//!   two line rates, or fail the footprint check for the whole L1 class
//!   hold that to the same oracle.
//!
//! A single all-covering shard must degenerate to exactly the monolithic
//! [`machine::simulate_cache`], and zero-trip block loops to an empty plan
//! with all-zero counters.

use loop_ir::parser::parse_program;
use loop_ir::program::Program;
use machine::{
    simulate_cache, simulate_cache_reference, simulate_cache_sharded,
    simulate_cache_sharded_reference, simulate_cache_sharded_with_plan, CompiledProgram,
    MachineConfig, ShardGranularity, ShardPlan, ShardedCacheStats,
};
use polybench::cloudsc::{daisy_model, full_model, CloudscSizes, CloudscVariant};
use proptest::{prop_assert, prop_assert_eq, proptest, ProptestConfig, Strategy};

/// A blocked nest: `NB` trips of a top-level block loop, each reading and
/// writing its own `N`-element rows of `A`/`B` plus a vector `C` shared by
/// every block — deliberately *not* block-disjoint, so the contract is
/// checked on programs where stale lines from earlier blocks could matter.
/// `shape` picks the `B` subscript (unit, reversed, invariant) and whether
/// the body carries a cross-block reduction into `C`.
fn blocked_program(nb: i64, n: i64, shape: u8) -> Program {
    let b_subscript = match shape % 3 {
        0 => "b * N + i",
        1 => "b * N + (N - 1 - i)",
        _ => "b * N",
    };
    let extra = if shape >= 3 {
        "C[i] = C[i] + A[b * N + i];"
    } else {
        ""
    };
    parse_program(&format!(
        "program sharddiff {{
           param NB = {nb}; param N = {n};
           array A[NB * N]; array B[NB * N]; array C[N];
           for b in 0..NB {{
             for i in 0..N {{
               A[b * N + i] = B[{b_subscript}] * 0.5 + C[i];
               {extra}
             }}
           }}
         }}"
    ))
    .expect("generated blocked nest parses")
}

/// Asserts accesses and per-level counters (everything but `probes`) match
/// between a sharded result and its shard oracle.
fn assert_counters_match(label: &str, fast: &ShardedCacheStats, oracle: &ShardedCacheStats) {
    assert_eq!(fast.accesses(), oracle.accesses(), "{label}: access counts");
    assert_eq!(fast.l1(), oracle.l1(), "{label}: L1 counters");
    assert_eq!(fast.l2(), oracle.l2(), "{label}: L2 counters");
    assert_eq!(fast.shards(), oracle.shards(), "{label}: shard counts");
}

/// Contiguous ragged cuts over `nb` blocks: chunks of `chunk` trips, a
/// ragged last shard, plus one cut reaching past the end (the driver clamps
/// it).
fn ragged_cuts(nb: u64, chunk: u64) -> Vec<(u64, u64)> {
    let mut cuts = Vec::new();
    let mut lo = 0;
    while lo < nb {
        cuts.push((lo, (lo + chunk).min(nb)));
        lo += chunk;
    }
    cuts.push((nb, nb + 3));
    cuts
}

fn arbitrary_blocked_nest() -> impl Strategy<Value = (i64, i64, u8, u64)> {
    (1i64..11, 8i64..25, 0u8..6, 1u64..5).prop_map(|(nb, n, shape, chunk)| (nb, n, shape, chunk))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn random_blocked_programs_shard_deterministically(
        (nb, n, shape, chunk) in arbitrary_blocked_nest()
    ) {
        let program = blocked_program(nb, n, shape);
        // The tiny machine (1 KiB L1, 4 sets) forces set conflicts and
        // capacity evictions inside each shard replica.
        let machine = MachineConfig::tiny_for_tests();
        let compiled = CompiledProgram::lower(&program).unwrap();

        // The derived plan cuts at block granularity, one shard per trip.
        let plan = ShardPlan::for_program(&compiled).unwrap();
        prop_assert_eq!(plan.granularity(), ShardGranularity::Blocks);
        prop_assert_eq!(plan.len(), nb as usize);

        for plan in [plan, ShardPlan::blocks(ragged_cuts(nb as u64, chunk))] {
            // Worker invariance: bit-identical merged stats at any count.
            let baseline = simulate_cache_sharded_with_plan(&compiled, &plan, &machine, 1).unwrap();
            for workers in [3usize, 8] {
                let threaded =
                    simulate_cache_sharded_with_plan(&compiled, &plan, &machine, workers).unwrap();
                prop_assert_eq!(&threaded, &baseline, "workers = {}", workers);
            }
            // Run compression, shard by shard, against the shard oracle.
            let oracle = simulate_cache_sharded_reference(&compiled, &plan, &machine).unwrap();
            assert_counters_match("blocked nest", &baseline, &oracle);
        }
    }
}

/// A blocked nest whose block trips are translations of each other unless a
/// `body` bit says otherwise: each block sweeps its own `L x N` slab of `A`
/// and `B`, level by level, so both move by `L * N` elements per trip (on
/// the tiny machine 128 doubles are one whole set period, 64 half of it —
/// a whole L1 period — and 4 half a line), and odd `L` push a slab past the
/// 8 KiB L2. `AT` is a zero-coefficient temporary shared by every block
/// (DaCe's `ZCOND_0`), laid out directly behind `A` (whose size is a whole
/// number of pages), so that whatever spills past the end of `A` lands on
/// lines every block keeps touching; `S` moves by two elements (a sub-line
/// shift). Each `body` bit adds one statement or loop shape:
///
/// | bit | adds |
/// |-----|------|
/// | 0 | a write to the temporary `AT` |
/// | 1 | a three-tap stencil on `B` (stagger merge) |
/// | 2 | `A[.. - K]`: clamps at the array base in the first block |
/// | 3 | `A[.. + L * N + G]`: spills past the end of `A` in the last block when `K > 8` |
/// | 4 | a block loop starting at 1 with step 2 |
/// | 5 | a second coefficient on `B` (`B[l * N + i]` next to `B[(b * L + l) * N + i]`) |
/// | 6 | a symbolic subscript (`%`) |
/// | 7 | a block-dependent (triangular) inner bound |
/// | 8 | the sub-line-shift array `S` |
/// | 9 | a second inner loop walking the columns of `D[N][NB]` (super-line stride, 8-byte shift) |
/// | 10 | drops `AT` from the first statement: without bits 0 and 6 nothing stays put |
fn translated_program(nb: i64, l: i64, n: i64, k: i64, body: u16) -> Program {
    let bit = |i: u16| body & (1 << i) != 0;
    let first = if bit(10) {
        "A[(b * L + l) * N + i] = B[(b * L + l) * N + i] * 0.5;"
    } else {
        "A[(b * L + l) * N + i] = B[(b * L + l) * N + i] * 0.5 + AT[i];"
    };
    let statements = [
        (true, first),
        (bit(0), "AT[i] = A[(b * L + l) * N + i] + 1.0;"),
        (
            bit(1),
            "A[(b * L + l) * N + i] = (B[(b * L + l) * N + i] + B[(b * L + l) * N + i + 1]
               + B[(b * L + l) * N + i + 2]) * 0.3;",
        ),
        (
            bit(2),
            "B[(b * L + l) * N + i] = A[(b * L + l) * N + i - K];",
        ),
        (
            bit(3),
            "B[(b * L + l) * N + i] = A[(b * L + l) * N + i + L * N + G];",
        ),
        (
            bit(5),
            "A[(b * L + l) * N + i] = A[(b * L + l) * N + i] + B[l * N + i];",
        ),
        (bit(6), "AT[(b + i) % N] = 1.0;"),
        (bit(8), "S[b * 2 + i] = S[b * 2 + i] + 1.0;"),
    ];
    let inner: Vec<&str> = statements
        .iter()
        .filter_map(|&(on, statement)| on.then_some(statement))
        .collect();
    let block_loop = if bit(4) {
        "for b in 1..NB step 2"
    } else {
        "for b in 0..NB"
    };
    let inner_upper = if bit(7) { "b + 1" } else { "N" };
    let columns = if bit(9) {
        "for i in 0..N { D[i][b] = D[i][b] + A[b * L * N + i]; }"
    } else {
        ""
    };
    // `A` holds every block's slab, the slab bit 3 reads ahead into and 8
    // elements more, rounded up to whole 4 KiB pages; `G` is sized so that
    // the read-ahead ends `K - 8` elements past the end.
    let used = nb * l * n + l * n + 8;
    let a_len = (used + 511) / 512 * 512;
    let g = a_len - used + k;
    parse_program(&format!(
        "program shardclasses {{
           param NB = {nb}; param L = {l}; param N = {n}; param K = {k}; param G = {g};
           array A[{a_len}]; array B[NB * L * N + L * N + 8];
           array AT[N + 8]; array S[NB * 2 + N + 8]; array D[N][NB];
           {block_loop} {{
             for l in 0..L {{ for i in 0..{inner_upper} {{ {} }} }}
             {columns}
           }}
         }}",
        inner.join("\n")
    ))
    .expect("generated translated nest parses")
}

/// `body` bits of [`translated_program`] under which block trips stop being
/// translations of each other, so no class may form.
const BREAKS_TRANSLATION: u16 = 1 << 5 | 1 << 6 | 1 << 7;

/// Draws the `body` bits of [`translated_program`]: 1, 3 and 4 at one in
/// two; 0 and 2, which pin the sets with `AT` or clamp every class back
/// into its members, at one in four; 10, which unpins them, at three in
/// four; 5–9, which keep classes from forming or add an array moving at a
/// rate of its own, at one in eight each. At least
/// [`MERGED_BELOW_PER_ARRAY_KEY`] of the cases merge blocks that a key on
/// each array's own residue would keep apart.
fn arbitrary_translated_nest() -> impl Strategy<Value = (i64, i64, i64, i64, u16, u64)> {
    let sizes = (1i64..10, 1i64..8, 0usize..6, 0i64..16);
    let body = (0u16..2048, 0u16..2048, 0u16..2048);
    (sizes, body, 1u64..4).prop_map(|((nb, l, n, k), (body, rare, rarer), chunk)| {
        let body = body & 0b1_1010
            | body & rare & 0b101
            | (body | rare) & 1 << 10
            | body & rare & rarer & 0b11_1110_0000;
        (nb, l, [4, 24, 64, 64, 128, 128][n], k, body, chunk)
    })
}

/// The least share of [`arbitrary_translated_nest`]'s property cases whose
/// canonical plan forms fewer classes than the same nest reading the
/// stationary `AT` — which makes the class key equivalent to keying every
/// array on its own residue modulo the set period. The drawn cases reach
/// 14 of 192.
const MERGED_BELOW_PER_ARRAY_KEY: f64 = 0.06;

/// The random cases of [`translation_classes_match_the_undeduplicated_oracle`]
/// and the property name their seeds derive from.
const TRANSLATED_CASES: u32 = 192;
const TRANSLATED_PROPERTY: &str =
    "shard_differential::translation_classes_match_the_undeduplicated_oracle";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(TRANSLATED_CASES))]

    #[test]
    fn translation_classes_match_the_undeduplicated_oracle(
        (nb, l, n, k, body, chunk) in arbitrary_translated_nest()
    ) {
        let program = translated_program(nb, l, n, k, body);
        let machine = MachineConfig::tiny_for_tests();
        let compiled = CompiledProgram::lower(&program).unwrap();
        let canonical = ShardPlan::for_program(&compiled).unwrap();
        prop_assert_eq!(canonical.granularity(), ShardGranularity::Blocks);
        let trips = canonical.len() as u64;

        // The canonical plan, ragged chunks with a past-the-end cut, and
        // the canonical shards in descending order (a class must pick its
        // lowest trip as representative wherever it sits in the plan).
        let descending = canonical.shards().iter().rev().copied().collect();
        let mut canonical_classes = None;
        for (index, plan) in [
            canonical,
            ShardPlan::blocks(descending),
            ShardPlan::blocks(ragged_cuts(trips, chunk)),
        ]
        .into_iter()
        .enumerate()
        {
            let baseline = simulate_cache_sharded_with_plan(&compiled, &plan, &machine, 1).unwrap();
            for workers in [3usize, 8] {
                let threaded =
                    simulate_cache_sharded_with_plan(&compiled, &plan, &machine, workers).unwrap();
                prop_assert_eq!(&threaded, &baseline, "workers = {}", workers);
            }
            let oracle = simulate_cache_sharded_reference(&compiled, &plan, &machine).unwrap();
            assert_counters_match("translated nest", &baseline, &oracle);
            prop_assert_eq!(oracle.classes(), plan.len(), "the oracle never deduplicates");
            prop_assert!(baseline.classes() <= plan.len());
            if body & BREAKS_TRANSLATION != 0 {
                prop_assert_eq!(baseline.classes(), plan.len(), "body = {:#b}", body);
            }
            if index < 2 {
                let classes = *canonical_classes.get_or_insert(baseline.classes());
                prop_assert_eq!(baseline.classes(), classes, "plan order changed the classes");
            }

            // Probes are a property of the run-compressed pipeline, so the
            // oracle cannot pin them; every shard simulated alone can.
            let alone = probes_alone(&compiled, &plan, &machine);
            prop_assert_eq!(baseline.probes(), alone, "probes");
        }
    }
}

#[test]
fn a_stated_share_of_translated_nests_merges_below_the_per_array_key() {
    // The property's own cases, drawn again: without the share, the
    // oracle equality above would not exercise whole-line relabeling.
    let machine = MachineConfig::tiny_for_tests();
    let classes = |program: &Program| {
        let compiled = CompiledProgram::lower(program).unwrap();
        let plan = ShardPlan::for_program(&compiled).unwrap();
        simulate_cache_sharded_with_plan(&compiled, &plan, &machine, 1)
            .unwrap()
            .classes()
    };
    let mut merged = 0;
    for index in 0..TRANSLATED_CASES {
        let seed = proptest::case_seed(TRANSLATED_PROPERTY, index);
        proptest::run_case(file!(), "share", seed, |rng| {
            let (nb, l, n, k, body, _) = arbitrary_translated_nest().new_value(rng);
            // Clearing bit 10 reads the stationary `AT` again.
            let pinned = body & !(1 << 10);
            if classes(&translated_program(nb, l, n, k, body))
                < classes(&translated_program(nb, l, n, k, pinned))
            {
                merged += 1;
            }
        });
    }
    let share = f64::from(merged) / f64::from(TRANSLATED_CASES);
    assert!(
        share >= MERGED_BELOW_PER_ARRAY_KEY,
        "only {merged} of {TRANSLATED_CASES} cases merge below the per-array key"
    );
}

/// The merged stats under the canonical plan next to its shard oracle.
fn canonical_and_oracle(
    program: &Program,
    machine: &MachineConfig,
) -> (ShardedCacheStats, ShardedCacheStats) {
    let compiled = CompiledProgram::lower(program).unwrap();
    let plan = ShardPlan::for_program(&compiled).unwrap();
    (
        simulate_cache_sharded_with_plan(&compiled, &plan, machine, 2).unwrap(),
        simulate_cache_sharded_reference(&compiled, &plan, machine).unwrap(),
    )
}

#[test]
fn whole_period_shifts_collapse_to_one_class_and_half_periods_to_two() {
    let machine = MachineConfig::tiny_for_tests();
    // The tiny machine's set period is 64 B x 16 L2 sets = 128 doubles.
    for (n, classes) in [(256, 1), (128, 1), (64, 2), (32, 4), (4, 12)] {
        let (stats, oracle) = canonical_and_oracle(&translated_program(12, 1, n, 0, 0), &machine);
        assert_eq!(stats.shards(), 12);
        assert_eq!(stats.classes(), classes, "N = {n}");
        assert_counters_match("whole-period shifts", &stats, &oracle);
    }
}

#[test]
fn clamped_and_spilling_representatives_fall_back_to_every_member() {
    let machine = MachineConfig::tiny_for_tests();
    // One class of 6; block 0 clamps `A[i - K]` at the array base, and the
    // last block's `A[.. + N + K]` spills past the end of `A` for K > 8.
    for (k, body) in [(3, 1 << 2), (12, 1 << 3)] {
        let (stats, oracle) =
            canonical_and_oracle(&translated_program(6, 1, 128, k, body), &machine);
        assert_eq!(
            stats.classes(),
            6,
            "body = {body:#b}: nothing is deduplicated"
        );
        assert_counters_match("clamped representative", &stats, &oracle);
    }
    // Neither happens for K = 0 (and the read-ahead stays inside A's pad).
    let (stats, oracle) =
        canonical_and_oracle(&translated_program(6, 1, 128, 0, 1 << 2 | 1 << 3), &machine);
    assert_eq!(stats.classes(), 1);
    assert_counters_match("in-bounds representative", &stats, &oracle);
    // Half-period rows: even and odd blocks are two translation classes of
    // one L1 class, whose stream (block 0) fails the footprint check up to
    // block 5, so each translation class falls back on its own. Clamping
    // hands back the even class (block 0 plus its members 2 and 4, each
    // streamed); spilling hands back the odd one (block 1, then 3 and 5),
    // while block 0 still stands for 2 and 4.
    for (k, body) in [(3, 1 << 2), (12, 1 << 3)] {
        let (stats, oracle) =
            canonical_and_oracle(&translated_program(6, 1, 64, k, body), &machine);
        assert_eq!(
            (stats.classes(), stats.l1_streams()),
            (4, 4),
            "body = {body:#b}"
        );
        assert_counters_match("L1 class falling back", &stats, &oracle);
    }
}

#[test]
fn cloudsc_uniform_blocks_form_one_class_and_stationary_temporaries_keep_32() {
    // Paper NPROMA/KLEV: a 3-D slab is 128 x 137 x 8 B = 137 KiB, which is
    // 9 KiB modulo the Xeon's 32 KiB set period (64 B x 512 L2 sets), and a
    // 2-D row 1 KiB: both repeat every 32 blocks. Fortran and C move every
    // array by the same whole number of lines per block modulo the set
    // period, so all blocks relabel block 0's sets; DaCe's (and daisy's)
    // `ZCOND_0`/`ZLUDE_0` temporaries stay put and keep the 32 residues
    // apart.
    let sizes = CloudscSizes {
        nproma: 128,
        klev: 137,
        nblocks: 64,
    };
    let machine = MachineConfig::xeon_e5_2680v3();
    // At the L1 set period (64 B x 64 L1 sets = 4 KiB) a slab is 1 KiB and
    // a row 1 KiB modulo the period: DaCe's and daisy's 32 classes repeat
    // every 4 blocks there, so each streams 4 blocks through L1 and feeds
    // 8 L2 replicas from each.
    let versions = [
        ("Fortran", full_model(CloudscVariant::Fortran, sizes), 1, 1),
        ("C", full_model(CloudscVariant::C, sizes), 1, 1),
        ("DaCe", full_model(CloudscVariant::Dace, sizes), 32, 4),
        ("daisy", daisy_model(sizes), 32, 4),
    ];
    for (name, program, classes, l1_streams) in &versions {
        let (stats, oracle) = canonical_and_oracle(program, &machine);
        assert_eq!(stats.shards(), 64, "{name}");
        assert_eq!(stats.classes(), *classes, "{name}");
        assert_eq!(stats.l1_streams(), *l1_streams, "{name}");
        assert_counters_match(name, &stats, &oracle);
        assert_eq!(
            stats.streamed_accesses() * 64,
            stats.accesses() * *l1_streams as u64,
            "{name}: every L1 class streams one block"
        );
    }
}

/// Every shard of a plan simulated by itself, probes summed: what the
/// merged `probes` must equal (the oracle counts none).
fn probes_alone(compiled: &CompiledProgram, plan: &ShardPlan, machine: &MachineConfig) -> u64 {
    plan.shards()
        .iter()
        .map(|&cut| {
            let single = ShardPlan::blocks(vec![cut]);
            simulate_cache_sharded_with_plan(compiled, &single, machine, 1)
                .unwrap()
                .probes()
        })
        .sum()
}

#[test]
fn a_slab_moving_by_a_quarter_l2_period_streams_l1_once() {
    // The tiny machine's L1 period is 64 B x 4 sets = 256 B, its L2 period
    // 64 B x 16 sets = 1 KiB. `A` moves by 32 doubles (256 B) per block
    // next to the stationary `C`: the blocks are one class at L1 and four
    // at L2, so one L1 stream feeds four L2 replicas.
    let program = parse_program(
        "program quarter { param NB = 8; param N = 96;
           array A[NB * 32 + N]; array C[N];
           for b in 0..NB {
             for r in 0..2 { for i in 0..N { A[b * 32 + i] = A[b * 32 + i] + C[i]; } }
           } }",
    )
    .unwrap();
    let machine = MachineConfig::tiny_for_tests();
    let compiled = CompiledProgram::lower(&program).unwrap();
    let plan = ShardPlan::for_program(&compiled).unwrap();
    let stats = simulate_cache_sharded_with_plan(&compiled, &plan, &machine, 2).unwrap();
    assert_eq!(
        (stats.shards(), stats.classes(), stats.l1_streams()),
        (8, 4, 1)
    );
    assert!(stats.l1_streams() < stats.classes());
    assert_eq!(stats.streamed_accesses() * 8, stats.accesses());
    let oracle = simulate_cache_sharded_reference(&compiled, &plan, &machine).unwrap();
    assert_counters_match("quarter-period slab", &stats, &oracle);
    assert_eq!(stats.probes(), probes_alone(&compiled, &plan, &machine));
}

#[test]
fn slabs_moving_at_different_line_rates_reach_each_replica_by_their_own_offset() {
    // Per block, `A` moves by 640 doubles (5 KiB, whole L2 periods) and `B`
    // by 608 (4.75 KiB): both are whole L1 periods, so all 8 blocks are one
    // L1 class, but `B` moves 768 B against `A` modulo the L2 period and
    // the blocks fall into four translation classes. Each block reads
    // 72-line slabs of both twice; whether the second pass hits in the
    // 128-line L2 depends on where the slabs' extra lines land in its sets,
    // so the classes' L2 counters differ and a replica that moved `B`'s
    // misses by `A`'s offset would read the lead's.
    let program = parse_program(
        "program rates { param NB = 8; param N = 576;
           array A[NB * 640]; array B[NB * 640];
           for b in 0..NB {
             for r in 0..2 { for i in 0..N { A[b * 640 + i] = A[b * 640 + i] + B[b * 608 + i]; } }
           } }",
    )
    .unwrap();
    let machine = MachineConfig::tiny_for_tests();
    let compiled = CompiledProgram::lower(&program).unwrap();
    let plan = ShardPlan::for_program(&compiled).unwrap();
    let stats = simulate_cache_sharded_with_plan(&compiled, &plan, &machine, 2).unwrap();
    assert_eq!(
        (stats.shards(), stats.classes(), stats.l1_streams()),
        (8, 4, 1)
    );
    let oracle = simulate_cache_sharded_reference(&compiled, &plan, &machine).unwrap();
    assert_counters_match("two line rates", &stats, &oracle);
    assert_eq!(stats.probes(), probes_alone(&compiled, &plan, &machine));
    let lead =
        simulate_cache_sharded_with_plan(&compiled, &ShardPlan::blocks(vec![(0, 1)]), &machine, 1)
            .unwrap();
    assert_eq!(stats.l1().loads, 8 * lead.l1().loads, "one L1 class");
    assert_ne!(
        stats.l2().misses,
        8 * lead.l2().misses,
        "the classes differ at L2"
    );
}

/// A `col_major`-shaped walk: block `j` reads and writes column `j` of a
/// row-major `A[M][NB]`, so every access strides a whole row and each block
/// moves the one array by a single element — `line_bytes / 8` blocks to a
/// line. `pinned` adds a vector every block reads in full, which does not
/// move.
fn column_walk(nb: i64, m: i64, pinned: bool) -> Program {
    let (declare, read) = if pinned {
        ("array X[M];", " + X[i]")
    } else {
        ("", "")
    };
    parse_program(&format!(
        "program column_walk {{ param NB = {nb}; param M = {m};
           array A[M][NB]; {declare}
           for j in 0..NB {{
             for i in 0..M {{ A[i][j] = A[i][j] * 0.5{read}; }}
           }} }}"
    ))
    .expect("column walk parses")
}

#[test]
fn whole_line_moves_of_a_lone_array_form_one_class_per_line_offset() {
    // 64 B lines: eight doubles to a line, so blocks j and j + 8 touch the
    // same line offsets one line further on, in the next set at each level.
    // Per-array residues modulo the set period (1 KiB tiny, 32 KiB Xeon)
    // would keep all 64 blocks apart.
    for machine in [
        MachineConfig::tiny_for_tests(),
        MachineConfig::xeon_e5_2680v3(),
    ] {
        for (m, pinned, classes) in [(48, false, 8), (48, true, 64), (300, false, 8)] {
            let program = column_walk(64, m, pinned);
            let label = format!("M = {m}, pinned = {pinned}");
            let compiled = CompiledProgram::lower(&program).unwrap();
            let plan = ShardPlan::for_program(&compiled).unwrap();
            let stats = simulate_cache_sharded_with_plan(&compiled, &plan, &machine, 2).unwrap();
            assert_eq!((stats.shards(), stats.classes()), (64, classes), "{label}");
            let oracle = simulate_cache_sharded_reference(&compiled, &plan, &machine).unwrap();
            assert_counters_match(&label, &stats, &oracle);
            let alone = probes_alone(&compiled, &plan, &machine);
            assert_eq!(stats.probes(), alone, "{label}: probes");
        }
    }
}

#[test]
fn stationary_time_steps_form_one_class_and_gemm_rows_one_each() {
    let machine = MachineConfig::tiny_for_tests();
    // `stencil_5tap`-shaped: every time step sweeps the same two arrays.
    let stencil = parse_program(
        "program stencil { param N = 500; param T = 7;
           array A[(N + 4)]; array B[(N + 4)];
           for t in 0..T { for j in 0..N {
             B[(j + 2)] = (A[j] + A[(j + 1)] + A[(j + 2)] + A[(j + 3)] + A[(j + 4)]) * 0.2;
           } } }",
    )
    .unwrap();
    let (stats, oracle) = canonical_and_oracle(&stencil, &machine);
    assert_eq!((stats.shards(), stats.classes()), (7, 1));
    assert_counters_match("stencil", &stats, &oracle);

    // `gemm_ijk`: rows of C and A move by 37 and 41 doubles per trip, which
    // never line up modulo the set period within 10 trips.
    let gemm = parse_program(
        "program gemm_ijk { param NI = 10; param NJ = 37; param NK = 41;
           array C[NI][NJ]; array A[NI][NK]; array B[NK][NJ];
           for i in 0..NI { for j in 0..NJ { for k in 0..NK {
             C[i][j] = C[i][j] + A[i][k] * B[k][j];
           } } } }",
    )
    .unwrap();
    let (stats, oracle) = canonical_and_oracle(&gemm, &machine);
    assert_eq!((stats.shards(), stats.classes()), (10, 10));
    assert_counters_match("gemm_ijk", &stats, &oracle);
}

#[test]
fn single_covering_shards_degenerate_to_the_monolithic_simulation() {
    let machine = MachineConfig::tiny_for_tests();
    for (nb, n, shape) in [(1i64, 16i64, 0u8), (7, 12, 1), (4, 24, 4)] {
        let program = blocked_program(nb, n, shape);
        let compiled = CompiledProgram::lower(&program).unwrap();
        let plan = ShardPlan::single(&compiled).unwrap();
        assert_eq!(plan.len(), 1);
        let sharded = simulate_cache_sharded_with_plan(&compiled, &plan, &machine, 4).unwrap();

        // One covering shard is the monolithic run-compressed simulation —
        // including probes, the pipelines are identical.
        let monolithic = simulate_cache(&program, &machine).unwrap();
        assert_eq!(sharded.accesses(), monolithic.accesses());
        assert_eq!(sharded.probes(), monolithic.probes());
        assert_eq!(sharded.l1(), monolithic.l1());
        assert_eq!(sharded.l2(), monolithic.l2());

        // And therefore bit-identical (minus probes) to the naive
        // reference, closing the loop with cache_differential.
        let base = simulate_cache_reference(&program, &machine).unwrap();
        assert_eq!(sharded.accesses(), base.accesses());
        assert_eq!(sharded.l1(), base.l1());
        assert_eq!(sharded.l2(), base.l2());
    }
}

#[test]
fn zero_trip_block_loops_shard_to_an_empty_plan_with_zero_counters() {
    let program = parse_program(
        "program shardzero { param NB = 4; param N = 8; param LO = 3; param HI = 3;
           array A[NB * N];
           for b in LO..HI { for i in 0..N { A[b * N + i] = 1.0; } } }",
    )
    .unwrap();
    let machine = MachineConfig::tiny_for_tests();
    let compiled = CompiledProgram::lower(&program).unwrap();
    let plan = ShardPlan::for_program(&compiled).unwrap();
    assert!(plan.is_empty(), "a zero-trip block loop has no shards");
    for workers in [0usize, 1, 8] {
        let stats = simulate_cache_sharded(&program, &machine, workers).unwrap();
        assert_eq!(stats.accesses(), 0);
        assert_eq!(stats.l1(), machine::CacheStats::default());
        assert_eq!(stats.l2(), machine::CacheStats::default());
    }
}

#[test]
fn run_group_fallback_is_worker_invariant_and_matches_the_oracle() {
    // Two top-level nests: no single block loop, so the plan falls back to
    // contiguous run-group windows.
    let program = parse_program(
        "program shardfallback { param N = 24;
           array A[N][N]; array B[N][N];
           for i in 0..N { for j in 0..N { A[i][j] = B[j][i] + 1.0; } }
           for i in 0..N { for j in 0..N { B[i][j] = A[i][j] * 0.5; } } }",
    )
    .unwrap();
    let machine = MachineConfig::tiny_for_tests();
    let compiled = CompiledProgram::lower(&program).unwrap();
    let plan = ShardPlan::for_program(&compiled).unwrap();
    assert_eq!(plan.granularity(), ShardGranularity::RunGroups);
    assert!(plan.len() > 1, "multi-nest programs split into windows");

    let baseline = simulate_cache_sharded_with_plan(&compiled, &plan, &machine, 1).unwrap();
    for workers in [3usize, 8] {
        let threaded =
            simulate_cache_sharded_with_plan(&compiled, &plan, &machine, workers).unwrap();
        assert_eq!(threaded, baseline, "workers = {workers}");
    }
    let oracle = simulate_cache_sharded_reference(&compiled, &plan, &machine).unwrap();
    assert_counters_match("run-group fallback", &baseline, &oracle);
}
