//! Differential coverage of the run-compressed cache simulation pipeline.
//!
//! [`machine::simulate_cache`] feeds the cache simulator whole lockstep
//! [`machine::StrideRun`] groups (one per compiled innermost loop) and the
//! simulator processes them in line phases; this suite pins its
//! [`machine::CacheStats`] *bit-identical* — not approximately equal — to
//! the one cache oracle, the naive LRU reference simulator driven by the
//! symbolic walker ([`machine::simulate_cache_reference`]). Property tests
//! sweep random affine nests through the edge cases the run compression
//! must not get wrong: zero-trip inner loops, negative strides (reversal
//! subscripts), loop-invariant (zero-stride) accesses, strides larger than
//! a cache line (transposed subscripts) and interleaved multi-access bodies
//! whose lines collide in the tiny test cache's few sets.

use loop_ir::parser::parse_program;
use loop_ir::program::Program;
use machine::{simulate_cache, simulate_cache_reference, MachineConfig};
use polybench::cloudsc::{erosion_optimized, erosion_original, erosion_single_level, CloudscSizes};
use polybench::{all_benchmarks, Dataset};
use proptest::{prop, prop_assert_eq, proptest, ProptestConfig, Strategy};

/// The counters both simulators must agree on: accesses, L1 and L2.
macro_rules! counters {
    ($cache:expr) => {
        ($cache.accesses(), $cache.l1(), $cache.l2())
    };
}

/// Asserts that the run-compressed and the naive-reference simulations of
/// `program` report bit-identical counters.
fn assert_cache_equivalence(program: &Program, machine: &MachineConfig) {
    let fast = simulate_cache(program, machine)
        .unwrap_or_else(|e| panic!("{}: run-compressed simulation failed: {e}", program.name));
    let naive = simulate_cache_reference(program, machine)
        .unwrap_or_else(|e| panic!("{}: reference simulation failed: {e}", program.name));
    assert_eq!(
        counters!(fast),
        counters!(naive),
        "{}: (accesses, L1, L2) diverge from the reference",
        program.name
    );
}

/// A two-deep affine nest whose inner body interleaves accesses drawn from
/// a menu of stride shapes along `j`: unit (`A[i][j]`), negative
/// (`A[i][N - 1 - j]`), loop-invariant (`C[i]`) and super-line
/// (`B[j][i]`, row stride `8·N` bytes > the 64-byte line for `N > 8`).
fn interleaved_program(
    n: i64,
    lo: i64,
    hi: i64,
    step: i64,
    shape: u8,
    second_stmt: bool,
) -> Program {
    let b_subscript = match shape % 3 {
        0 => "i][j",
        1 => "i][N - 1 - j",
        _ => "j][i",
    };
    let c_subscript = if shape.is_multiple_of(2) { "i" } else { "j" };
    let extra = if second_stmt {
        "A[i][j] += D[i][j] * 2.0;"
    } else {
        ""
    };
    parse_program(&format!(
        "program cachediff {{
           param N = {n}; param LO = {lo}; param HI = {hi};
           array A[N][N]; array B[N][N]; array C[N]; array D[N][N];
           for i in 0..N {{
             C[i] = A[i][0] * 0.5;
             for j in LO..HI step {step} {{
               D[i][j] = A[i][j] + B[{b_subscript}] * C[{c_subscript}];
               {extra}
             }}
           }}
         }}"
    ))
    .expect("generated nest parses")
}

fn arbitrary_nest() -> impl Strategy<Value = (i64, i64, i64, i64, u8, bool)> {
    (9i64..28, 0i64..28, 0i64..28, 1i64..4, 0u8..6).prop_map(|(n, lo, hi, step, shape)| {
        // Clamp the inner domain into the arrays so subscripts stay legal;
        // lo >= hi (a zero-trip inner loop) stays deliberately possible.
        let lo = lo.min(n - 1);
        let hi = hi.min(n);
        let second_stmt = (n + lo + hi) % 2 == 0;
        (n, lo, hi, step, shape, second_stmt)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_affine_nests_simulate_bit_identically(
        (n, lo, hi, step, shape, second_stmt) in arbitrary_nest()
    ) {
        let program = interleaved_program(n, lo, hi, step, shape, second_stmt);
        // The tiny machine (1 KiB L1, 4 sets) forces set conflicts and
        // capacity evictions, exercising the conflict fallback of the
        // run-group fast path.
        let machine = MachineConfig::tiny_for_tests();
        let fast = simulate_cache(&program, &machine).unwrap();
        let naive = simulate_cache_reference(&program, &machine).unwrap();
        prop_assert_eq!(counters!(fast), counters!(naive));
    }
}

/// A 1-D multi-tap stencil over `steps` time steps: the staggered same-array
/// taps are the shape the stagger-merged lane path collapses. `taps` are
/// element offsets relative to a 16-element pad (so negative taps stay in
/// bounds); `reversed` walks the domain through reversal subscripts
/// (negative byte stride).
fn stencil_program(n: i64, steps: i64, taps: &[i64], reversed: bool) -> Program {
    let subscript = |tap: i64| {
        if reversed {
            format!("M - {} - j", 17 - tap)
        } else if 16 + tap == 0 {
            "j".to_string()
        } else {
            format!("j + {}", 16 + tap)
        }
    };
    let sum = taps
        .iter()
        .map(|&t| format!("A[{}]", subscript(t)))
        .collect::<Vec<_>>()
        .join(" + ");
    let out = subscript(0);
    parse_program(&format!(
        "program stencil {{
           param N = {n}; param M = {}; param T = {steps};
           array A[M]; array B[M];
           for t in 0..T {{
             for j in 0..N {{
               B[{out}] = ({sum}) * 0.2;
             }}
           }}
         }}",
        n + 33
    ))
    .expect("generated stencil parses")
}

/// Random tap sets for the stagger proptest: 2-5 taps whose offsets mix
/// signs and deliberately include spreads that straddle line boundaries and
/// spreads wider than a 64-byte line (9+ elements), which must *not* merge.
fn arbitrary_stencil() -> impl Strategy<Value = (i64, i64, Vec<i64>, bool)> {
    (
        10i64..40,
        1i64..3,
        2usize..6,
        (-8i64..9, -8i64..9, -8i64..9, -8i64..9, -8i64..9),
        prop::bool::ANY,
    )
        .prop_map(|(n, steps, k, t, reversed)| {
            let menu = [t.0, t.1, t.2, t.3, t.4];
            (n, steps, menu[..k].to_vec(), reversed)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_stagger_stencils_simulate_bit_identically(
        (n, steps, taps, reversed) in arbitrary_stencil()
    ) {
        let program = stencil_program(n, steps, &taps, reversed);
        let machine = MachineConfig::tiny_for_tests();
        let fast = simulate_cache(&program, &machine).unwrap();
        let naive = simulate_cache_reference(&program, &machine).unwrap();
        prop_assert_eq!(counters!(fast), counters!(naive));
    }
}

#[test]
fn directed_stagger_stencils_simulate_bit_identically() {
    let machine = MachineConfig::tiny_for_tests();
    for (n, steps, taps, reversed) in [
        // The classic three-point stencil, forward and reversed.
        (32, 2, vec![-1, 0, 1], false),
        (32, 2, vec![-1, 0, 1], true),
        // Five taps, the widest the merge is expected to pay off on.
        (40, 2, vec![-2, -1, 0, 1, 2], false),
        // Taps straddling a line boundary (8 doubles per 64-byte line).
        (32, 1, vec![-8, -7, 0], false),
        // Taps spread wider than one line: must not merge, must stay exact.
        (32, 1, vec![-8, 0, 8], false),
        (40, 2, vec![-6, -3, 0, 3, 6], true),
        // Duplicate taps (the same subscript twice) and asymmetric spreads.
        (24, 1, vec![0, 0, 1], false),
        (36, 2, vec![-4, 1, 2, 3], false),
    ] {
        assert_cache_equivalence(&stencil_program(n, steps, &taps, reversed), &machine);
    }
    // The paper geometry exercises deeper associativity on the same shapes.
    let xeon = MachineConfig::xeon_e5_2680v3();
    assert_cache_equivalence(&stencil_program(200, 3, &[-2, -1, 0, 1, 2], false), &xeon);
}

#[test]
fn directed_edge_cases_simulate_bit_identically() {
    let machine = MachineConfig::tiny_for_tests();
    // Zero-trip inner loop; pure negative stride; pure super-line stride;
    // all-invariant body; maximal interleaving with a reduction.
    for (n, lo, hi, step, shape, second) in [
        (16, 10, 10, 1, 0, true), // zero-trip inner loop
        (16, 0, 16, 1, 1, false), // negative stride
        (24, 0, 24, 1, 2, true),  // super-line stride (transposed)
        (12, 0, 12, 3, 4, true),  // strided domain, invariant C[i]
        (27, 1, 26, 2, 5, true),  // odd extents, unaligned bases
    ] {
        assert_cache_equivalence(
            &interleaved_program(n, lo, hi, step, shape, second),
            &machine,
        );
    }
}

#[test]
fn workload_suite_simulates_bit_identically() {
    // The real workloads of the reproduction: every PolyBench A variant and
    // the Table 1 CLOUDSC erosion nests, on the paper's machine geometry.
    let machine = MachineConfig::xeon_e5_2680v3();
    for b in all_benchmarks() {
        assert_cache_equivalence(&(b.a)(Dataset::Mini), &machine);
    }
    let sizes = CloudscSizes::mini();
    assert_cache_equivalence(&erosion_original(sizes), &machine);
    assert_cache_equivalence(&erosion_optimized(sizes), &machine);
    // Table 1's own inputs, at the sizes whose counters `reproduce` prints.
    for optimized in [false, true] {
        let nest = erosion_single_level(CloudscSizes::paper(), optimized);
        assert_cache_equivalence(&nest, &machine);
    }
}
