//! Differential coverage of the compiled execution engine (`machine::exec`).
//!
//! Every workload of the reproduction — the A, B and Python variants of all
//! 15 PolyBench benchmarks plus every CLOUDSC proxy — runs through the
//! retained tree-walking interpreter (`machine::interp::reference`) and the
//! compiled engine, asserting *bit-identical* array state (not a tolerance:
//! the compiled engine evaluates the same floating-point operations in the
//! same order). Property tests then drive the lowering through its edge
//! cases: zero-trip loops, negative access strides, strided domains and
//! scalar-only (loop-free) nests.

use machine::exec::CompiledProgram;
use machine::interp::{reference, ProgramData};
use machine::{Interpreter, MachineError};
use polybench::cloudsc::{
    erosion_optimized, erosion_original, erosion_single_level, full_model, CloudscSizes,
    CloudscVariant,
};
use polybench::{all_benchmarks, Dataset};
use proptest::{prop_assert, prop_assert_eq, proptest, ProptestConfig, Strategy};

use loop_ir::program::Program;

/// Runs `program` through both interpreters and asserts bit-identical data
/// and statement counts.
fn assert_differential(program: &Program) {
    let mut slow_data = ProgramData::seeded(program).expect("storage allocates");
    let mut slow = reference::Interpreter::new();
    slow.run(program, &mut slow_data)
        .unwrap_or_else(|e| panic!("{}: reference run failed: {e}", program.name));

    let mut fast_data = ProgramData::seeded(program).expect("storage allocates");
    let mut fast = Interpreter::new();
    fast.run(program, &mut fast_data)
        .unwrap_or_else(|e| panic!("{}: compiled run failed: {e}", program.name));

    assert_eq!(
        slow.executed_statements, fast.executed_statements,
        "{}: statement counts diverge",
        program.name
    );
    assert_eq!(
        slow_data, fast_data,
        "{}: array state diverges between reference and compiled execution",
        program.name
    );
}

#[test]
fn polybench_suite_is_bit_identical_under_the_compiled_engine() {
    for b in all_benchmarks() {
        assert_differential(&(b.a)(Dataset::Mini));
        assert_differential(&(b.b)(Dataset::Mini));
        let (py, _ops) = (b.py)(Dataset::Mini);
        assert_differential(&py);
    }
}

#[test]
fn cloudsc_proxies_are_bit_identical_under_the_compiled_engine() {
    let sizes = CloudscSizes::mini();
    assert_differential(&erosion_original(sizes));
    assert_differential(&erosion_optimized(sizes));
    assert_differential(&erosion_single_level(sizes, false));
    assert_differential(&erosion_single_level(sizes, true));
    for variant in [
        CloudscVariant::Fortran,
        CloudscVariant::C,
        CloudscVariant::Dace,
    ] {
        assert_differential(&full_model(variant, sizes));
    }
}

#[test]
fn normalized_workloads_are_bit_identical_too() {
    // The scheduler executes *normalized* programs; cover that shape as well.
    for program in [
        full_model(CloudscVariant::Dace, CloudscSizes::mini()),
        (all_benchmarks()[0].a)(Dataset::Mini),
    ] {
        let normalized = normalize::Normalizer::new()
            .run(&program)
            .expect("normalizes")
            .program;
        assert_differential(&normalized);
    }
}

#[test]
fn scalar_only_nests_execute_without_loops() {
    // Top-level computations with no enclosing loop: the "scalar-only nest"
    // lowering edge case.
    use loop_ir::nest::{Computation, Node};
    use loop_ir::prelude::*;

    let init = Computation::assign("S0", ArrayRef::new("acc", vec![cst(0)]), fconst(3.5));
    let update = Computation::reduction(
        "S1",
        ArrayRef::new("acc", vec![cst(0)]),
        BinOp::Add,
        load("acc", vec![cst(1)]) * fconst(2.0),
    );
    let p = Program::builder("scalar_only")
        .param("ONE", 2)
        .array("acc", &["ONE"])
        .node(Node::Computation(init))
        .node(Node::Computation(update))
        .build()
        .unwrap();
    assert_differential(&p);
}

#[test]
fn select_guarded_boundary_accesses_stay_valid() {
    // The boundary-condition idiom: `B[i] = i >= 1 ? A[i-1] : 0.0`. The
    // untaken branch at i = 0 indexes A[-1]; the reference interpreter never
    // evaluates it, and the compiled engine must not reject the program by
    // eagerly bounds-checking it either.
    use loop_ir::nest::{Computation, Node};
    use loop_ir::prelude::*;

    let guarded = Computation::assign(
        "S0",
        ArrayRef::new("B", vec![var("i")]),
        ScalarExpr::select(
            ScalarExpr::Index(var("i")),
            CmpOp::Ge,
            fconst(1.0),
            load("A", vec![var("i") - cst(1)]),
            fconst(0.0),
        ),
    );
    let p = Program::builder("boundary")
        .param("N", 8)
        .array("A", &["N"])
        .array("B", &["N"])
        .node(for_loop(
            "i",
            cst(0),
            var("N"),
            vec![Node::Computation(guarded)],
        ))
        .build()
        .unwrap();
    assert_differential(&p);
}

#[test]
fn compiled_engine_reports_oob_like_the_reference() {
    use loop_ir::parser::parse_program;
    let p = parse_program(
        "program oob { param N = 5; array A[N];
           for i in 0..N { A[i + 2] = 1.0; } }",
    )
    .unwrap();
    let mut data = ProgramData::zeroed(&p).unwrap();
    let slow = reference::Interpreter::new()
        .run(&p, &mut data)
        .unwrap_err();
    let mut data = ProgramData::zeroed(&p).unwrap();
    let fast = Interpreter::new().run(&p, &mut data).unwrap_err();
    assert!(matches!(slow, MachineError::OutOfBounds { .. }));
    assert!(matches!(fast, MachineError::OutOfBounds { .. }));
}

#[test]
fn overflowing_bounds_fail_like_the_reference() {
    use loop_ir::parser::parse_program;
    // The inner bound leaves `i64` at `i = 2`: through the affine arm
    // (`i * 2^62 - (2^63 - 1)`) and through a general product (`i * i * 2^61`).
    for bound in [
        "i * 4611686018427387904 - 9223372036854775807",
        "i * i * 2305843009213693952",
    ] {
        let p = parse_program(&format!(
            "program p {{ param N = 3; array A[N];
               for i in 2..N {{ for j in 0..({bound}) {{ A[0] = 1.0; }} }} }}"
        ))
        .unwrap();
        let mut data = ProgramData::zeroed(&p).unwrap();
        let slow = reference::Interpreter::new().run(&p, &mut data);
        assert!(
            matches!(slow, Err(MachineError::UnboundVariable(_))),
            "{bound}: {slow:?}"
        );
        let mut data = ProgramData::zeroed(&p).unwrap();
        let fast = CompiledProgram::lower(&p).unwrap().execute(&mut data);
        assert!(
            matches!(fast, Err(MachineError::UnboundVariable(_))),
            "{bound}: {fast:?}"
        );
    }
    // Subscripts that leave `i64`: at the only iteration, as a store and
    // as a load, and at `i = 2` after `i = 1` has left the array. There the
    // executors fault out of bounds first; the trace walkers check no
    // bounds and stream up to the overflow.
    let max = i64::MAX;
    for body in [
        format!("for i in 2..N {{ A[(i * {max} + 3)] = 1.0; }}"),
        format!("for i in 2..N {{ B[0] = A[(i * {max} + 3)]; }}"),
        format!("for i in 0..N {{ A[(i * {max})] = 1.0; }}"),
    ] {
        let p = parse_program(&format!(
            "program p {{ param N = 3; array A[N]; array B[N]; {body} }}"
        ))
        .unwrap();
        let compiled = CompiledProgram::lower(&p).unwrap();
        let mut data = ProgramData::zeroed(&p).unwrap();
        let slow = reference::Interpreter::new()
            .run(&p, &mut data)
            .unwrap_err();
        let mut data = ProgramData::zeroed(&p).unwrap();
        let fast = compiled.execute(&mut data).unwrap_err();
        assert_eq!(
            std::mem::discriminant(&slow),
            std::mem::discriminant(&fast),
            "{body}: execute {slow:?} vs {fast:?}"
        );
        let mut slow_trace = Vec::new();
        let slow = machine::trace::walk_accesses_symbolic(&p, |e| slow_trace.push(e));
        let mut fast_trace = Vec::new();
        let fast = compiled.stream(&mut CollectSink(&mut fast_trace));
        assert!(
            matches!(slow, Err(MachineError::UnboundVariable(_))),
            "{body}: {slow:?}"
        );
        assert!(
            matches!(fast, Err(MachineError::UnboundVariable(_))),
            "{body}: {fast:?}"
        );
        assert_eq!(fast_trace, slow_trace, "{body}: streamed before the fault");
    }
}

/// `upper - lower + step - 1` leaves `i64` on both domains, and the second
/// iterate of the upper one lies past `i64::MAX`. Each domain has exactly
/// one iteration, and every executor and trace walker must run it and stop.
#[test]
fn trip_counts_at_the_ends_of_i64_do_not_overflow() {
    use loop_ir::parser::parse_program;
    let max = i64::MAX;
    for (lower, upper) in [(-max, -max + 7), (max - 7, max)] {
        let p = parse_program(&format!(
            "program trip {{ param N = 1; array A[N];
               for i in {lower}..{upper} step {max} {{ A[0] = 1.0; }} }}"
        ))
        .unwrap();
        assert_differential(&p);
        let mut data = ProgramData::zeroed(&p).unwrap();
        let mut slow = reference::Interpreter::new();
        slow.run(&p, &mut data).unwrap();
        assert_eq!(slow.executed_statements, 1, "{lower}..{upper}");

        let mut streamed = Vec::new();
        let compiled = CompiledProgram::lower(&p).unwrap();
        compiled.stream(&mut CollectSink(&mut streamed)).unwrap();
        let mut symbolic = Vec::new();
        machine::trace::walk_accesses_symbolic(&p, |e| symbolic.push(e)).unwrap();
        assert_eq!(streamed.len(), 1, "{lower}..{upper}: {streamed:?}");
        assert_eq!(streamed, symbolic, "{lower}..{upper}");
    }
}

// ---------------------------------------------------------------------------
// Property tests: lowering edge cases
// ---------------------------------------------------------------------------

/// Builds a two-loop program whose inner bounds, steps and subscript
/// direction are chosen by the strategy inputs. Subscripts stay in bounds by
/// construction; `reverse` flips the inner access to a negative stride
/// (`A[N - 1 - j]`), and `lo >= hi` produces zero-trip domains.
fn edge_case_program(n: i64, lo: i64, hi: i64, step: i64, reverse: bool, strided: bool) -> Program {
    use loop_ir::parser::parse_program;
    let inner_idx = if reverse {
        "N - 1 - j".to_string()
    } else {
        "j".to_string()
    };
    let outer_step = if strided { 2 } else { 1 };
    parse_program(&format!(
        "program edge {{ param N = {n}; param LO = {lo}; param HI = {hi};
           array A[N]; array B[N]; array C[N][N];
           for i in 0..N step {outer_step} {{
             B[i] = A[i] * 0.5;
             for j in LO..HI step {step} {{
               C[i][j] += A[{inner_idx}] + 1.0;
             }}
           }} }}"
    ))
    .expect("edge-case program parses")
}

fn arbitrary_edge_case() -> impl Strategy<Value = (i64, i64, i64, i64, bool, bool)> {
    (4i64..12, 0i64..12, 0i64..12, 1i64..4).prop_map(|(n, lo, hi, step)| {
        // Clamp the inner domain into the array so subscripts stay legal;
        // lo >= hi (a zero-trip loop) is deliberately kept possible.
        let lo = lo.min(n - 1);
        let hi = hi.min(n);
        let reverse = (n + lo + hi) % 2 == 0;
        let strided = (n + step) % 2 == 0;
        (n, lo, hi, step, reverse, strided)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn lowering_edge_cases_match_the_reference(
        (n, lo, hi, step, reverse, strided) in arbitrary_edge_case()
    ) {
        let program = edge_case_program(n, lo, hi, step, reverse, strided);

        let mut slow_data = ProgramData::seeded(&program).unwrap();
        let mut slow = reference::Interpreter::new();
        slow.run(&program, &mut slow_data).unwrap();

        let compiled = CompiledProgram::lower(&program).unwrap();
        let mut fast_data = ProgramData::seeded(&program).unwrap();
        let executed = compiled.execute(&mut fast_data).unwrap();

        prop_assert_eq!(slow.executed_statements, executed);
        prop_assert_eq!(&slow_data, &fast_data);
        if lo >= hi {
            // Zero-trip inner loop: only the outer statement runs.
            let outer_trips = (n + 1) / if strided { 2 } else { 1 };
            prop_assert!(executed <= outer_trips as u64 + n as u64);
        }

        // The trace side of the same lowering must match the symbolic walk.
        let mut compiled_trace = Vec::new();
        let mut sink = CollectSink(&mut compiled_trace);
        compiled.stream(&mut sink).unwrap();
        let mut symbolic = Vec::new();
        machine::trace::walk_accesses_symbolic(&program, |e| symbolic.push(e)).unwrap();
        prop_assert_eq!(compiled_trace, symbolic);
    }
}

struct CollectSink<'a>(&'a mut Vec<machine::TraceEntry>);

impl machine::AccessSink for CollectSink<'_> {
    fn access(&mut self, entry: machine::TraceEntry) {
        self.0.push(entry);
    }
}
