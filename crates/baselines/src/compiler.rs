//! `-O3` compiler baselines: clang and icc.
//!
//! A general-purpose compiler does not restructure loop nests: the loop order
//! stays exactly as written. What `-O3` does contribute is innermost-loop
//! auto-vectorization (clang and icc) and, for icc with `-parallel`,
//! conservative auto-parallelization of outer loops that carry no dependence.

use dependence::{analyze, is_parallel_loop};
use loop_ir::nest::Node;
use loop_ir::program::Program;
use loop_ir::visit::for_each_loop_mut;

/// Minimum trip count for icc's auto-parallelizer to consider a loop worth
/// spawning threads for.
const ICC_MIN_PARALLEL_TRIP: i64 = 64;

/// The clang `-O3` model: vectorize innermost loops whose accesses are unit
/// stride or loop invariant; change nothing else.
pub fn clang_schedule(program: &Program) -> Program {
    let mut out = program.clone();
    let params = out.params.clone();
    let arrays = out.arrays.clone();
    for_each_loop_mut(&mut out.body, &mut |l| {
        let is_innermost = !l.body.iter().any(|n| matches!(n, Node::Loop(_)));
        if !is_innermost || l.body.is_empty() {
            return;
        }
        let contiguous = l.body.iter().all(|n| match n {
            Node::Computation(c) => c
                .try_for_each_access(|access| {
                    arrays
                        .get(&access.array_ref.array)
                        .and_then(|a| access.array_ref.linear_offset(a, &params))
                        .is_some_and(|off| off.coefficient(&l.iter).unsigned_abs() <= 1)
                        .then_some(())
                        .ok_or(())
                })
                .is_ok(),
            _ => false,
        });
        if contiguous {
            l.schedule.vectorize = true;
        }
    });
    out
}

/// The icc `-O3 -parallel` model: clang's vectorization plus
/// auto-parallelization of the outermost loop of each nest when it carries no
/// dependence and has a large enough trip count.
pub fn icc_schedule(program: &Program) -> Program {
    let mut out = clang_schedule(program);
    let graph = analyze(program);
    let params = out.params.clone();
    for node in &mut out.body {
        if let Node::Loop(l) = node {
            let trip = l.trip_count(&params).unwrap_or(0);
            if trip >= ICC_MIN_PARALLEL_TRIP && is_parallel_loop(&graph, &l.iter) {
                l.schedule.parallel = true;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use loop_ir::parser::parse_program;
    use loop_ir::visit::walk_loops;
    use machine::{CostModel, MachineConfig};

    fn gemm(order: &str, n: i64) -> Program {
        let l: Vec<char> = order.chars().collect();
        parse_program(&format!(
            "program gemm {{ param N = {n};
               array A[N][N]; array B[N][N]; array C[N][N];
               for {} in 0..N {{ for {} in 0..N {{ for {} in 0..N {{
                 C[i][j] += A[i][k] * B[k][j];
               }} }} }} }}",
            l[0], l[1], l[2]
        ))
        .unwrap()
    }

    #[test]
    fn clang_vectorizes_contiguous_innermost_loops() {
        let p = gemm("ikj", 128);
        let scheduled = clang_schedule(&p);
        let loops = walk_loops(&scheduled.body);
        let j = loops.iter().find(|l| l.iter.as_str() == "j").unwrap();
        assert!(j.schedule.vectorize);
        // No loop is parallelized and the order is untouched.
        assert!(loops.iter().all(|l| !l.schedule.parallel));
        let order: Vec<String> = scheduled.loop_nests()[0]
            .nested_iterators()
            .iter()
            .map(|v| v.to_string())
            .collect();
        assert_eq!(order, vec!["i", "k", "j"]);
    }

    #[test]
    fn clang_does_not_vectorize_strided_innermost_loops() {
        let p = gemm("jki", 128); // innermost i: column-major accesses
        let scheduled = clang_schedule(&p);
        let loops = walk_loops(&scheduled.body);
        let i = loops.iter().find(|l| l.iter.as_str() == "i").unwrap();
        assert!(!i.schedule.vectorize);
    }

    #[test]
    fn icc_parallelizes_clean_outer_loops() {
        let p = gemm("ikj", 128);
        let scheduled = icc_schedule(&p);
        assert!(scheduled.loop_nests()[0].schedule.parallel);
    }

    #[test]
    fn icc_does_not_parallelize_carried_outer_loops() {
        let p = parse_program(
            "program rec { param N = 1000; array A[N];
               for i in 1..N { A[i] = A[i - 1] + 1.0; } }",
        )
        .unwrap();
        let scheduled = icc_schedule(&p);
        assert!(!scheduled.loop_nests()[0].schedule.parallel);
    }

    #[test]
    fn icc_skips_tiny_loops() {
        let p = parse_program(
            "program tiny { param N = 8; array A[N];
               for i in 0..N { A[i] = 1.0; } }",
        )
        .unwrap();
        let scheduled = icc_schedule(&p);
        assert!(!scheduled.loop_nests()[0].schedule.parallel);
    }

    #[test]
    fn compiler_baselines_are_sensitive_to_loop_order() {
        // This is Figure 1 of the paper: structurally different GEMMs behave
        // very differently under a baseline compiler.
        let model = CostModel::new(MachineConfig::xeon_e5_2680v3(), 1);
        let good = model.estimate(&clang_schedule(&gemm("ikj", 512))).seconds;
        let bad = model.estimate(&clang_schedule(&gemm("jki", 512))).seconds;
        assert!(bad / good > 2.0, "bad order {bad}, good order {good}");
    }
}
