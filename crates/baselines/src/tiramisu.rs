//! A Tiramisu-auto-scheduler-like baseline.
//!
//! The paper runs the Tiramisu auto-scheduler as a standalone search (Monte
//! Carlo tree search guided by its learned cost model) through an adapter
//! that "applies the maximal loop fission criterion and restricts the
//! conversion to perfectly nested parallel loops"; benchmarks it cannot
//! convert are marked `X` in Figure 6, and the top three candidates of the
//! stochastic search are measured and the best one kept.
//!
//! This baseline mirrors that setup: maximal fission, an applicability check
//! (every resulting nest must be perfectly nested and carry a parallel loop),
//! a randomized search over transformation sequences guided by an
//! *approximate* cost model that ignores cache capacity (the learned model's
//! blind spot), and final selection of the best of the top three candidates
//! under the true machine model.

use dependence::{analyze, is_parallel_loop};
use loop_ir::expr::Var;
use loop_ir::nest::{Loop, Node};
use loop_ir::program::Program;
use machine::{CostModel, MachineConfig};
use normalize::MaximalFission;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::fmt;
use transforms::{perfect_chain, Recipe, Transform};

use daisy::search::{apply_recipe_to_program, evaluate_recipe};

/// Why the Tiramisu adapter rejected a program (the `X` marks in Figure 6).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TiramisuError {
    /// A loop nest is not perfectly nested after maximal fission.
    NotPerfectlyNested(String),
    /// A loop nest has no parallel loop at all (fully sequential kernels are
    /// outside the adapter's restriction).
    NoParallelLoop(String),
}

impl fmt::Display for TiramisuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TiramisuError::NotPerfectlyNested(nest) => {
                write!(f, "loop nest `{nest}` is not perfectly nested")
            }
            TiramisuError::NoParallelLoop(nest) => {
                write!(f, "loop nest `{nest}` has no parallel loop")
            }
        }
    }
}

impl std::error::Error for TiramisuError {}

/// A machine whose caches are effectively infinite: the approximate cost
/// model the search is guided by, standing in for the learned model's
/// insensitivity to capacity effects.
fn approximate_machine() -> MachineConfig {
    MachineConfig {
        l1_bytes: 1 << 30,
        l2_bytes: 1 << 30,
        l3_bytes: 1 << 34,
        ..MachineConfig::xeon_e5_2680v3()
    }
}

/// Runs the Tiramisu-like auto-scheduler on a program.
///
/// # Errors
/// Returns a [`TiramisuError`] when the adapter's restrictions reject the
/// program (imperfectly nested or fully sequential loop nests).
pub fn tiramisu_schedule(program: &Program, threads: usize) -> Result<Program, TiramisuError> {
    // The adapter applies maximal loop fission before conversion.
    let (fissioned, _) = MaximalFission::new().run(program.clone());
    let graph = analyze(&fissioned);

    // Applicability: every nest must be perfectly nested and have at least
    // one parallel loop.
    for nest in fissioned.loop_nests() {
        if !nest.is_perfect_nest() {
            return Err(TiramisuError::NotPerfectlyNested(nest.iter.to_string()));
        }
        let has_parallel = nest
            .nested_iterators()
            .iter()
            .any(|iter| is_parallel_loop(&graph, iter));
        if !has_parallel {
            return Err(TiramisuError::NoParallelLoop(nest.iter.to_string()));
        }
    }

    let guide = CostModel::new(approximate_machine(), threads);
    let truth = CostModel::new(MachineConfig::xeon_e5_2680v3(), threads);
    let mut rng = StdRng::seed_from_u64(0x71AA);

    let mut current = fissioned.clone();
    for index in 0..current.body.len() {
        let Node::Loop(nest) = current.body[index].clone() else {
            continue;
        };
        // Candidate generation guided by the approximate model: the search
        // ranks candidates with the flawed model…
        let mut candidates: Vec<Recipe> = proposals(&nest);
        candidates.push(Recipe::identity());
        candidates.shuffle(&mut rng);
        let mut scored: Vec<(f64, Recipe)> = candidates
            .into_iter()
            .filter_map(|r| evaluate_recipe(&current, index, &r, &guide).map(|t| (t, r)))
            .collect();
        scored.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
        // …and the top three candidates are then measured (true model) and
        // the best one applied, as in the paper's experimental setup.
        let best = scored
            .into_iter()
            .take(3)
            .filter_map(|(_, r)| evaluate_recipe(&current, index, &r, &truth).map(|t| (t, r)))
            .min_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
        if let Some(next) =
            best.and_then(|(_, recipe)| apply_recipe_to_program(&current, index, &recipe))
        {
            current = next;
        }
    }
    Ok(current)
}

/// Structural proposals the search draws from: combinations of
/// outer-loop parallelization, innermost vectorization and square tiling.
fn proposals(nest: &Loop) -> Vec<Recipe> {
    let chain: Vec<Var> = perfect_chain(nest).map(|l| l.iter.clone()).collect();
    let outer = chain[0].clone();
    let inner = chain[chain.len() - 1].clone();
    let mut out = vec![
        Recipe::new(vec![Transform::Parallelize {
            iter: outer.clone(),
        }]),
        Recipe::new(vec![Transform::Vectorize {
            iter: inner.clone(),
        }]),
        Recipe::new(vec![
            Transform::Parallelize {
                iter: outer.clone(),
            },
            Transform::Vectorize {
                iter: inner.clone(),
            },
        ]),
    ];
    if chain.len() >= 2 {
        for &tile in &[32i64, 64] {
            let tiles: Vec<(Var, i64)> = chain.iter().cloned().map(|v| (v, tile)).collect();
            out.push(Recipe::new(vec![
                Transform::Tile { tiles },
                Transform::Parallelize {
                    iter: Var::new(format!("{outer}_t")),
                },
                Transform::Vectorize {
                    iter: inner.clone(),
                },
            ]));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use loop_ir::parser::parse_program;

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
    fn proposals_cover_parallel_vector_tile() {
        let p = gemm("ikj", 256);
        let proposals = proposals(p.loop_nests()[0]);
        assert!(proposals.len() >= 4);
        assert!(proposals
            .iter()
            .any(|r| r.steps.iter().any(|s| matches!(s, Transform::Tile { .. }))));
        assert!(proposals.iter().any(|r| r
            .steps
            .iter()
            .any(|s| matches!(s, Transform::Parallelize { .. }))));
    }

    #[test]
    fn schedules_a_perfect_parallel_nest() {
        let p = gemm("ijk", 256);
        let scheduled = tiramisu_schedule(&p, 12).unwrap();
        assert!(scheduled.validate().is_ok());
        let model = CostModel::new(MachineConfig::xeon_e5_2680v3(), 12);
        let before = model.estimate(&crate::compiler::clang_schedule(&p)).seconds;
        let after = model.estimate(&scheduled).seconds;
        assert!(after < before);
    }

    #[test]
    fn fused_statements_are_fissioned_first() {
        let p = parse_program(
            "program fused { param N = 256; scalar beta = 0.5;
               array A[N][N]; array B[N][N]; array C[N][N];
               for i in 0..N { for j in 0..N {
                 C[i][j] = C[i][j] * beta;
                 for k in 0..N { C[i][j] += A[i][k] * B[k][j]; }
               } } }",
        )
        .unwrap();
        // After maximal fission both nests are perfect, so the adapter
        // accepts the program.
        let scheduled = tiramisu_schedule(&p, 4).unwrap();
        assert_eq!(scheduled.loop_nests().len(), 2);
    }

    #[test]
    fn sequential_kernels_are_rejected() {
        // A pure time recurrence has no parallel loop anywhere.
        let p = parse_program(
            "program rec { param N = 1000; array A[N];
               for t in 1..N { A[t] = A[t - 1] * 0.5; } }",
        )
        .unwrap();
        assert_eq!(
            tiramisu_schedule(&p, 4),
            Err(TiramisuError::NoParallelLoop("t".to_string()))
        );
    }

    #[test]
    fn result_depends_on_the_incoming_variant() {
        let model = CostModel::new(MachineConfig::xeon_e5_2680v3(), 12);
        let a = model
            .estimate(&tiramisu_schedule(&gemm("ikj", 512), 12).unwrap())
            .seconds;
        let b = model
            .estimate(&tiramisu_schedule(&gemm("jki", 512), 12).unwrap())
            .seconds;
        // The search never interchanges loops, so the badly-ordered variant
        // stays slower.
        assert!(b >= a);
    }

    #[test]
    fn error_display() {
        let e = TiramisuError::NotPerfectlyNested("i".to_string());
        assert!(e.to_string().contains('i'));
    }
}
