//! Random generation of alternative benchmark variants.
//!
//! The paper generates the B variants "randomly … based on different
//! permutations and compositions" (§4). The hand-written B variants in
//! [`crate::kernels`] are fixed instances of that process; this module
//! provides the generator itself, used by property tests to produce many
//! additional semantically equivalent variants.

use dependence::{analyze, is_permutation_legal};
use loop_ir::expr::Var;
use loop_ir::nest::Node;
use loop_ir::program::Program;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use transforms::{distribute_all, interchange, perfect_chain};

/// Produces a random, semantically equivalent variant of a program by
/// applying, per top-level nest, a random *legal* permutation of its
/// perfectly nested loops and, with some probability, maximal distribution of
/// its body.
///
/// The same seed always produces the same variant.
pub fn random_b_variant(program: &Program, seed: u64) -> Program {
    let mut rng = StdRng::seed_from_u64(seed);
    let graph = analyze(program);
    let mut out = program.clone();
    out.body = program
        .body
        .iter()
        .flat_map(|node| match node {
            Node::Loop(nest) => {
                // Optionally distribute the body first (a different
                // composition of the same computations).
                let candidates: Vec<loop_ir::nest::Loop> = if nest.body.len() > 1
                    && rng.gen_bool(0.5)
                    && dependence::sccs_of_body(&graph, &nest.body).len() == nest.body.len()
                {
                    distribute_all(nest.clone())
                } else {
                    vec![nest.clone()]
                };
                candidates
                    .into_iter()
                    .map(|candidate| {
                        let chain: Vec<Var> =
                            perfect_chain(&candidate).map(|l| l.iter.clone()).collect();
                        if chain.len() < 2 {
                            return Node::Loop(candidate);
                        }
                        // Try a few random permutations and keep the first
                        // legal one.
                        for _ in 0..8 {
                            let mut order = chain.clone();
                            order.shuffle(&mut rng);
                            if is_permutation_legal(&graph, &candidate, &order) {
                                if let Ok(permuted) = interchange(&candidate, &order) {
                                    return Node::Loop(permuted);
                                }
                            }
                        }
                        Node::Loop(candidate)
                    })
                    .collect::<Vec<_>>()
            }
            other => vec![other.clone()],
        })
        .collect();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sizes::Dataset;
    use crate::suite::all_benchmarks;
    use machine::interp::run_seeded;

    #[test]
    fn random_variants_are_semantically_equivalent() {
        for b in all_benchmarks().into_iter().take(6) {
            let a = (b.a)(Dataset::Mini);
            let variant = random_b_variant(&a, 42);
            assert!(variant.validate().is_ok(), "{} variant validates", b.name);
            let da = run_seeded(&a).unwrap();
            let dv = run_seeded(&variant).unwrap();
            for array in b.outputs {
                let diff = da.max_abs_diff(&dv, array).unwrap();
                assert!(diff < 1e-9, "{}::{array} differs by {diff}", b.name);
            }
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = (all_benchmarks()[0].a)(Dataset::Mini);
        assert_eq!(random_b_variant(&a, 7), random_b_variant(&a, 7));
    }

    #[test]
    fn different_seeds_can_give_different_structures() {
        let gemm = crate::kernels::blas::gemm_a(Dataset::Mini);
        let variants: Vec<Program> = (0..10).map(|s| random_b_variant(&gemm, s)).collect();
        let reference = &variants[0];
        assert!(
            variants.iter().any(|v| v != reference),
            "ten seeds should produce at least two distinct structures"
        );
    }
}
