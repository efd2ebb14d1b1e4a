//! Performance embeddings of loop nests.
//!
//! The transfer-tuning database is keyed by an embedding of the loop nest;
//! the paper uses the performance embeddings of Trümper et al. (ICS'23) and
//! retrieves the most similar nests by Euclidean distance. This module
//! computes a fixed-length feature vector from the normalized loop nest's
//! structure and memory access pattern — the information the original
//! embeddings capture that is available statically.

use loop_ir::nest::{Loop, Node};
use loop_ir::program::Program;

/// Number of features in an embedding.
pub const EMBEDDING_DIM: usize = 12;

/// A fixed-length feature vector describing a loop nest.
#[derive(Debug, Clone, PartialEq)]
pub struct PerformanceEmbedding {
    features: [f64; EMBEDDING_DIM],
}

impl PerformanceEmbedding {
    /// Computes the embedding of a loop nest within its program.
    ///
    /// Features (all log- or ratio-scaled so that Euclidean distance is
    /// meaningful across problem sizes):
    ///
    /// 0. loop depth
    /// 1. log10 of the total iteration count
    /// 2. number of computations
    /// 3. flops per innermost iteration
    /// 4. number of distinct arrays accessed
    /// 5. fraction of accesses with unit stride along the innermost loop
    /// 6. fraction of accesses invariant along the innermost loop
    /// 7. fraction of accesses with large stride along the innermost loop
    /// 8. whether the nest is a reduction (any computation reduces)
    /// 9. whether the nest is perfectly nested
    /// 10. log10 of the data footprint in bytes
    /// 11. arithmetic intensity (flops per byte of footprint)
    pub fn of_nest(program: &Program, nest: &Loop) -> Self {
        let mut features = [0.0; EMBEDDING_DIM];
        let mut depth = 0;
        let mut innermost = None;
        nest.for_each_loop(&mut |l| {
            depth += 1;
            innermost = Some(&l.iter);
        });
        features[0] = depth as f64;

        let mut total_iters = 1.0f64;
        for_each_loop_level_order(nest, &mut |l| {
            let trip = l.trip_count(&program.params).unwrap_or(1).max(1);
            total_iters *= trip as f64;
        });
        // Size features are down-weighted: similarity should be dominated by
        // the structure and access pattern, not the problem size.
        features[1] = 0.5 * total_iters.log10();

        let mut comps = 0usize;
        let mut flops = 0u64;
        let mut reduces = false;
        let mut arrays = std::collections::BTreeSet::new();
        let mut unit = 0.0;
        let mut invariant = 0.0;
        let mut strided = 0.0;
        let mut accesses = 0.0;
        let mut footprint = 0.0;
        nest.for_each_computation(&mut |comp| {
            comps += 1;
            flops += comp.flops();
            reduces |= comp.reduction.is_some();
            comp.for_each_access(|access| {
                accesses += 1.0;
                arrays.insert(&access.array_ref.array);
                let stride = program
                    .array(&access.array_ref.array)
                    .ok()
                    .and_then(|a| access.array_ref.linear_offset(a, &program.params))
                    .map(|off| {
                        innermost
                            .map(|it| off.coefficient(it).unsigned_abs())
                            .unwrap_or(0)
                    });
                match stride {
                    Some(0) => invariant += 1.0,
                    Some(1) => unit += 1.0,
                    Some(_) | None => strided += 1.0,
                }
            })
        });
        features[2] = comps as f64;
        features[3] = flops as f64;
        for &name in &arrays {
            if let Ok(array) = program.array(name) {
                footprint += array.size_bytes(&program.params).unwrap_or(0) as f64;
            }
        }
        features[4] = arrays.len() as f64;
        if accesses > 0.0 {
            features[5] = unit / accesses;
            features[6] = invariant / accesses;
            features[7] = strided / accesses;
        }
        features[8] = f64::from(reduces);
        features[9] = f64::from(nest.is_perfect_nest());
        features[10] = 0.5 * footprint.max(1.0).log10();
        features[11] = if footprint > 0.0 {
            let intensity = flops as f64 * total_iters / comps.max(1) as f64 / footprint;
            (1.0 + intensity).log10()
        } else {
            0.0
        };
        PerformanceEmbedding { features }
    }

    /// Rebuilds an embedding from a slice; `None` unless the slice has
    /// exactly [`EMBEDDING_DIM`] features (a store produced by a build with
    /// a different feature set must not be silently reinterpreted).
    pub fn from_slice(features: &[f64]) -> Option<Self> {
        let features: [f64; EMBEDDING_DIM] = features.try_into().ok()?;
        Some(PerformanceEmbedding { features })
    }

    /// The raw feature vector.
    pub fn features(&self) -> &[f64; EMBEDDING_DIM] {
        &self.features
    }

    /// Euclidean distance between two embeddings (the similarity measure of
    /// the transfer-tuning database).
    pub fn distance(&self, other: &PerformanceEmbedding) -> f64 {
        squared_distance(&self.features, &other.features).sqrt()
    }
}

/// The sum of squared feature differences, added front to back:
/// [`PerformanceEmbedding::distance`] before its square root.
pub(crate) fn squared_distance(a: &[f64; EMBEDDING_DIM], b: &[f64; EMBEDDING_DIM]) -> f64 {
    a.iter().zip(b).map(|(a, b)| (a - b) * (a - b)).sum::<f64>()
}

/// Calls `f` on the loops of `nest` breadth first: level by level, each
/// level left to right — the order the trip-count product has always been
/// taken in, so the `f64` it rounds to does not move.
fn for_each_loop_level_order<'a>(nest: &'a Loop, f: &mut impl FnMut(&'a Loop)) {
    fn at_level<'a>(l: &'a Loop, level: usize, f: &mut impl FnMut(&'a Loop)) -> bool {
        if level == 0 {
            f(l);
            return true;
        }
        let mut reached = false;
        for node in &l.body {
            if let Node::Loop(inner) = node {
                reached |= at_level(inner, level - 1, f);
            }
        }
        reached
    }
    let mut level = 0;
    while at_level(nest, level, f) {
        level += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loop_ir::parser::parse_program;

    fn gemm(n: i64) -> Program {
        parse_program(&format!(
            "program gemm {{ param NI = {n}; param NJ = {n}; param NK = {n};
               array A[NI][NK]; array B[NK][NJ]; array C[NI][NJ];
               for i in 0..NI {{ for k in 0..NK {{ for j in 0..NJ {{
                 C[i][j] += A[i][k] * B[k][j];
               }} }} }} }}"
        ))
        .unwrap()
    }

    fn copy2d(n: i64) -> Program {
        parse_program(&format!(
            "program copy {{ param N = {n}; array A[N][N]; array B[N][N];
               for i in 0..N {{ for j in 0..N {{ B[i][j] = A[i][j]; }} }} }}"
        ))
        .unwrap()
    }

    #[test]
    fn embedding_has_expected_structure() {
        let p = gemm(64);
        let e = PerformanceEmbedding::of_nest(&p, p.loop_nests()[0]);
        let f = e.features();
        assert_eq!(f[0], 3.0); // depth
        assert!((f[1] - 0.5 * (64.0f64.powi(3)).log10()).abs() < 1e-9);
        assert_eq!(f[2], 1.0); // one computation
        assert_eq!(f[4], 3.0); // three arrays
        assert_eq!(f[8], 1.0); // reduction
        assert_eq!(f[9], 1.0); // perfect nest
                               // accesses: A (unit along j? A[i][k] is invariant along j), B unit,
                               // C unit (x2).
        assert!(f[5] > 0.5);
        assert!(f[6] > 0.0);
    }

    #[test]
    fn same_kernel_different_size_is_close() {
        let small = gemm(64);
        let large = gemm(256);
        let copy = copy2d(128);
        let e_small = PerformanceEmbedding::of_nest(&small, small.loop_nests()[0]);
        let e_large = PerformanceEmbedding::of_nest(&large, large.loop_nests()[0]);
        let e_copy = PerformanceEmbedding::of_nest(&copy, copy.loop_nests()[0]);
        assert!(e_small.distance(&e_large) < e_small.distance(&e_copy));
    }

    #[test]
    fn distance_is_a_metric_on_examples() {
        let p = gemm(64);
        let q = copy2d(64);
        let a = PerformanceEmbedding::of_nest(&p, p.loop_nests()[0]);
        let b = PerformanceEmbedding::of_nest(&q, q.loop_nests()[0]);
        assert_eq!(a.distance(&a), 0.0);
        assert!((a.distance(&b) - b.distance(&a)).abs() < 1e-12);
        assert!(a.distance(&b) > 0.0);
    }

    #[test]
    fn stride_fractions_distinguish_transposed_access() {
        let good = copy2d(64);
        let bad = parse_program(
            "program copy_t { param N = 64; array A[N][N]; array B[N][N];
               for i in 0..N { for j in 0..N { B[j][i] = A[j][i]; } } }",
        )
        .unwrap();
        let e_good = PerformanceEmbedding::of_nest(&good, good.loop_nests()[0]);
        let e_bad = PerformanceEmbedding::of_nest(&bad, bad.loop_nests()[0]);
        assert!(e_good.features()[5] > e_bad.features()[5]);
        assert!(e_bad.features()[7] > 0.9);
    }
}
