//! Stride cost functions for loop orders (§2.2).
//!
//! The paper defines a generic criterion `stride(loop)` mapping the
//! subsequent memory accesses of a loop nest to a real value and proposes the
//! *sum of all distances between two subsequent accesses to all arrays over
//! all computations* as a suitable instance, with the *number of out-of-order
//! accesses* as the fallback when array extents are not statically known.
//! Both are implemented here.

use std::collections::BTreeMap;

use loop_ir::expr::Var;
use loop_ir::nest::Loop;
use loop_ir::program::Program;

/// Weight ratio between adjacent loop levels in [`sum_of_strides`]: a stride
/// along the innermost loop is traversed this many times more often than the
/// same stride one level further out (a coarse stand-in for the trip count,
/// which keeps the cost comparable across nests with symbolic extents).
const LEVEL_WEIGHT: f64 = 8.0;

/// A stride cost value. Lower is better; the canonical permutation is the
/// legal permutation with the minimal cost.
pub type StrideCost = f64;

/// Computes the sum-of-strides cost of executing `nest` with its loops in
/// the order `order` (outermost first).
///
/// For every memory access of every computation in the nest, the linearized
/// row-major offset is expressed as an affine function of the loop iterators;
/// the absolute coefficient of an iterator is the distance (in elements)
/// between the accesses of two subsequent iterations of that loop. Distances
/// are weighted by how frequently the corresponding loop advances
/// (innermost loops advance most often), so the cost rewards placing
/// small-stride iterators innermost.
///
/// Accesses whose subscripts are not affine, or arrays whose extents cannot
/// be evaluated, contribute a large penalty rather than failing, so the cost
/// is total over all nests.
pub fn sum_of_strides(program: &Program, nest: &Loop, order: &[Var]) -> StrideCost {
    NestStrides::of(program, nest, order).cost(order)
}

/// The strides of every access of a nest along a fixed set of iterators:
/// what [`sum_of_strides`] and the permutation search's per-iterator
/// weights read off the linearized offsets, kept so that many loop orders can be priced without
/// linearizing again.
pub(crate) struct NestStrides<'a> {
    iters: &'a [Var],
    /// Per access (computations in order, accesses in order) whether it can
    /// be analyzed.
    analyzable: Vec<bool>,
    /// Per analyzable access, in order, the stride along each of `iters`.
    strides: Vec<f64>,
}

impl<'a> NestStrides<'a> {
    /// Linearizes every access of `nest` once.
    pub(crate) fn of(program: &Program, nest: &Loop, iters: &'a [Var]) -> Self {
        let mut out = NestStrides {
            iters,
            analyzable: Vec::new(),
            strides: Vec::new(),
        };
        nest.for_each_computation(&mut |comp| {
            comp.for_each_access(|access| {
                let offset = program
                    .array(&access.array_ref.array)
                    .ok()
                    .and_then(|array| access.array_ref.linear_offset(array, &program.params));
                out.analyzable.push(offset.is_some());
                if let Some(offset) = offset {
                    out.strides.extend(
                        iters
                            .iter()
                            .map(|iter| offset.coefficient(iter).unsigned_abs() as f64),
                    );
                }
            })
        });
        out
    }

    /// [`sum_of_strides`] of the nest with its loops in `order`, a selection
    /// of the iterators the strides were taken along.
    pub(crate) fn cost(&self, order: &[Var]) -> StrideCost {
        let column = |iter: &Var| {
            self.iters
                .iter()
                .position(|known| known == iter)
                .expect("orders permute the iterators the strides were taken along")
        };
        let depth = order.len().max(1);
        let width = self.iters.len();
        let mut row = 0;
        let mut cost = 0.0;
        for &analyzable in &self.analyzable {
            if !analyzable {
                cost += penalty(depth);
                continue;
            }
            let strides = &self.strides[row * width..][..width];
            row += 1;
            for (position, iter) in order.iter().enumerate() {
                // position 0 = outermost (lowest weight), innermost loops
                // advance most often and dominate the cost.
                cost += strides[column(iter)] * LEVEL_WEIGHT.powi(position as i32);
            }
        }
        cost
    }

    /// Per iterator, the total stride over the analyzable accesses.
    pub(crate) fn weights(&self) -> Vec<f64> {
        let width = self.iters.len();
        let mut weights = vec![0.0; width];
        for (k, stride) in self.strides.iter().enumerate() {
            weights[k % width] += stride;
        }
        weights
    }
}

fn penalty(depth: usize) -> f64 {
    // A non-analyzable access is treated as a full cache-line miss per
    // iteration at every level.
    64.0 * LEVEL_WEIGHT.powi(depth as i32 - 1) * depth as f64
}

/// Counts out-of-order accesses for the given loop order: for every access,
/// every pair of subscript dimensions whose iterators appear in the opposite
/// relative order in `order` compared to the array's dimension order counts
/// as one out-of-order access pair. This is the paper's alternative criterion
/// for when array extents are unknown.
pub fn out_of_order_cost(nest: &Loop, order: &[Var]) -> f64 {
    let position: BTreeMap<&Var, usize> = order.iter().enumerate().map(|(i, v)| (v, i)).collect();
    let mut count = 0usize;
    nest.for_each_computation(&mut |comp| {
        comp.for_each_access(|access| {
            // For each subscript dimension, find the deepest loop iterator it
            // uses (the one that changes it most frequently).
            let dim_positions: Vec<Option<usize>> = access
                .array_ref
                .indices
                .iter()
                .map(|idx| {
                    let mut deepest = None;
                    idx.for_each_var(&mut |v| deepest = deepest.max(position.get(v).copied()));
                    deepest
                })
                .collect();
            for a in 0..dim_positions.len() {
                for b in (a + 1)..dim_positions.len() {
                    if let (Some(pa), Some(pb)) = (dim_positions[a], dim_positions[b]) {
                        // Dimension `a` is outer in memory (larger stride);
                        // its iterator should be at a shallower loop position
                        // than dimension `b`'s iterator.
                        if pa > pb {
                            count += 1;
                        }
                    }
                }
            }
        })
    });
    count as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use loop_ir::prelude::*;

    fn gemm_program() -> Program {
        let update = Computation::reduction(
            "S1",
            ArrayRef::new("C", vec![var("i"), var("j")]),
            BinOp::Add,
            load("A", vec![var("i"), var("k")]) * load("B", vec![var("k"), var("j")]),
        );
        Program::builder("gemm")
            .param("NI", 100)
            .param("NJ", 100)
            .param("NK", 100)
            .array("A", &["NI", "NK"])
            .array("B", &["NK", "NJ"])
            .array("C", &["NI", "NJ"])
            .node(for_loop(
                "i",
                cst(0),
                var("NI"),
                vec![for_loop(
                    "j",
                    cst(0),
                    var("NJ"),
                    vec![for_loop(
                        "k",
                        cst(0),
                        var("NK"),
                        vec![Node::Computation(update)],
                    )],
                )],
            ))
            .build()
            .unwrap()
    }

    fn order(names: &[&str]) -> Vec<Var> {
        names.iter().map(|n| Var::new(*n)).collect()
    }

    #[test]
    fn gemm_ikj_beats_ijk_and_kji() {
        let p = gemm_program();
        let nest = p.loop_nests()[0];
        let ikj = sum_of_strides(&p, nest, &order(&["i", "k", "j"]));
        let ijk = sum_of_strides(&p, nest, &order(&["i", "j", "k"]));
        let kji = sum_of_strides(&p, nest, &order(&["k", "j", "i"]));
        assert!(ikj < ijk, "ikj={ikj} should beat ijk={ijk}");
        assert!(ikj < kji, "ikj={ikj} should beat kji={kji}");
    }

    #[test]
    fn gemm_all_orders_ranked_sensibly() {
        // The two orders with unit-stride innermost accesses (ikj, kij) must
        // rank above the two orders with column-major innermost accesses
        // (jki, kji).
        let p = gemm_program();
        let nest = p.loop_nests()[0];
        let cost = |names: &[&str]| sum_of_strides(&p, nest, &order(names));
        let best = cost(&["i", "k", "j"]).min(cost(&["k", "i", "j"]));
        let worst = cost(&["j", "k", "i"]).min(cost(&["k", "j", "i"]));
        assert!(best < worst);
    }

    #[test]
    fn transposed_copy_prefers_matching_order() {
        // B[i][j] = A[i][j] prefers (i, j); D[j][i] = C[j][i] prefers (j, i)
        // when loops are named (i, j) over those subscripts.
        let s = Computation::assign(
            "S1",
            ArrayRef::new("D", vec![var("j"), var("i")]),
            load("C", vec![var("j"), var("i")]),
        );
        let p = Program::builder("copy_t")
            .param("N", 64)
            .param("M", 64)
            .array("C", &["M", "N"])
            .array("D", &["M", "N"])
            .node(for_loop(
                "i",
                cst(0),
                var("N"),
                vec![for_loop("j", cst(0), var("M"), vec![Node::Computation(s)])],
            ))
            .build()
            .unwrap();
        let nest = p.loop_nests()[0];
        let ij = sum_of_strides(&p, nest, &order(&["i", "j"]));
        let ji = sum_of_strides(&p, nest, &order(&["j", "i"]));
        assert!(ji < ij);
    }

    #[test]
    fn out_of_order_cost_detects_transposed_access() {
        let s = Computation::assign(
            "S1",
            ArrayRef::new("D", vec![var("j"), var("i")]),
            load("C", vec![var("j"), var("i")]),
        );
        let p = Program::builder("copy_t")
            .param("N", 8)
            .param("M", 8)
            .array("C", &["M", "N"])
            .array("D", &["M", "N"])
            .node(for_loop(
                "i",
                cst(0),
                var("N"),
                vec![for_loop("j", cst(0), var("M"), vec![Node::Computation(s)])],
            ))
            .build()
            .unwrap();
        let nest = p.loop_nests()[0];
        assert_eq!(out_of_order_cost(nest, &order(&["i", "j"])), 2.0);
        assert_eq!(out_of_order_cost(nest, &order(&["j", "i"])), 0.0);
    }

    #[test]
    fn out_of_order_cost_for_gemm() {
        let p = gemm_program();
        let nest = p.loop_nests()[0];
        // (i, k, j): A[i][k] in order, B[k][j] in order, C[i][j] in order
        // (reads + reduction read + write of C count separately).
        assert_eq!(out_of_order_cost(nest, &order(&["i", "k", "j"])), 0.0);
        // (j, k, i): every 2-D access is reversed.
        assert!(out_of_order_cost(nest, &order(&["j", "k", "i"])) >= 4.0);
    }

    #[test]
    fn iterator_weights_reflect_linearized_strides() {
        let p = gemm_program();
        let nest = p.loop_nests()[0];
        // A one-loop order weighs its iterator's strides by 1, so the cost
        // is the iterator's total stride: i appears with stride 100 in A
        // and twice (read+write) with stride 100 in C; j with stride 1 in B
        // and C (x2 for C), k with stride 1 in A and 100 in B.
        let weight = |iter: &str| sum_of_strides(&p, nest, &order(&[iter]));
        assert_eq!(weight("i"), 300.0);
        assert_eq!(weight("j"), 3.0);
        assert_eq!(weight("k"), 101.0);
    }

    #[test]
    fn temporal_reuse_is_free() {
        // s[0] += A[i]: the write target has stride 0 along i.
        let s = Computation::reduction(
            "S1",
            ArrayRef::new("s", vec![cst(0)]),
            BinOp::Add,
            load("A", vec![var("i")]),
        );
        let p = Program::builder("reduce")
            .param("N", 64)
            .param("ONE", 1)
            .array("A", &["N"])
            .array("s", &["ONE"])
            .node(for_loop("i", cst(0), var("N"), vec![Node::Computation(s)]))
            .build()
            .unwrap();
        let nest = p.loop_nests()[0];
        let cost = sum_of_strides(&p, nest, &order(&["i"]));
        // Only the A[i] load contributes stride 1; the two accesses to s are
        // free.
        assert!((cost - 1.0).abs() < 1e-9);
    }
}
