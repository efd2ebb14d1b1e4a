//! BLAS idiom detection.
//!
//! The paper's scheduling database contains, "for each loop nest
//! corresponding to a BLAS-3 kernel, an optimization recipe to perform idiom
//! detection, i.e., replacing the loop nest with the matching BLAS library
//! call" (§4). This module implements the matcher: a normalized, rectangular,
//! perfectly nested loop nest whose single computation has the contraction
//! structure of GEMM / SYRK / SYR2K / GEMV is rewritten into a
//! [`BlasCall`] node.
//!
//! Detection runs on the *normalized* form; the evaluation (§4.3) shows that
//! without normalization the lifting fails on several benchmarks because the
//! loop structure hides the idiom.

use loop_ir::array::ArrayRef;
use loop_ir::expr::{Expr, Var};
use loop_ir::nest::{BlasCall, BlasKind, Computation, Loop};
use loop_ir::program::Program;
use loop_ir::scalar::{BinOp, ScalarExpr};
use transforms::perfect_chain;

/// Attempts to recognize a BLAS kernel in a loop nest.
///
/// Returns the library call that computes the same update, or `None` when
/// the nest does not match any known idiom. Only rectangular (non-triangular)
/// perfect nests with a single reduction computation are considered, so the
/// replacement is always semantics-preserving.
pub fn detect_blas_idiom(program: &Program, nest: &Loop) -> Option<BlasCall> {
    let chain: Vec<&Loop> = perfect_chain(nest).collect();
    // Rectangular bounds only: a triangular SYRK updates half the matrix and
    // must not be replaced by a full-matrix library call.
    let mut triangular = false;
    for l in &chain {
        for bound in [&l.lower, &l.upper] {
            bound.for_each_var(&mut |v| triangular |= chain.iter().any(|c| &c.iter == v));
        }
    }
    if triangular {
        return None;
    }
    let comps = nest.computations();
    if comps.len() != 1 {
        return None;
    }
    let comp = comps[0];
    if comp.reduction != Some(BinOp::Add) {
        return None;
    }
    match chain.len() {
        3 => detect_level3(program, &chain, comp),
        2 => detect_gemv(program, &chain, comp),
        _ => None,
    }
}

/// Extent of a loop as a symbolic expression.
fn extent(l: &Loop) -> Expr {
    (l.upper.clone() - l.lower.clone()).simplify()
}

/// Splits a product expression into its scalar factors (constants and
/// parameters) and its array loads. Returns `None` if the expression is not a
/// pure product.
fn product_factors(expr: &ScalarExpr) -> Option<(ScalarExpr, Vec<ArrayRef>)> {
    let mut scalars: Vec<ScalarExpr> = Vec::new();
    let mut loads: Vec<ArrayRef> = Vec::new();
    collect_product(expr, &mut scalars, &mut loads)?;
    let alpha = scalars
        .into_iter()
        .fold(None::<ScalarExpr>, |acc, s| match acc {
            None => Some(s),
            Some(prev) => Some(prev * s),
        })
        .unwrap_or(ScalarExpr::Const(1.0));
    Some((alpha, loads))
}

fn collect_product(
    expr: &ScalarExpr,
    scalars: &mut Vec<ScalarExpr>,
    loads: &mut Vec<ArrayRef>,
) -> Option<()> {
    match expr {
        ScalarExpr::Binary(BinOp::Mul, a, b) => {
            collect_product(a, scalars, loads)?;
            collect_product(b, scalars, loads)
        }
        ScalarExpr::Load(r) => {
            loads.push(r.clone());
            Some(())
        }
        ScalarExpr::Const(_) | ScalarExpr::Param(_) => {
            scalars.push(expr.clone());
            Some(())
        }
        _ => None,
    }
}

/// The loop iterator a subscript consists of, if it is exactly one variable.
fn subscript_var(e: &Expr) -> Option<Var> {
    match e {
        Expr::Var(v) => Some(v.clone()),
        _ => None,
    }
}

fn loop_by_iter<'a>(chain: &'a [&'a Loop], iter: &Var) -> Option<&'a Loop> {
    chain.iter().find(|l| &l.iter == iter).copied()
}

fn detect_level3(program: &Program, chain: &[&Loop], comp: &Computation) -> Option<BlasCall> {
    // Target must be C[a][b] with a, b plain loop iterators.
    if comp.target.rank() != 2 {
        return None;
    }
    let a = subscript_var(&comp.target.indices[0])?;
    let b = subscript_var(&comp.target.indices[1])?;
    let chain_iters: Vec<Var> = chain.iter().map(|l| l.iter.clone()).collect();
    if !chain_iters.contains(&a) || !chain_iters.contains(&b) || a == b {
        return None;
    }
    let c = chain_iters.iter().find(|v| **v != a && **v != b)?.clone();

    match comp.value.clone() {
        // SYR2K: C[a][b] += alpha*A[a][c]*B[b][c] + alpha*B[a][c]*A[b][c]
        ScalarExpr::Binary(BinOp::Add, lhs, rhs) => {
            let (alpha1, loads1) = product_factors(&lhs)?;
            let (_alpha2, loads2) = product_factors(&rhs)?;
            if loads1.len() != 2 || loads2.len() != 2 {
                return None;
            }
            let pair = |loads: &[ArrayRef]| -> Option<(Var, Var)> {
                let first = &loads[0];
                let second = &loads[1];
                let ok = |r: &ArrayRef, row: &Var| {
                    r.rank() == 2
                        && subscript_var(&r.indices[0]).as_ref() == Some(row)
                        && subscript_var(&r.indices[1]).as_ref() == Some(&c)
                };
                if ok(first, &a) && ok(second, &b) {
                    Some((first.array.clone(), second.array.clone()))
                } else {
                    None
                }
            };
            let (x1, y1) = pair(&loads1)?;
            let (x2, y2) = pair(&loads2)?;
            // The two terms must use the two matrices in swapped roles.
            if x1 == y2 && y1 == x2 && x1 != y1 {
                let n = extent(loop_by_iter(chain, &a)?);
                let k = extent(loop_by_iter(chain, &c)?);
                return Some(BlasCall {
                    kind: BlasKind::Syr2k,
                    output: comp.target.array.clone(),
                    inputs: vec![x1, y1],
                    dims: vec![n, k],
                    alpha: alpha1,
                    beta: ScalarExpr::Const(1.0),
                });
            }
            None
        }
        // GEMM / SYRK: C[a][b] += alpha * X[a][c] * Y[c][b]  (GEMM)
        //              C[a][b] += alpha * X[a][c] * X[b][c]  (SYRK)
        value => {
            let (alpha, loads) = product_factors(&value)?;
            if loads.len() != 2 {
                return None;
            }
            let (first, second) = (&loads[0], &loads[1]);
            if first.rank() != 2 || second.rank() != 2 {
                return None;
            }
            let sub = |r: &ArrayRef, i: usize| subscript_var(&r.indices[i]);
            // Try GEMM in both factor orders.
            for (x, y) in [(first, second), (second, first)] {
                let gemm_shape = sub(x, 0) == Some(a.clone())
                    && sub(x, 1) == Some(c.clone())
                    && sub(y, 0) == Some(c.clone())
                    && sub(y, 1) == Some(b.clone());
                if gemm_shape {
                    let m = extent(loop_by_iter(chain, &a)?);
                    let n = extent(loop_by_iter(chain, &b)?);
                    let k = extent(loop_by_iter(chain, &c)?);
                    return Some(BlasCall {
                        kind: BlasKind::Gemm,
                        output: comp.target.array.clone(),
                        inputs: vec![x.array.clone(), y.array.clone()],
                        dims: vec![m, n, k],
                        alpha,
                        beta: ScalarExpr::Const(1.0),
                    });
                }
            }
            // SYRK: both loads from the same array, rows a and b, column c.
            if first.array == second.array {
                for (x, y) in [(first, second), (second, first)] {
                    let syrk_shape = sub(x, 0) == Some(a.clone())
                        && sub(x, 1) == Some(c.clone())
                        && sub(y, 0) == Some(b.clone())
                        && sub(y, 1) == Some(c.clone());
                    if syrk_shape {
                        let n = extent(loop_by_iter(chain, &a)?);
                        let k = extent(loop_by_iter(chain, &c)?);
                        return Some(BlasCall {
                            kind: BlasKind::Syrk,
                            output: comp.target.array.clone(),
                            inputs: vec![first.array.clone()],
                            dims: vec![n, k],
                            alpha,
                            beta: ScalarExpr::Const(1.0),
                        });
                    }
                }
            }
            let _ = program;
            None
        }
    }
}

fn detect_gemv(program: &Program, chain: &[&Loop], comp: &Computation) -> Option<BlasCall> {
    let _ = program;
    if comp.target.rank() != 1 {
        return None;
    }
    let i = subscript_var(&comp.target.indices[0])?;
    let chain_iters: Vec<Var> = chain.iter().map(|l| l.iter.clone()).collect();
    if !chain_iters.contains(&i) {
        return None;
    }
    let j = chain_iters.iter().find(|v| **v != i)?.clone();
    let (alpha, loads) = product_factors(&comp.value)?;
    if loads.len() != 2 {
        return None;
    }
    for (mat, vec) in [(&loads[0], &loads[1]), (&loads[1], &loads[0])] {
        if mat.rank() == 2
            && vec.rank() == 1
            && subscript_var(&mat.indices[0]) == Some(i.clone())
            && subscript_var(&mat.indices[1]) == Some(j.clone())
            && subscript_var(&vec.indices[0]) == Some(j.clone())
        {
            let m = extent(loop_by_iter(chain, &i)?);
            let n = extent(loop_by_iter(chain, &j)?);
            return Some(BlasCall {
                kind: BlasKind::Gemv,
                output: comp.target.array.clone(),
                inputs: vec![mat.array.clone(), vec.array.clone()],
                dims: vec![m, n],
                alpha,
                beta: ScalarExpr::Const(1.0),
            });
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use loop_ir::parser::parse_program;

    fn first_nest(program: &Program) -> &Loop {
        program.loop_nests()[0]
    }

    #[test]
    fn gemm_update_is_detected_in_any_loop_order() {
        for order in ["i j k", "i k j", "k i j"] {
            let loops: Vec<&str> = order.split(' ').collect();
            let bound = |it: &str| match it {
                "i" => "NI",
                "j" => "NJ",
                _ => "NK",
            };
            let p = parse_program(&format!(
                "program gemm {{ param NI = 8; param NJ = 9; param NK = 10;
                   scalar alpha = 1.5;
                   array A[NI][NK]; array B[NK][NJ]; array C[NI][NJ];
                   for {l0} in 0..{b0} {{ for {l1} in 0..{b1} {{ for {l2} in 0..{b2} {{
                     C[i][j] += alpha * A[i][k] * B[k][j];
                   }} }} }} }}",
                l0 = loops[0],
                l1 = loops[1],
                l2 = loops[2],
                b0 = bound(loops[0]),
                b1 = bound(loops[1]),
                b2 = bound(loops[2]),
            ))
            .unwrap();
            let call = detect_blas_idiom(&p, first_nest(&p)).expect("gemm should be detected");
            assert_eq!(call.kind, BlasKind::Gemm);
            assert_eq!(call.output, Var::new("C"));
            assert_eq!(call.inputs, vec![Var::new("A"), Var::new("B")]);
            let dims: Vec<i64> = call
                .dims
                .iter()
                .map(|d| d.eval(&p.params).unwrap())
                .collect();
            assert_eq!(dims, vec![8, 9, 10]);
        }
    }

    #[test]
    fn syrk_full_update_is_detected() {
        let p = parse_program(
            "program syrk { param N = 8; param M = 6; scalar alpha = 2.0;
               array A[N][M]; array C[N][N];
               for i in 0..N { for j in 0..N { for k in 0..M {
                 C[i][j] += alpha * A[i][k] * A[j][k];
               } } } }",
        )
        .unwrap();
        let call = detect_blas_idiom(&p, first_nest(&p)).expect("syrk detected");
        assert_eq!(call.kind, BlasKind::Syrk);
        assert_eq!(call.inputs, vec![Var::new("A")]);
    }

    #[test]
    fn syr2k_is_detected() {
        let p = parse_program(
            "program syr2k { param N = 8; param M = 6; scalar alpha = 2.0;
               array A[N][M]; array B[N][M]; array C[N][N];
               for i in 0..N { for j in 0..N { for k in 0..M {
                 C[i][j] += alpha * A[i][k] * B[j][k] + alpha * B[i][k] * A[j][k];
               } } } }",
        )
        .unwrap();
        let call = detect_blas_idiom(&p, first_nest(&p)).expect("syr2k detected");
        assert_eq!(call.kind, BlasKind::Syr2k);
        assert_eq!(call.inputs.len(), 2);
    }

    #[test]
    fn gemv_is_detected() {
        let p = parse_program(
            "program gemv { param N = 8; param M = 6;
               array A[N][M]; array x[M]; array y[N];
               for i in 0..N { for j in 0..M {
                 y[i] += A[i][j] * x[j];
               } } }",
        )
        .unwrap();
        let call = detect_blas_idiom(&p, first_nest(&p)).expect("gemv detected");
        assert_eq!(call.kind, BlasKind::Gemv);
        assert_eq!(call.inputs, vec![Var::new("A"), Var::new("x")]);
    }

    #[test]
    fn triangular_syrk_is_not_replaced() {
        let p = parse_program(
            "program syrk_tri { param N = 8; param M = 6;
               array A[N][M]; array C[N][N];
               for i in 0..N { for j in 0..i + 1 { for k in 0..M {
                 C[i][j] += A[i][k] * A[j][k];
               } } } }",
        )
        .unwrap();
        assert!(detect_blas_idiom(&p, first_nest(&p)).is_none());
    }

    #[test]
    fn elementwise_and_multi_statement_nests_are_rejected() {
        let elementwise = parse_program(
            "program ew { param N = 8; array A[N][N]; array B[N][N];
               for i in 0..N { for j in 0..N { B[i][j] = A[i][j] * 2.0; } } }",
        )
        .unwrap();
        assert!(detect_blas_idiom(&elementwise, first_nest(&elementwise)).is_none());

        let fused = parse_program(
            "program fused { param N = 8; scalar beta = 0.5;
               array A[N][N]; array B[N][N]; array C[N][N];
               for i in 0..N { for j in 0..N {
                 C[i][j] = C[i][j] * beta;
                 for k in 0..N { C[i][j] += A[i][k] * B[k][j]; }
               } } }",
        )
        .unwrap();
        // The fused (unnormalized) GEMM is not recognized — exactly the
        // failure mode normalization removes.
        assert!(detect_blas_idiom(&fused, first_nest(&fused)).is_none());
    }

    #[test]
    fn unrelated_contraction_is_not_misdetected() {
        // C[i][j] += A[i][k] * B[j][k] is a GEMM with B transposed, which the
        // matcher deliberately does not claim (it is neither plain GEMM nor
        // SYRK because the arrays differ).
        let p = parse_program(
            "program nt { param N = 8; array A[N][N]; array B[N][N]; array C[N][N];
               for i in 0..N { for j in 0..N { for k in 0..N {
                 C[i][j] += A[i][k] * B[j][k];
               } } } }",
        )
        .unwrap();
        assert!(detect_blas_idiom(&p, first_nest(&p)).is_none());
    }

    #[test]
    fn alpha_factor_is_preserved() {
        let p = parse_program(
            "program gemm { param N = 4; scalar alpha = 3.0;
               array A[N][N]; array B[N][N]; array C[N][N];
               for i in 0..N { for j in 0..N { for k in 0..N {
                 C[i][j] += alpha * A[i][k] * B[k][j];
               } } } }",
        )
        .unwrap();
        let call = detect_blas_idiom(&p, first_nest(&p)).unwrap();
        match call.alpha {
            ScalarExpr::Param(ref v) => assert_eq!(v, &Var::new("alpha")),
            ref other => panic!("expected alpha parameter, got {other:?}"),
        }
    }
}
