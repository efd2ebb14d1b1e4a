//! Loop tiling (blocking) of a perfectly nested loop band.

use loop_ir::expr::{cst, Expr, Var};
use loop_ir::nest::{Loop, Node};

use crate::error::{Result, TransformError};
use crate::interchange::perfect_chain;

/// Tiles the perfect chain of `nest` with the given tile sizes.
///
/// `tiles` lists `(iterator, tile_size)` pairs for the loops to tile; loops
/// of the chain that are not mentioned stay untiled (as "point" loops). The
/// result is the classical band structure: all tile loops (iterating with
/// step = tile size over the original domain, named `<iter>_t`) outside, then
/// all point loops inside, where each point loop `iter` runs over
/// `[iter_t, min(iter_t + tile, upper))`.
///
/// Array subscripts are untouched because the point loops keep their original
/// iterator names.
///
/// # Errors
/// * [`TransformError::UnknownLoop`] if a tiled iterator is not in the chain.
/// * [`TransformError::InvalidFactor`] if a tile size is smaller than 2.
/// * [`TransformError::NotPerfectlyNested`] if a tiled loop has bounds that
///   depend on another chain iterator (triangular bands are not tiled).
pub fn tile_band(nest: &Loop, tiles: &[(Var, i64)]) -> Result<Loop> {
    let chain: Vec<&Loop> = perfect_chain(nest).collect();
    let in_chain = |v: &Var| chain.iter().any(|l| &l.iter == v);
    for (iter, size) in tiles {
        if !in_chain(iter) {
            return Err(TransformError::UnknownLoop(iter.clone()));
        }
        if *size < 2 {
            return Err(TransformError::InvalidFactor {
                iterator: iter.clone(),
                factor: *size,
            });
        }
    }
    // Reject tiling of loops with bounds depending on other chain iterators.
    for (iter, _) in tiles {
        let l = chain.iter().find(|l| &l.iter == iter).expect("checked");
        let mut dependent = false;
        for bound in [&l.lower, &l.upper] {
            bound.for_each_var(&mut |v| dependent |= in_chain(v));
        }
        if dependent {
            return Err(TransformError::NotPerfectlyNested(iter.clone()));
        }
    }

    let innermost_body = chain.last().expect("chain is never empty").body.clone();
    let tile_of = |iter: &Var| tiles.iter().find(|(v, _)| v == iter).map(|(_, s)| *s);

    // Build point loops (innermost): original order, bounds clamped to the
    // tile for tiled iterators.
    let mut body = innermost_body;
    for l in chain.iter().rev() {
        let mut point = match tile_of(&l.iter) {
            Some(size) => {
                let tile_iter = Var::new(format!("{}_t", l.iter));
                let start = Expr::Var(tile_iter);
                let end = Expr::Min(
                    Box::new(start.clone() + cst(size)),
                    Box::new(l.upper.clone()),
                );
                Loop::new(l.iter.clone(), start, end, body)
            }
            None => Loop::new(l.iter.clone(), l.lower.clone(), l.upper.clone(), body),
        };
        point.step = l.step;
        point.schedule = l.schedule;
        body = vec![Node::Loop(point)];
    }

    // Build tile loops (outermost): only for tiled iterators, in original
    // order, stepping by the tile size over the original domain.
    for l in chain.iter().rev() {
        if let Some(size) = tile_of(&l.iter) {
            let tile_iter = Var::new(format!("{}_t", l.iter));
            let mut tile_loop = Loop::new(tile_iter, l.lower.clone(), l.upper.clone(), body);
            tile_loop.step = size;
            body = vec![Node::Loop(tile_loop)];
        }
    }

    match body.into_iter().next() {
        Some(Node::Loop(l)) => Ok(l),
        _ => unreachable!("tiling always produces a loop"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loop_ir::prelude::*;
    use std::collections::BTreeMap;

    fn gemm_nest() -> Loop {
        let update = Computation::reduction(
            "S1",
            ArrayRef::new("C", vec![var("i"), var("j")]),
            BinOp::Add,
            load("A", vec![var("i"), var("k")]) * load("B", vec![var("k"), var("j")]),
        );
        match for_loop(
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
        ) {
            Node::Loop(l) => l,
            _ => unreachable!(),
        }
    }

    fn iter_chain(l: &Loop) -> Vec<String> {
        perfect_chain(l).map(|x| x.iter.to_string()).collect()
    }

    #[test]
    fn full_band_tiling_structure() {
        let nest = gemm_nest();
        let tiled = tile_band(
            &nest,
            &[
                (Var::new("i"), 32),
                (Var::new("j"), 32),
                (Var::new("k"), 32),
            ],
        )
        .unwrap();
        assert_eq!(iter_chain(&tiled), vec!["i_t", "j_t", "k_t", "i", "j", "k"]);
        // Tile loops step by the tile size.
        assert_eq!(tiled.step, 32);
        // Point loops are bounded by min(start + tile, upper).
        let point_i = perfect_chain(&tiled).nth(3).unwrap();
        assert!(matches!(point_i.upper, Expr::Min(_, _)));
        // The computation is untouched.
        assert_eq!(tiled.computations().len(), 1);
    }

    #[test]
    fn partial_tiling_leaves_other_loops_alone() {
        let nest = gemm_nest();
        let tiled = tile_band(&nest, &[(Var::new("k"), 64)]).unwrap();
        assert_eq!(iter_chain(&tiled), vec!["k_t", "i", "j", "k"]);
        let point_j = perfect_chain(&tiled).nth(2).unwrap();
        assert_eq!(point_j.upper, var("NJ"));
    }

    #[test]
    fn tiled_iteration_space_is_preserved() {
        // Execute the loop structure symbolically: count iterations of the
        // innermost computation for a concrete size.
        fn count(l: &Loop, bindings: &BTreeMap<Var, i64>) -> i64 {
            fn count_nodes(nodes: &[Node], bindings: &mut BTreeMap<Var, i64>) -> i64 {
                let mut total = 0;
                for node in nodes {
                    match node {
                        Node::Computation(_) => total += 1,
                        Node::Call(_) => {}
                        Node::Loop(l) => {
                            let lo = l.lower.eval(bindings).unwrap();
                            let hi = l.upper.eval(bindings).unwrap();
                            let mut v = lo;
                            while v < hi {
                                bindings.insert(l.iter.clone(), v);
                                total += count_nodes(&l.body, bindings);
                                v += l.step;
                            }
                            bindings.remove(&l.iter);
                        }
                    }
                }
                total
            }
            let mut b = bindings.clone();
            count_nodes(&[Node::Loop(l.clone())], &mut b)
        }
        let bindings: BTreeMap<Var, i64> = [
            (Var::new("NI"), 10),
            (Var::new("NJ"), 7),
            (Var::new("NK"), 5),
        ]
        .into_iter()
        .collect();
        let nest = gemm_nest();
        let tiled = tile_band(&nest, &[(Var::new("i"), 4), (Var::new("j"), 3)]).unwrap();
        assert_eq!(count(&nest, &bindings), 10 * 7 * 5);
        assert_eq!(count(&tiled, &bindings), 10 * 7 * 5);
    }

    #[test]
    fn invalid_tile_sizes_are_rejected() {
        let nest = gemm_nest();
        assert!(matches!(
            tile_band(&nest, &[(Var::new("i"), 1)]),
            Err(TransformError::InvalidFactor { .. })
        ));
        assert!(matches!(
            tile_band(&nest, &[(Var::new("z"), 8)]),
            Err(TransformError::UnknownLoop(_))
        ));
    }

    #[test]
    fn triangular_loops_are_not_tiled() {
        let s = Computation::assign(
            "S1",
            ArrayRef::new("C", vec![var("i"), var("j")]),
            fconst(0.0),
        );
        let nest = match for_loop(
            "i",
            cst(0),
            var("N"),
            vec![for_loop(
                "j",
                cst(0),
                var("i") + cst(1),
                vec![Node::Computation(s)],
            )],
        ) {
            Node::Loop(l) => l,
            _ => unreachable!(),
        };
        assert!(tile_band(&nest, &[(Var::new("i"), 8)]).is_ok());
        assert!(matches!(
            tile_band(&nest, &[(Var::new("j"), 8)]),
            Err(TransformError::NotPerfectlyNested(_))
        ));
    }
}
