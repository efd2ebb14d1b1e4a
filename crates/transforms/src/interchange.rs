//! Loop interchange (permutation of a perfectly nested loop chain).

use loop_ir::expr::Var;
use loop_ir::nest::{Loop, Node};

use crate::error::{Result, TransformError};

/// Returns the loops of the *perfect chain* of a nest: starting at the root,
/// follow bodies that consist of exactly one loop. The chain ends at the
/// first loop whose body is not a single loop.
///
/// These are the loops that can be freely reordered by [`interchange`]
/// (subject to dependence legality), outermost first.
pub fn perfect_chain(nest: &Loop) -> impl Iterator<Item = &Loop> + Clone {
    std::iter::successors(Some(nest), |l| match l.body.as_slice() {
        [Node::Loop(inner)] => Some(inner),
        _ => None,
    })
}

/// Permutes the perfect chain of `nest` into the given iterator order
/// (outermost first) and returns the new nest.
///
/// The loop headers (bounds, steps, schedules) travel with their iterators;
/// the body of the innermost chain loop is left untouched, so all array
/// subscripts remain valid.
///
/// # Errors
/// Returns [`TransformError::NotAPermutation`] if `new_order` is not a
/// permutation of the chain's iterators. Bounds that depend on an outer
/// iterator (triangular domains) reject any order that would hoist the
/// dependent loop above its bound's definition, reported as
/// [`TransformError::NotPerfectlyNested`].
pub fn interchange(nest: &Loop, new_order: &[Var]) -> Result<Loop> {
    let chain = perfect_chain(nest);
    check_order(chain.clone(), new_order)?;
    let innermost_body = chain
        .clone()
        .last()
        .expect("chain is never empty")
        .body
        .clone();
    // Rebuild from the innermost loop outwards.
    let mut body = innermost_body;
    for iter in new_order.iter().rev() {
        let template = chain
            .clone()
            .find(|l| &l.iter == iter)
            .expect("iterator checked to be in the chain");
        let mut rebuilt = Loop::new(
            template.iter.clone(),
            template.lower.clone(),
            template.upper.clone(),
            body,
        );
        rebuilt.step = template.step;
        rebuilt.schedule = template.schedule;
        body = vec![Node::Loop(rebuilt)];
    }
    match body.into_iter().next() {
        Some(Node::Loop(l)) => Ok(l),
        _ => unreachable!("interchange always rebuilds at least one loop"),
    }
}

/// Whether [`interchange`] accepts `new_order` for `nest` — the same
/// errors, without building the permuted nest.
///
/// # Errors
/// Exactly those of [`interchange`].
pub fn check_interchange(nest: &Loop, new_order: &[Var]) -> Result<()> {
    check_order(perfect_chain(nest), new_order)
}

fn check_order<'a>(chain: impl Iterator<Item = &'a Loop> + Clone, new_order: &[Var]) -> Result<()> {
    let in_chain = |v: &Var| chain.clone().filter(|l| &l.iter == v).count();
    let in_order = |v: &Var| new_order.iter().filter(|w| *w == v).count();
    // Equal lengths and equal counts of every iterator of the order: the
    // two are one multiset.
    if chain.clone().count() != new_order.len()
        || new_order.iter().any(|v| in_chain(v) != in_order(v))
    {
        return Err(TransformError::NotAPermutation {
            expected: chain.map(|l| l.iter.clone()).collect(),
            found: new_order.to_vec(),
        });
    }
    // Reject orders that would evaluate a bound before the iterator it
    // depends on is defined (e.g. triangular nests `for i { for j in 0..i }`
    // cannot hoist j above i).
    for (pos, iter) in new_order.iter().enumerate() {
        let l = chain
            .clone()
            .find(|l| &l.iter == iter)
            .expect("iterator checked to be in the chain");
        let mut hoisted = false;
        for bound in [&l.lower, &l.upper] {
            bound.for_each_var(&mut |v| {
                hoisted |= in_chain(v) > 0 && !new_order[..pos].contains(v);
            });
        }
        if hoisted {
            return Err(TransformError::NotPerfectlyNested(iter.clone()));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use loop_ir::prelude::*;

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

    #[test]
    fn chain_of_perfect_nest() {
        let nest = gemm_nest();
        let chain = perfect_chain(&nest);
        let iters: Vec<&str> = chain.map(|l| l.iter.as_str()).collect();
        assert_eq!(iters, vec!["i", "j", "k"]);
    }

    #[test]
    fn chain_stops_at_imperfect_level() {
        let mut nest = gemm_nest();
        nest.body.push(Node::Computation(Computation::assign(
            "S2",
            ArrayRef::new("C", vec![var("i"), cst(0)]),
            fconst(0.0),
        )));
        assert_eq!(perfect_chain(&nest).count(), 1);
    }

    #[test]
    fn interchange_reorders_headers_keeps_body() {
        let nest = gemm_nest();
        let permuted = interchange(&nest, &[Var::new("k"), Var::new("i"), Var::new("j")]).unwrap();
        assert_eq!(permuted.iter.as_str(), "k");
        assert_eq!(permuted.upper, var("NK"));
        let inner = permuted.body[0].as_loop().unwrap();
        assert_eq!(inner.iter.as_str(), "i");
        let innermost = inner.body[0].as_loop().unwrap();
        assert_eq!(innermost.iter.as_str(), "j");
        // The computation is untouched.
        assert_eq!(permuted.computations().len(), 1);
        assert_eq!(
            permuted.computations()[0].target,
            ArrayRef::new("C", vec![var("i"), var("j")])
        );
    }

    #[test]
    fn interchange_preserves_schedule_and_step() {
        let mut nest = gemm_nest();
        nest.schedule.parallel = true;
        nest.step = 2;
        let permuted = interchange(&nest, &[Var::new("j"), Var::new("i"), Var::new("k")]).unwrap();
        // The i loop keeps its annotations wherever it lands.
        let inner = permuted.body[0].as_loop().unwrap();
        assert_eq!(inner.iter.as_str(), "i");
        assert!(inner.schedule.parallel);
        assert_eq!(inner.step, 2);
    }

    #[test]
    fn identity_permutation_is_a_no_op() {
        let nest = gemm_nest();
        let same = interchange(&nest, &[Var::new("i"), Var::new("j"), Var::new("k")]).unwrap();
        assert_eq!(same, nest);
    }

    #[test]
    fn non_permutation_is_rejected() {
        let nest = gemm_nest();
        let err = interchange(&nest, &[Var::new("i"), Var::new("j")]).unwrap_err();
        assert!(matches!(err, TransformError::NotAPermutation { .. }));
        let err = interchange(&nest, &[Var::new("i"), Var::new("j"), Var::new("z")]).unwrap_err();
        assert!(matches!(err, TransformError::NotAPermutation { .. }));
    }

    #[test]
    fn triangular_bound_restricts_orders() {
        // for i { for j in 0..i+1 { S } } — j cannot be hoisted above i.
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
        assert!(interchange(&nest, &[Var::new("i"), Var::new("j")]).is_ok());
        let err = interchange(&nest, &[Var::new("j"), Var::new("i")]).unwrap_err();
        assert_eq!(err, TransformError::NotPerfectlyNested(Var::new("j")));
        // The check alone answers the same, for these orders and a
        // non-permutation.
        for order in [vec!["i", "j"], vec!["j", "i"], vec!["i"]] {
            let order: Vec<Var> = order.into_iter().map(Var::new).collect();
            assert_eq!(
                check_interchange(&nest, &order),
                interchange(&nest, &order).map(|_| ())
            );
        }
    }
}
