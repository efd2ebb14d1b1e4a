//! Schedule annotations: parallelization, vectorization and unrolling marks.
//!
//! A mark changes one loop's schedule and nothing else, so it is set in
//! place on the nest the caller owns; a failed mark leaves the nest as it
//! was.

use loop_ir::expr::Var;
use loop_ir::nest::Loop;

use crate::error::{Result, TransformError};

/// Marks the loop with iterator `iter` inside `nest` as parallel.
///
/// # Errors
/// Returns [`TransformError::UnknownLoop`] if the iterator is not found.
pub fn mark_parallel(nest: &mut Loop, iter: &Var) -> Result<()> {
    annotate(nest, iter, |l| l.schedule.parallel = true)
}

/// Marks the loop with iterator `iter` inside `nest` for SIMD execution.
///
/// # Errors
/// Returns [`TransformError::UnknownLoop`] if the iterator is not found.
pub fn mark_vectorize(nest: &mut Loop, iter: &Var) -> Result<()> {
    annotate(nest, iter, |l| l.schedule.vectorize = true)
}

/// Sets the unroll factor of the loop with iterator `iter` inside `nest`.
///
/// # Errors
/// Returns [`TransformError::UnknownLoop`] if the iterator is not found, or
/// [`TransformError::InvalidFactor`] for factors below 2.
pub fn mark_unroll(nest: &mut Loop, iter: &Var, factor: u32) -> Result<()> {
    if factor < 2 {
        return Err(TransformError::InvalidFactor {
            iterator: iter.clone(),
            factor: i64::from(factor),
        });
    }
    annotate(nest, iter, |l| l.schedule.unroll = factor)
}

fn annotate(nest: &mut Loop, iter: &Var, f: impl Fn(&mut Loop)) -> Result<()> {
    if apply(nest, iter, &f) {
        Ok(())
    } else {
        Err(TransformError::UnknownLoop(iter.clone()))
    }
}

fn apply(l: &mut Loop, iter: &Var, f: &impl Fn(&mut Loop)) -> bool {
    if &l.iter == iter {
        f(l);
        return true;
    }
    for node in &mut l.body {
        if let loop_ir::nest::Node::Loop(inner) = node {
            if apply(inner, iter, f) {
                return true;
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use loop_ir::prelude::*;

    fn nest() -> Loop {
        let s = Computation::assign(
            "S1",
            ArrayRef::new("A", vec![var("i"), var("j")]),
            fconst(0.0),
        );
        match for_loop(
            "i",
            cst(0),
            var("N"),
            vec![for_loop("j", cst(0), var("N"), vec![Node::Computation(s)])],
        ) {
            Node::Loop(l) => l,
            _ => unreachable!(),
        }
    }

    #[test]
    fn parallel_mark_targets_named_loop() {
        let mut marked = nest();
        mark_parallel(&mut marked, &Var::new("i")).unwrap();
        assert!(marked.schedule.parallel);
        assert!(!marked.body[0].as_loop().unwrap().schedule.parallel);
    }

    #[test]
    fn vectorize_mark_targets_inner_loop() {
        let mut marked = nest();
        mark_vectorize(&mut marked, &Var::new("j")).unwrap();
        assert!(!marked.schedule.vectorize);
        assert!(marked.body[0].as_loop().unwrap().schedule.vectorize);
    }

    #[test]
    fn unroll_requires_factor_of_at_least_two() {
        let mut marked = nest();
        assert!(matches!(
            mark_unroll(&mut marked, &Var::new("j"), 1),
            Err(TransformError::InvalidFactor { .. })
        ));
        assert_eq!(marked, nest(), "a rejected factor marks nothing");
        mark_unroll(&mut marked, &Var::new("j"), 8).unwrap();
        assert_eq!(marked.body[0].as_loop().unwrap().schedule.unroll, 8);
    }

    #[test]
    fn unknown_loop_is_reported() {
        assert_eq!(
            mark_parallel(&mut nest(), &Var::new("z")).unwrap_err(),
            TransformError::UnknownLoop(Var::new("z"))
        );
    }

    #[test]
    fn original_nest_is_untouched() {
        // A mark that finds no loop changes nothing.
        let mut original = nest();
        for mark in [mark_parallel, mark_vectorize] {
            mark(&mut original, &Var::new("z")).unwrap_err();
        }
        mark_unroll(&mut original, &Var::new("z"), 4).unwrap_err();
        assert_eq!(original, nest());
    }
}
