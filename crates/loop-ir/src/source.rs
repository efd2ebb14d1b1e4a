//! Emits programs back into the textual mini-language of [`crate::parser`].
//!
//! The text itself is [`Program`]'s `Display`: it writes the frontend
//! grammar for every program, and constructs the grammar lacks in a
//! readable form the parser rejects. [`to_source`] is the check in front of
//! it, the inverse of the parser: it refuses a program that has no source
//! form and otherwise returns the `Display` text, a `program name { … }`
//! definition that [`crate::parser::parse_program`] accepts. This is how
//! the fuzz corpus serializes generated programs as plain text.
//!
//! The constructs without a source form — [`ScalarExpr::Select`],
//! [`Node::Call`], `min`/`max` in index expressions, unroll annotations,
//! `min`/`max`/`pow` reductions, NaN, ±inf and -0.0 constants — are
//! reported as [`IrError::Invalid`] rather than silently mangled. Within the
//! expressible subset the round trip is exact up to statement names (the
//! parser renames statements `S0, S1, …` in program order): emitting
//! programs whose statements already follow that convention round-trips to
//! a structurally identical program, as the tests pin down.

use crate::error::{IrError, Result};
use crate::expr::Expr;
use crate::nest::Node;
use crate::program::Program;
use crate::scalar::{BinOp, ScalarExpr};

/// Renders `program` in the textual mini-language accepted by
/// [`crate::parser::parse_program`], or names the first construct (in
/// text order) that has no source form.
pub fn to_source(program: &Program) -> Result<String> {
    for &value in program.scalar_params.values() {
        check_const(value)?;
    }
    for array in program.arrays.values() {
        array.dims.iter().try_for_each(check_index)?;
    }
    program.body.iter().try_for_each(check_node)?;
    Ok(program.to_string())
}

fn check_node(node: &Node) -> Result<()> {
    match node {
        Node::Loop(l) => {
            if l.schedule.unroll > 1 {
                return Err(IrError::Invalid(format!(
                    "loop {}: unroll annotations have no source form",
                    l.iter
                )));
            }
            check_index(&l.lower)?;
            check_index(&l.upper)?;
            l.body.iter().try_for_each(check_node)
        }
        Node::Computation(c) => {
            c.target.indices.iter().try_for_each(check_index)?;
            match c.reduction {
                None | Some(BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div) => {}
                Some(op) => {
                    return Err(IrError::Invalid(format!(
                        "reduction operator {op} has no source form"
                    )))
                }
            }
            check_scalar(&c.value)
        }
        Node::Call(call) => Err(IrError::Invalid(format!(
            "library call {call} has no source form"
        ))),
    }
}

/// Index expressions: the parser grammar covers `+ - * / %`, unary minus,
/// integers, identifiers and parentheses — but not `min`/`max`.
fn check_index(e: &Expr) -> Result<()> {
    match e {
        Expr::Const(_) | Expr::Var(_) => Ok(()),
        Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) | Expr::Div(a, b) | Expr::Mod(a, b) => {
            check_index(a)?;
            check_index(b)
        }
        Expr::Neg(a) => check_index(a),
        Expr::Min(_, _) | Expr::Max(_, _) => Err(IrError::Invalid(format!(
            "index expression {e} has no source form (min/max are scalar-only)"
        ))),
    }
}

fn check_scalar(e: &ScalarExpr) -> Result<()> {
    match e {
        ScalarExpr::Load(r) => r.indices.iter().try_for_each(check_index),
        ScalarExpr::Const(c) => check_const(*c),
        ScalarExpr::Param(_) => Ok(()),
        ScalarExpr::Index(idx) => check_index(idx),
        ScalarExpr::Unary(_, a) => check_scalar(a),
        ScalarExpr::Binary(_, a, b) => {
            check_scalar(a)?;
            check_scalar(b)
        }
        ScalarExpr::Select { .. } => Err(IrError::Invalid(
            "select expressions have no source form".to_string(),
        )),
    }
}

/// Every finite constant but -0.0 prints as a literal the lexer reads back
/// bit-exactly (see `Display for ScalarExpr`).
fn check_const(v: f64) -> Result<()> {
    if !v.is_finite() || (v == 0.0 && v.is_sign_negative()) {
        return Err(IrError::Invalid(format!(
            "scalar constant {v} has no source form"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{cst, var};
    use crate::nest::for_loop;
    use crate::parser::parse_program;
    use crate::prelude::*;

    fn sample() -> Program {
        let s0 = Computation::assign(
            "S0",
            ArrayRef::new("B", vec![var("i")]),
            load("A", vec![var("N") - cst(1) - var("i")]) * param("alpha") + fconst(1.5),
        );
        let s1 = Computation::reduction(
            "S1",
            ArrayRef::new("acc", vec![cst(0)]),
            BinOp::Add,
            load("B", vec![var("j")]) * load("B", vec![var("j")]),
        );
        Program::builder("roundtrip")
            .param("N", 7)
            .scalar("alpha", 0.5)
            .array("A", &["N"])
            .array("B", &["N"])
            .array_with_dims("acc", vec![cst(1)])
            .node(for_loop("i", cst(0), var("N"), vec![Node::Computation(s0)]))
            .node(for_loop("j", cst(1), var("N"), vec![Node::Computation(s1)]))
            .build()
            .unwrap()
    }

    #[test]
    fn emitted_source_reparses_to_the_same_program() {
        let p = sample();
        let text = to_source(&p).unwrap();
        let back = parse_program(&text).unwrap();
        assert_eq!(p, back, "round trip must be exact:\n{text}");
    }

    #[test]
    fn strided_and_pragma_loops_round_trip() {
        let body = vec![Node::Computation(Computation::assign(
            "S0",
            ArrayRef::new("A", vec![var("i")]),
            fconst(2.0),
        ))];
        let mut nest = match for_loop("i", cst(0), cst(9), body) {
            Node::Loop(l) => l,
            _ => unreachable!(),
        };
        nest.step = 3;
        nest.schedule.parallel = true;
        nest.schedule.vectorize = true;
        let p = Program::builder("strided")
            .array_with_dims("A", vec![cst(9)])
            .node(Node::Loop(nest))
            .build()
            .unwrap();
        let text = to_source(&p).unwrap();
        assert!(text.contains("step 3"));
        assert!(text.contains("#pragma parallel simd"));
        assert_eq!(p, parse_program(&text).unwrap());
    }

    #[test]
    fn floats_survive_bit_exactly() {
        for v in [0.0, 1.0, 0.1, 2.5, 1.0 / 3.0, -0.75, 6.02e23, 1e-300] {
            let p = Program::builder("floats")
                .array_with_dims("A", vec![cst(1)])
                .node(Node::Computation(Computation::assign(
                    "S0",
                    ArrayRef::new("A", vec![cst(0)]),
                    fconst(v),
                )))
                .build()
                .unwrap();
            let text = to_source(&p).unwrap();
            let back = parse_program(&text).unwrap();
            let value = match &back.computations()[0].value {
                ScalarExpr::Const(c) => *c,
                ScalarExpr::Binary(BinOp::Sub, a, b) => match (a.as_ref(), b.as_ref()) {
                    (ScalarExpr::Const(a), ScalarExpr::Const(b)) => a - b,
                    other => panic!("unexpected negative encoding {other:?}"),
                },
                other => panic!("unexpected constant encoding {other:?}"),
            };
            assert_eq!(value.to_bits(), v.to_bits(), "value {v} mangled:\n{text}");
        }
    }

    #[test]
    fn inexpressible_constructs_are_rejected_not_mangled() {
        // min() in an index expression.
        let p = Program::builder("bad")
            .param("N", 4)
            .array("A", &["N"])
            .node(Node::Computation(Computation::assign(
                "S0",
                ArrayRef::new("A", vec![Expr::Min(Box::new(cst(0)), Box::new(var("N")))]),
                fconst(1.0),
            )))
            .build_unchecked();
        assert!(matches!(to_source(&p), Err(IrError::Invalid(_))));
        // select in a scalar expression.
        let p = Program::builder("bad2")
            .param("N", 4)
            .array("A", &["N"])
            .node(Node::Computation(Computation::assign(
                "S0",
                ArrayRef::new("A", vec![cst(0)]),
                ScalarExpr::select(
                    fconst(1.0),
                    CmpOp::Lt,
                    fconst(2.0),
                    fconst(3.0),
                    fconst(4.0),
                ),
            )))
            .build_unchecked();
        assert!(matches!(to_source(&p), Err(IrError::Invalid(_))));
    }

    #[test]
    fn negative_scalar_parameters_round_trip() {
        let p = Program::builder("signed")
            .scalar("alpha", -1.5)
            .array_with_dims("A", vec![cst(1)])
            .node(Node::Computation(Computation::assign(
                "S0",
                ArrayRef::new("A", vec![cst(0)]),
                param("alpha"),
            )))
            .build()
            .unwrap();
        let text = to_source(&p).unwrap();
        assert!(text.contains("scalar alpha = -1.5;"), "{text}");
        assert_eq!(p, parse_program(&text).unwrap());
    }
}
