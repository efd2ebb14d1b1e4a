//! Scalar floating-point expressions: the right-hand sides of computations.
//!
//! A computation in the paper's model is "a unit of work composed of one or
//! more instructions, where exactly one of the instructions is a write of a
//! scalar value to a data container" (§2). [`ScalarExpr`] describes the value
//! being written: an expression over array loads, loop iterators, symbolic
//! scalar parameters and floating-point arithmetic.

use std::convert::Infallible;
use std::fmt;
use std::ops::{Add, Div, Mul, Neg, Sub};

use crate::array::ArrayRef;
use crate::expr::{Expr, Var};

/// Binary floating-point operators.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// Power (`a.powf(b)`).
    Pow,
}

impl BinOp {
    /// Applies the operator to two concrete values.
    pub fn apply(self, a: f64, b: f64) -> f64 {
        match self {
            BinOp::Add => a + b,
            BinOp::Sub => a - b,
            BinOp::Mul => a * b,
            BinOp::Div => a / b,
            BinOp::Min => a.min(b),
            BinOp::Max => a.max(b),
            BinOp::Pow => a.powf(b),
        }
    }

    /// Returns true if the operator is associative and commutative, i.e.
    /// usable as a reduction operator.
    pub fn is_reduction_op(self) -> bool {
        matches!(self, BinOp::Add | BinOp::Mul | BinOp::Min | BinOp::Max)
    }

    /// Identity element of the operator when used as a reduction.
    pub fn identity(self) -> Option<f64> {
        match self {
            BinOp::Add => Some(0.0),
            BinOp::Mul => Some(1.0),
            BinOp::Min => Some(f64::INFINITY),
            BinOp::Max => Some(f64::NEG_INFINITY),
            _ => None,
        }
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Min => "min",
            BinOp::Max => "max",
            BinOp::Pow => "pow",
        };
        f.write_str(s)
    }
}

/// Unary floating-point operators.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum UnaryOp {
    /// Negation.
    Neg,
    /// Square root.
    Sqrt,
    /// Natural exponential.
    Exp,
    /// Natural logarithm.
    Log,
    /// Absolute value.
    Abs,
}

impl UnaryOp {
    /// Applies the operator to a concrete value.
    pub fn apply(self, a: f64) -> f64 {
        match self {
            UnaryOp::Neg => -a,
            UnaryOp::Sqrt => a.sqrt(),
            UnaryOp::Exp => a.exp(),
            UnaryOp::Log => a.ln(),
            UnaryOp::Abs => a.abs(),
        }
    }
}

impl fmt::Display for UnaryOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            UnaryOp::Neg => "-",
            UnaryOp::Sqrt => "sqrt",
            UnaryOp::Exp => "exp",
            UnaryOp::Log => "log",
            UnaryOp::Abs => "abs",
        };
        f.write_str(s)
    }
}

/// Comparison operators used by [`ScalarExpr::Select`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CmpOp {
    /// Less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater than or equal.
    Ge,
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
}

impl CmpOp {
    /// Evaluates the comparison on two concrete values.
    pub fn apply(self, a: f64, b: f64) -> bool {
        match self {
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
            CmpOp::Eq => "==",
            CmpOp::Ne => "!=",
        };
        f.write_str(s)
    }
}

/// A scalar floating-point expression over array loads.
#[derive(Clone, PartialEq, Debug)]
pub enum ScalarExpr {
    /// Read of an array element.
    Load(ArrayRef),
    /// Floating-point literal.
    Const(f64),
    /// A symbolic scalar parameter (e.g. `alpha`, `beta`).
    Param(Var),
    /// The value of a loop iterator or an integer index expression, converted
    /// to floating point (e.g. PolyBench initializers use `(i*j) % N`).
    Index(Expr),
    /// Unary operation.
    Unary(UnaryOp, Box<ScalarExpr>),
    /// Binary operation.
    Binary(BinOp, Box<ScalarExpr>, Box<ScalarExpr>),
    /// Conditional selection `if lhs cmp rhs { then } else { otherwise }`.
    Select {
        /// Left operand of the comparison.
        lhs: Box<ScalarExpr>,
        /// Comparison operator.
        cmp: CmpOp,
        /// Right operand of the comparison.
        rhs: Box<ScalarExpr>,
        /// Value when the comparison holds.
        then: Box<ScalarExpr>,
        /// Value when the comparison does not hold.
        otherwise: Box<ScalarExpr>,
    },
}

/// Builds a load expression, the usual leaf of computation bodies.
///
/// ```
/// use loop_ir::prelude::*;
/// let e = load("A", vec![var("i"), var("k")]) * load("B", vec![var("k"), var("j")]);
/// assert_eq!(e.load_count(), 2);
/// ```
pub fn load(array: impl Into<Var>, indices: Vec<Expr>) -> ScalarExpr {
    ScalarExpr::Load(ArrayRef::new(array, indices))
}

/// Builds a floating-point constant expression.
pub fn fconst(value: f64) -> ScalarExpr {
    ScalarExpr::Const(value)
}

/// Builds a reference to a symbolic scalar parameter.
pub fn param(name: impl Into<Var>) -> ScalarExpr {
    ScalarExpr::Param(name.into())
}

impl ScalarExpr {
    /// Builds a min of two expressions.
    pub fn min(self, other: ScalarExpr) -> ScalarExpr {
        ScalarExpr::Binary(BinOp::Min, Box::new(self), Box::new(other))
    }

    /// Builds a max of two expressions.
    pub fn max(self, other: ScalarExpr) -> ScalarExpr {
        ScalarExpr::Binary(BinOp::Max, Box::new(self), Box::new(other))
    }

    /// Builds a square root.
    pub fn sqrt(self) -> ScalarExpr {
        ScalarExpr::Unary(UnaryOp::Sqrt, Box::new(self))
    }

    /// Builds an exponential.
    pub fn exp(self) -> ScalarExpr {
        ScalarExpr::Unary(UnaryOp::Exp, Box::new(self))
    }

    /// Builds a conditional selection.
    pub fn select(
        lhs: ScalarExpr,
        cmp: CmpOp,
        rhs: ScalarExpr,
        then: ScalarExpr,
        otherwise: ScalarExpr,
    ) -> ScalarExpr {
        ScalarExpr::Select {
            lhs: Box::new(lhs),
            cmp,
            rhs: Box::new(rhs),
            then: Box::new(then),
            otherwise: Box::new(otherwise),
        }
    }

    /// Calls `f` on every array load in evaluation order (left to right),
    /// stopping at the first error.
    pub fn try_for_each_load<'a, E>(
        &'a self,
        f: &mut impl FnMut(&'a ArrayRef) -> Result<(), E>,
    ) -> Result<(), E> {
        match self {
            ScalarExpr::Load(r) => f(r),
            ScalarExpr::Const(_) | ScalarExpr::Param(_) | ScalarExpr::Index(_) => Ok(()),
            ScalarExpr::Unary(_, a) => a.try_for_each_load(f),
            ScalarExpr::Binary(_, a, b) => {
                a.try_for_each_load(f)?;
                b.try_for_each_load(f)
            }
            ScalarExpr::Select {
                lhs,
                rhs,
                then,
                otherwise,
                ..
            } => {
                lhs.try_for_each_load(f)?;
                rhs.try_for_each_load(f)?;
                then.try_for_each_load(f)?;
                otherwise.try_for_each_load(f)
            }
        }
    }

    /// Calls `f` on every array load in evaluation order (left to right).
    pub fn for_each_load<'a>(&'a self, f: &mut impl FnMut(&'a ArrayRef)) {
        let _ = self.try_for_each_load(&mut |r| {
            f(r);
            Ok::<(), Infallible>(())
        });
    }

    /// Number of array loads.
    pub fn load_count(&self) -> usize {
        let mut count = 0;
        self.for_each_load(&mut |_| count += 1);
        count
    }

    /// Calls `f` on every scalar parameter occurrence, left to right.
    pub fn for_each_param<'a>(&'a self, f: &mut impl FnMut(&'a Var)) {
        match self {
            ScalarExpr::Param(v) => f(v),
            ScalarExpr::Load(_) | ScalarExpr::Const(_) | ScalarExpr::Index(_) => {}
            ScalarExpr::Unary(_, a) => a.for_each_param(f),
            ScalarExpr::Binary(_, a, b) => {
                a.for_each_param(f);
                b.for_each_param(f);
            }
            ScalarExpr::Select {
                lhs,
                rhs,
                then,
                otherwise,
                ..
            } => {
                lhs.for_each_param(f);
                rhs.for_each_param(f);
                then.for_each_param(f);
                otherwise.for_each_param(f);
            }
        }
    }

    /// Calls `f` on every integer variable occurrence in `Index` leaves and
    /// load subscripts, left to right.
    pub fn for_each_index_var<'a>(&'a self, f: &mut impl FnMut(&'a Var)) {
        match self {
            ScalarExpr::Load(r) => r.indices.iter().for_each(|idx| idx.for_each_var(f)),
            ScalarExpr::Index(e) => e.for_each_var(f),
            ScalarExpr::Const(_) | ScalarExpr::Param(_) => {}
            ScalarExpr::Unary(_, a) => a.for_each_index_var(f),
            ScalarExpr::Binary(_, a, b) => {
                a.for_each_index_var(f);
                b.for_each_index_var(f);
            }
            ScalarExpr::Select {
                lhs,
                rhs,
                then,
                otherwise,
                ..
            } => {
                lhs.for_each_index_var(f);
                rhs.for_each_index_var(f);
                then.for_each_index_var(f);
                otherwise.for_each_index_var(f);
            }
        }
    }

    /// Substitutes an integer variable inside load subscripts and `Index`
    /// leaves (used when renaming loop iterators).
    pub fn substitute_index(&self, v: &Var, replacement: &Expr) -> ScalarExpr {
        match self {
            ScalarExpr::Load(r) => ScalarExpr::Load(r.substitute(v, replacement)),
            ScalarExpr::Index(e) => ScalarExpr::Index(e.substitute(v, replacement)),
            ScalarExpr::Const(_) | ScalarExpr::Param(_) => self.clone(),
            ScalarExpr::Unary(op, a) => {
                ScalarExpr::Unary(*op, Box::new(a.substitute_index(v, replacement)))
            }
            ScalarExpr::Binary(op, a, b) => ScalarExpr::Binary(
                *op,
                Box::new(a.substitute_index(v, replacement)),
                Box::new(b.substitute_index(v, replacement)),
            ),
            ScalarExpr::Select {
                lhs,
                cmp,
                rhs,
                then,
                otherwise,
            } => ScalarExpr::Select {
                lhs: Box::new(lhs.substitute_index(v, replacement)),
                cmp: *cmp,
                rhs: Box::new(rhs.substitute_index(v, replacement)),
                then: Box::new(then.substitute_index(v, replacement)),
                otherwise: Box::new(otherwise.substitute_index(v, replacement)),
            },
        }
    }

    /// Counts the floating-point operations performed by one evaluation of
    /// this expression (used by the cost model's FLOP accounting).
    pub fn flop_count(&self) -> u64 {
        match self {
            ScalarExpr::Load(_)
            | ScalarExpr::Const(_)
            | ScalarExpr::Param(_)
            | ScalarExpr::Index(_) => 0,
            ScalarExpr::Unary(op, a) => {
                let inner = a.flop_count();
                match op {
                    UnaryOp::Neg | UnaryOp::Abs => inner + 1,
                    // Transcendental operations are counted with a typical
                    // polynomial-evaluation cost.
                    UnaryOp::Sqrt => inner + 4,
                    UnaryOp::Exp | UnaryOp::Log => inner + 10,
                }
            }
            ScalarExpr::Binary(op, a, b) => {
                let inner = a.flop_count() + b.flop_count();
                match op {
                    BinOp::Pow => inner + 10,
                    BinOp::Div => inner + 4,
                    _ => inner + 1,
                }
            }
            ScalarExpr::Select {
                lhs,
                rhs,
                then,
                otherwise,
                ..
            } => {
                1 + lhs.flop_count() + rhs.flop_count() + then.flop_count() + otherwise.flop_count()
            }
        }
    }
}

/// A scalar constant, displayed as a literal the lexer reads back
/// bit-exactly. Rust's `Display` prints the shortest round-tripping decimal
/// and never uses exponent notation, so a value without a fraction only
/// needs `.0` appended to lex as a float rather than an integer. The
/// grammar's unary minus parses to `Neg(Const)`, a different tree than
/// `Const(-c)`, so a negative value prints as the exact subtraction
/// `(0.0 - c)`. NaN, ±inf and -0.0 have no source form and print as `NaN`,
/// `inf`, `-inf` and `-0.0`.
pub(crate) struct Literal(pub(crate) f64);

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let v = self.0;
        if !v.is_finite() {
            write!(f, "{v}")
        } else if v == 0.0 && v.is_sign_negative() {
            f.write_str("-0.0")
        } else if v < 0.0 {
            write!(f, "(0.0 - {})", Literal(-v))
        } else if v.fract() == 0.0 {
            write!(f, "{v}.0")
        } else {
            write!(f, "{v}")
        }
    }
}

impl fmt::Display for ScalarExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScalarExpr::Load(r) => write!(f, "{r}"),
            ScalarExpr::Const(c) => Literal(*c).fmt(f),
            ScalarExpr::Param(v) => write!(f, "{v}"),
            ScalarExpr::Index(e) => write!(f, "index({e})"),
            ScalarExpr::Unary(UnaryOp::Neg, a) => write!(f, "(-{a})"),
            ScalarExpr::Unary(op, a) => write!(f, "{op}({a})"),
            ScalarExpr::Binary(BinOp::Min, a, b) => write!(f, "min({a}, {b})"),
            ScalarExpr::Binary(BinOp::Max, a, b) => write!(f, "max({a}, {b})"),
            ScalarExpr::Binary(BinOp::Pow, a, b) => write!(f, "pow({a}, {b})"),
            ScalarExpr::Binary(op, a, b) => write!(f, "({a} {op} {b})"),
            ScalarExpr::Select {
                lhs,
                cmp,
                rhs,
                then,
                otherwise,
            } => write!(f, "({lhs} {cmp} {rhs} ? {then} : {otherwise})"),
        }
    }
}

impl From<f64> for ScalarExpr {
    fn from(value: f64) -> Self {
        ScalarExpr::Const(value)
    }
}

impl Add for ScalarExpr {
    type Output = ScalarExpr;
    fn add(self, rhs: ScalarExpr) -> ScalarExpr {
        ScalarExpr::Binary(BinOp::Add, Box::new(self), Box::new(rhs))
    }
}

impl Sub for ScalarExpr {
    type Output = ScalarExpr;
    fn sub(self, rhs: ScalarExpr) -> ScalarExpr {
        ScalarExpr::Binary(BinOp::Sub, Box::new(self), Box::new(rhs))
    }
}

impl Mul for ScalarExpr {
    type Output = ScalarExpr;
    fn mul(self, rhs: ScalarExpr) -> ScalarExpr {
        ScalarExpr::Binary(BinOp::Mul, Box::new(self), Box::new(rhs))
    }
}

impl Div for ScalarExpr {
    type Output = ScalarExpr;
    fn div(self, rhs: ScalarExpr) -> ScalarExpr {
        ScalarExpr::Binary(BinOp::Div, Box::new(self), Box::new(rhs))
    }
}

impl Neg for ScalarExpr {
    type Output = ScalarExpr;
    fn neg(self) -> ScalarExpr {
        ScalarExpr::Unary(UnaryOp::Neg, Box::new(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{cst, var};

    #[test]
    fn binop_apply() {
        assert_eq!(BinOp::Add.apply(2.0, 3.0), 5.0);
        assert_eq!(BinOp::Sub.apply(2.0, 3.0), -1.0);
        assert_eq!(BinOp::Mul.apply(2.0, 3.0), 6.0);
        assert_eq!(BinOp::Div.apply(3.0, 2.0), 1.5);
        assert_eq!(BinOp::Min.apply(2.0, 3.0), 2.0);
        assert_eq!(BinOp::Max.apply(2.0, 3.0), 3.0);
        assert_eq!(BinOp::Pow.apply(2.0, 3.0), 8.0);
    }

    #[test]
    fn reduction_identities() {
        assert_eq!(BinOp::Add.identity(), Some(0.0));
        assert_eq!(BinOp::Mul.identity(), Some(1.0));
        assert_eq!(BinOp::Sub.identity(), None);
        assert!(BinOp::Add.is_reduction_op());
        assert!(!BinOp::Div.is_reduction_op());
    }

    #[test]
    fn unary_apply() {
        assert_eq!(UnaryOp::Neg.apply(2.0), -2.0);
        assert_eq!(UnaryOp::Sqrt.apply(9.0), 3.0);
        assert_eq!(UnaryOp::Abs.apply(-4.0), 4.0);
        assert!((UnaryOp::Exp.apply(0.0) - 1.0).abs() < 1e-12);
        assert!((UnaryOp::Log.apply(1.0)).abs() < 1e-12);
    }

    #[test]
    fn cmp_apply() {
        assert!(CmpOp::Lt.apply(1.0, 2.0));
        assert!(CmpOp::Le.apply(2.0, 2.0));
        assert!(CmpOp::Gt.apply(3.0, 2.0));
        assert!(CmpOp::Ge.apply(2.0, 2.0));
        assert!(CmpOp::Eq.apply(2.0, 2.0));
        assert!(CmpOp::Ne.apply(2.0, 3.0));
    }

    #[test]
    fn loads_are_collected_in_order() {
        let e = load("A", vec![var("i")]) * load("B", vec![var("j")]) + load("C", vec![var("k")]);
        let mut loads = Vec::new();
        e.for_each_load(&mut |r| loads.push(r));
        assert_eq!(loads.len(), 3);
        assert_eq!(loads[0].array.as_str(), "A");
        assert_eq!(loads[1].array.as_str(), "B");
        assert_eq!(loads[2].array.as_str(), "C");
    }

    #[test]
    fn params_and_index_vars() {
        let e = param("alpha") * load("A", vec![var("i"), var("k")])
            + ScalarExpr::Index(var("j") + cst(1));
        let mut params = Vec::new();
        e.for_each_param(&mut |p| params.push(p.as_str()));
        assert_eq!(params, ["alpha"]);
        let mut vars = Vec::new();
        e.for_each_index_var(&mut |v| vars.push(v.as_str()));
        assert_eq!(vars, ["i", "k", "j"]);
    }

    #[test]
    fn substitute_index_renames_iterators() {
        let e = load("A", vec![var("i"), var("k")]) + ScalarExpr::Index(var("i"));
        let renamed = e.substitute_index(&Var::new("i"), &var("i0"));
        let mut vars = Vec::new();
        renamed.for_each_index_var(&mut |v| vars.push(v.as_str()));
        assert_eq!(vars, ["i0", "k", "i0"]);
    }

    #[test]
    fn flop_counting() {
        let e = load("A", vec![var("i")]) * load("B", vec![var("i")]) + fconst(1.0);
        assert_eq!(e.flop_count(), 2);
        let t = fconst(2.0).sqrt().exp();
        assert_eq!(t.flop_count(), 14);
    }

    #[test]
    fn select_display_and_loads() {
        let e = ScalarExpr::select(
            load("A", vec![var("i")]),
            CmpOp::Gt,
            fconst(0.0),
            load("A", vec![var("i")]),
            fconst(0.0),
        );
        assert_eq!(e.load_count(), 2);
        assert!(format!("{e}").contains('>'));
    }

    #[test]
    fn operator_overloads_build_expected_tree() {
        let e = fconst(1.0) + fconst(2.0) * fconst(3.0);
        match e {
            ScalarExpr::Binary(BinOp::Add, _, rhs) => match *rhs {
                ScalarExpr::Binary(BinOp::Mul, _, _) => {}
                other => panic!("expected Mul on the right, got {other:?}"),
            },
            other => panic!("expected Add at the root, got {other:?}"),
        }
    }
}
