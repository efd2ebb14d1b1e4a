//! A NumPy-style array-expression frontend.
//!
//! The paper's §4.3 evaluates auto-scheduling across languages by translating
//! NPBench (NumPy) implementations of the PolyBench kernels through the DaCe
//! Python frontend. The structural effect of such a frontend is that every
//! array operation becomes its own loop nest (operator-at-a-time evaluation)
//! and slicing produces triangular or shifted loop bounds — a very different
//! loop structure from the hand-written C variants.
//!
//! [`NumpyProgram`] reproduces that translation: a small Python-like program
//! of array statements (`C[i, :i+1] += alpha * A[i, k] * A[:i+1, k]`,
//! `D = A @ B`, elementwise expressions, axis reductions) is lowered into the
//! loop-nest IR, one loop nest per statement, and additionally reports the
//! sequence of framework-level operations ([`FrameworkOp`]) that a NumPy-like
//! runtime would execute, which the Python-framework baselines cost.

use std::collections::BTreeMap;

use crate::array::ArrayRef;
use crate::error::{IrError, Result};
use crate::expr::{cst, Expr, Var};
use crate::nest::{Computation, Loop, Node};
use crate::parser::MAX_NESTING;
use crate::program::Program;
use crate::scalar::{BinOp, ScalarExpr};

/// A slice bound pair `[lower, upper)` along one array dimension.
#[derive(Clone, PartialEq, Debug)]
pub struct Range {
    /// Inclusive lower bound.
    pub lower: Expr,
    /// Exclusive upper bound.
    pub upper: Expr,
}

impl Range {
    /// The full extent of a dimension: `0..extent`.
    pub fn full(extent: Expr) -> Self {
        Range {
            lower: cst(0),
            upper: extent,
        }
    }

    /// An explicit range.
    pub fn new(lower: Expr, upper: Expr) -> Self {
        Range { lower, upper }
    }

    /// A single index `i`, i.e. the degenerate range `i..i+1` that removes
    /// the dimension from the result.
    pub fn index(at: Expr) -> Self {
        Range {
            lower: at.clone(),
            upper: at + cst(1),
        }
    }

    fn is_index(&self) -> bool {
        self.upper == self.lower.clone() + cst(1) || {
            // after simplification
            (self.upper.clone() - self.lower.clone()).simplify() == cst(1)
        }
    }
}

/// A sliced view of a named array.
#[derive(Clone, PartialEq, Debug)]
pub struct ArrayView {
    /// The underlying array.
    pub array: Var,
    /// One range per array dimension.
    pub ranges: Vec<Range>,
    /// Whether the (two-dimensional) view is transposed.
    pub transposed: bool,
}

impl ArrayView {
    /// A view of the whole array given its declared extents.
    pub fn whole(array: impl Into<Var>, extents: &[Expr]) -> Self {
        ArrayView {
            array: array.into(),
            ranges: extents.iter().cloned().map(Range::full).collect(),
            transposed: false,
        }
    }

    /// A view with explicit per-dimension ranges.
    pub fn sliced(array: impl Into<Var>, ranges: Vec<Range>) -> Self {
        ArrayView {
            array: array.into(),
            ranges,
            transposed: false,
        }
    }

    /// Marks the view as transposed (2-D views only).
    pub fn t(mut self) -> Self {
        self.transposed = !self.transposed;
        self
    }

    /// The dimensions of the view that are not degenerate single indices,
    /// i.e. the shape of the value the view produces.
    fn free_dims(&self) -> Vec<(usize, Range)> {
        let mut dims: Vec<(usize, Range)> = self
            .ranges
            .iter()
            .enumerate()
            .filter(|(_, r)| !r.is_index())
            .map(|(i, r)| (i, r.clone()))
            .collect();
        if self.transposed {
            dims.reverse();
        }
        dims
    }

    /// Builds the [`ArrayRef`] selecting one element of the view given the
    /// iteration variables of the free dimensions (in view order).
    fn element(&self, free_iters: &[Expr]) -> ArrayRef {
        let free = self.free_dims();
        let mut by_dim: BTreeMap<usize, Expr> = BTreeMap::new();
        for ((dim, range), iter) in free.iter().zip(free_iters) {
            by_dim.insert(*dim, range.lower.clone() + iter.clone());
        }
        let indices = self
            .ranges
            .iter()
            .enumerate()
            .map(|(i, r)| by_dim.get(&i).cloned().unwrap_or_else(|| r.lower.clone()))
            .map(|e| e.simplify())
            .collect();
        ArrayRef::new(self.array.clone(), indices)
    }

    /// The rank (number of non-degenerate dimensions) of the view.
    pub fn rank(&self) -> usize {
        self.free_dims().len()
    }

    fn extent(&self, view_dim: usize) -> Expr {
        let (_, range) = self.free_dims()[view_dim].clone();
        (range.upper - range.lower).simplify()
    }
}

/// A NumPy-style array expression.
#[derive(Clone, PartialEq, Debug)]
pub enum NpExpr {
    /// A (possibly sliced, possibly transposed) view of an array.
    View(ArrayView),
    /// A scalar constant.
    Const(f64),
    /// A named scalar parameter.
    Param(Var),
    /// Elementwise binary operation (with scalar broadcasting).
    Binary(BinOp, Box<NpExpr>, Box<NpExpr>),
    /// Matrix-matrix or matrix-vector product of two views.
    MatMul(Box<NpExpr>, Box<NpExpr>),
    /// Sum-reduction of a view along an axis (`None` = reduce everything).
    Sum(Box<NpExpr>, Option<usize>),
}

// The arithmetic method names deliberately mirror NumPy (`np.add`, …), not
// the `std::ops` traits.
#[allow(clippy::should_implement_trait)]
impl NpExpr {
    /// Elementwise addition.
    pub fn add(self, rhs: NpExpr) -> NpExpr {
        NpExpr::Binary(BinOp::Add, Box::new(self), Box::new(rhs))
    }
    /// Elementwise subtraction.
    pub fn sub(self, rhs: NpExpr) -> NpExpr {
        NpExpr::Binary(BinOp::Sub, Box::new(self), Box::new(rhs))
    }
    /// Elementwise multiplication.
    pub fn mul(self, rhs: NpExpr) -> NpExpr {
        NpExpr::Binary(BinOp::Mul, Box::new(self), Box::new(rhs))
    }
    /// Elementwise division.
    pub fn div(self, rhs: NpExpr) -> NpExpr {
        NpExpr::Binary(BinOp::Div, Box::new(self), Box::new(rhs))
    }
    /// Matrix product.
    pub fn matmul(self, rhs: NpExpr) -> NpExpr {
        NpExpr::MatMul(Box::new(self), Box::new(rhs))
    }

    /// The rank (number of free dimensions) of the value this expression
    /// produces.
    pub fn rank(&self) -> usize {
        match self {
            NpExpr::View(v) => v.rank(),
            NpExpr::Const(_) | NpExpr::Param(_) => 0,
            NpExpr::Binary(_, a, b) => a.rank().max(b.rank()),
            NpExpr::MatMul(a, b) => (a.rank() + b.rank()).saturating_sub(2),
            NpExpr::Sum(a, axis) => match axis {
                Some(_) => a.rank().saturating_sub(1),
                None => 0,
            },
        }
    }

    /// Counts the framework-level operations a NumPy-like runtime would
    /// execute for this expression (one per operator node).
    fn count_ops(&self, ops: &mut Vec<FrameworkOpKind>) {
        match self {
            NpExpr::View(_) | NpExpr::Const(_) | NpExpr::Param(_) => {}
            NpExpr::Binary(_, a, b) => {
                a.count_ops(ops);
                b.count_ops(ops);
                ops.push(FrameworkOpKind::Elementwise);
            }
            NpExpr::MatMul(a, b) => {
                a.count_ops(ops);
                b.count_ops(ops);
                ops.push(FrameworkOpKind::MatMul);
            }
            NpExpr::Sum(a, _) => {
                a.count_ops(ops);
                ops.push(FrameworkOpKind::Reduction);
            }
        }
    }
}

/// The target of an assignment: a (possibly sliced) view.
pub type NpTarget = ArrayView;

/// A Python-level statement.
#[derive(Clone, PartialEq, Debug)]
pub enum NpStmt {
    /// `target = value`.
    Assign {
        /// Assigned view.
        target: NpTarget,
        /// Assigned expression.
        value: NpExpr,
    },
    /// `target op= value`.
    AugAssign {
        /// Updated view.
        target: NpTarget,
        /// Combining operator.
        op: BinOp,
        /// Combined expression.
        value: NpExpr,
    },
    /// `for it in range(lower, upper): body` — an explicit Python loop.
    For {
        /// Loop variable.
        iter: Var,
        /// Inclusive lower bound.
        lower: Expr,
        /// Exclusive upper bound.
        upper: Expr,
        /// Loop body.
        body: Vec<NpStmt>,
    },
}

/// Kinds of framework-level operations, used by the Python-framework cost
/// models in the `baselines` crate.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FrameworkOpKind {
    /// An elementwise kernel producing a temporary.
    Elementwise,
    /// A matrix product dispatched to a vendor BLAS by NumPy/DaCe.
    MatMul,
    /// An axis reduction.
    Reduction,
}

/// One framework-level operation with its dynamic execution count.
#[derive(Clone, PartialEq, Debug)]
pub struct FrameworkOp {
    /// The kind of operation.
    pub kind: FrameworkOpKind,
    /// How many times the Python statement containing it executes (product of
    /// enclosing explicit Python loop trip counts).
    pub invocations: i64,
    /// Number of output elements produced per invocation.
    pub output_elements: i64,
}

/// A NumPy-style program: declarations plus Python-level statements.
#[derive(Clone, Debug, Default)]
pub struct NumpyProgram {
    name: String,
    params: Vec<(String, i64)>,
    scalars: Vec<(String, f64)>,
    arrays: Vec<(String, Vec<Expr>)>,
    stmts: Vec<NpStmt>,
}

impl NumpyProgram {
    /// Creates an empty NumPy-style program.
    pub fn new(name: impl Into<String>) -> Self {
        NumpyProgram {
            name: name.into(),
            ..Default::default()
        }
    }

    /// Declares an integer parameter.
    pub fn param(mut self, name: &str, value: i64) -> Self {
        self.params.push((name.to_string(), value));
        self
    }

    /// Declares a scalar parameter.
    pub fn scalar(mut self, name: &str, value: f64) -> Self {
        self.scalars.push((name.to_string(), value));
        self
    }

    /// Declares an array with named-parameter extents.
    pub fn array(mut self, name: &str, dims: &[&str]) -> Self {
        self.arrays.push((
            name.to_string(),
            dims.iter().map(|d| Expr::Var(Var::new(*d))).collect(),
        ));
        self
    }

    /// Appends a statement.
    pub fn stmt(mut self, stmt: NpStmt) -> Self {
        self.stmts.push(stmt);
        self
    }

    /// Returns the declared extents of an array (used to build whole-array
    /// views).
    pub fn extents(&self, name: &str) -> Option<Vec<Expr>> {
        self.arrays
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, d)| d.clone())
    }

    /// Lowers the program to the loop-nest IR, returning the lowered program
    /// and the framework-operation trace.
    ///
    /// Each Python statement becomes its own loop nest (or a pair of nests
    /// for `A @ B`, which needs an initialization), nested inside loops
    /// generated for the explicit Python `for` statements — the same
    /// operator-at-a-time structure a Python frontend produces.
    ///
    /// # Errors
    /// Returns an error if the lowered program does not validate, if an
    /// expression mixes incompatible ranks, or if a statement nests deeper
    /// than the text parser allows (`for` statements and expression
    /// operators counted together): lowering recurses once per level.
    pub fn lower(&self) -> Result<(Program, Vec<FrameworkOp>)> {
        for (index, stmt) in self.stmts.iter().enumerate() {
            if nesting_depth(stmt) > MAX_NESTING {
                let what = match stmt {
                    NpStmt::Assign { target, .. } | NpStmt::AugAssign { target, .. } => {
                        format!("assignment to `{}`", target.array)
                    }
                    NpStmt::For { iter, .. } => format!("`for {iter}`"),
                };
                return Err(IrError::Invalid(format!(
                    "statement {index} ({what}) of `{}` nests deeper than {MAX_NESTING} levels",
                    self.name
                )));
            }
        }
        let mut builder = Program::builder(self.name.clone());
        for (name, value) in &self.params {
            builder = builder.param(name, *value);
        }
        for (name, value) in &self.scalars {
            builder = builder.scalar(name, *value);
        }
        for (name, dims) in &self.arrays {
            builder = builder.array_with_dims(name, dims.clone());
        }
        let mut lowering = Lowering {
            next_stmt: 0,
            param_bindings: self
                .params
                .iter()
                .map(|(n, v)| (Var::new(n.as_str()), *v))
                .collect(),
            ops: Vec::new(),
        };
        let mut nodes = Vec::new();
        for stmt in &self.stmts {
            nodes.extend(lowering.lower_stmt(stmt, &[])?);
        }
        let program = builder.nodes(nodes).build()?;
        Ok((program, lowering.ops))
    }
}

/// How deep `stmt` nests: one level per `for` and per operator of an
/// expression, counted without recursing (the tree may be too deep for
/// that).
fn nesting_depth(stmt: &NpStmt) -> usize {
    enum Item<'a> {
        Stmt(&'a NpStmt),
        Expr(&'a NpExpr),
    }
    let mut deepest = 0;
    let mut pending = vec![(Item::Stmt(stmt), 0)];
    while let Some((item, depth)) = pending.pop() {
        deepest = deepest.max(depth);
        match item {
            Item::Stmt(NpStmt::For { body, .. }) => {
                pending.extend(body.iter().map(|s| (Item::Stmt(s), depth + 1)));
            }
            Item::Stmt(NpStmt::Assign { value, .. } | NpStmt::AugAssign { value, .. }) => {
                pending.push((Item::Expr(value), depth));
            }
            Item::Expr(NpExpr::Binary(_, a, b) | NpExpr::MatMul(a, b)) => {
                pending.push((Item::Expr(a), depth + 1));
                pending.push((Item::Expr(b), depth + 1));
            }
            Item::Expr(NpExpr::Sum(a, _)) => pending.push((Item::Expr(a), depth + 1)),
            Item::Expr(NpExpr::View(_) | NpExpr::Const(_) | NpExpr::Param(_)) => {}
        }
    }
    deepest
}

struct Lowering {
    next_stmt: u32,
    param_bindings: BTreeMap<Var, i64>,
    ops: Vec<FrameworkOp>,
}

impl Lowering {
    fn fresh_name(&mut self) -> String {
        let name = format!("S{}", self.next_stmt);
        self.next_stmt += 1;
        name
    }

    fn invocations(&self, enclosing: &[(Var, Expr, Expr)]) -> i64 {
        enclosing
            .iter()
            .map(|(_, lo, hi)| {
                let lo = lo.eval(&self.param_bindings).unwrap_or(0);
                let hi = hi.eval(&self.param_bindings).unwrap_or(0);
                (hi - lo).max(1)
            })
            .product::<i64>()
            .max(1)
    }

    fn record_ops(&mut self, value: &NpExpr, invocations: i64, output_elements: i64) {
        let mut kinds = Vec::new();
        value.count_ops(&mut kinds);
        if kinds.is_empty() {
            // A bare copy still runs one elementwise kernel.
            kinds.push(FrameworkOpKind::Elementwise);
        }
        for kind in kinds {
            self.ops.push(FrameworkOp {
                kind,
                invocations,
                output_elements,
            });
        }
    }

    fn lower_stmt(&mut self, stmt: &NpStmt, enclosing: &[(Var, Expr, Expr)]) -> Result<Vec<Node>> {
        match stmt {
            NpStmt::For {
                iter,
                lower,
                upper,
                body,
            } => {
                let mut inner_ctx = enclosing.to_vec();
                inner_ctx.push((iter.clone(), lower.clone(), upper.clone()));
                let mut inner_nodes = Vec::new();
                for s in body {
                    inner_nodes.extend(self.lower_stmt(s, &inner_ctx)?);
                }
                Ok(vec![Node::Loop(Loop::new(
                    iter.clone(),
                    lower.clone(),
                    upper.clone(),
                    inner_nodes,
                ))])
            }
            NpStmt::Assign { target, value } => self.lower_assign(target, None, value, enclosing),
            NpStmt::AugAssign { target, op, value } => {
                self.lower_assign(target, Some(*op), value, enclosing)
            }
        }
    }

    fn lower_assign(
        &mut self,
        target: &NpTarget,
        reduction: Option<BinOp>,
        value: &NpExpr,
        enclosing: &[(Var, Expr, Expr)],
    ) -> Result<Vec<Node>> {
        let rank = target.rank();
        let depth = enclosing.len();
        let iters: Vec<Var> = (0..rank)
            .map(|d| Var::new(format!("_i{}_{}", depth, d)))
            .collect();
        let iter_exprs: Vec<Expr> = iters.iter().map(|v| Expr::Var(v.clone())).collect();

        let output_elements: i64 = (0..rank)
            .map(|d| {
                target
                    .extent(d)
                    .eval(&self.param_bindings)
                    .unwrap_or(1)
                    .max(1)
            })
            .product::<i64>()
            .max(1);
        self.record_ops(value, self.invocations(enclosing), output_elements);

        let mut nodes = Vec::new();
        let target_ref = target.element(&iter_exprs);
        match value {
            NpExpr::MatMul(a, b) => {
                // target (op)= A @ B lowers to an (optional) initialization
                // nest plus an accumulation nest over the contracted
                // dimension, exactly like a frontend expanding `matmul`.
                let (NpExpr::View(av), NpExpr::View(bv)) = (a.as_ref(), b.as_ref()) else {
                    return Err(IrError::Invalid(
                        "matmul operands must be array views".to_string(),
                    ));
                };
                let k_iter = Var::new(format!("_k{}", depth));
                let k_expr = Expr::Var(k_iter.clone());
                let contraction = av.extent(av.rank() - 1);
                let (a_elem, b_elem) = match (av.rank(), bv.rank()) {
                    (2, 2) => (
                        av.element(&[iter_exprs[0].clone(), k_expr.clone()]),
                        bv.element(&[k_expr.clone(), iter_exprs[1].clone()]),
                    ),
                    (2, 1) => (
                        av.element(&[iter_exprs[0].clone(), k_expr.clone()]),
                        bv.element(std::slice::from_ref(&k_expr)),
                    ),
                    (1, 2) => (
                        av.element(std::slice::from_ref(&k_expr)),
                        bv.element(&[k_expr.clone(), iter_exprs[0].clone()]),
                    ),
                    (ra, rb) => {
                        return Err(IrError::Invalid(format!(
                            "unsupported matmul ranks {ra} x {rb}"
                        )))
                    }
                };
                if reduction.is_none() {
                    let init = Computation::assign(
                        self.fresh_name(),
                        target_ref.clone(),
                        ScalarExpr::Const(0.0),
                    );
                    nodes.push(self.wrap_loops(target, &iters, vec![Node::Computation(init)]));
                }
                let update = Computation::reduction(
                    self.fresh_name(),
                    target_ref,
                    reduction.unwrap_or(BinOp::Add),
                    ScalarExpr::Load(a_elem) * ScalarExpr::Load(b_elem),
                );
                let k_loop = Node::Loop(Loop::new(
                    k_iter,
                    cst(0),
                    contraction,
                    vec![Node::Computation(update)],
                ));
                nodes.push(self.wrap_loops(target, &iters, vec![k_loop]));
            }
            NpExpr::Sum(inner, axis) => {
                let NpExpr::View(view) = inner.as_ref() else {
                    return Err(IrError::Invalid(
                        "sum operand must be an array view".to_string(),
                    ));
                };
                let reduce_axis = axis.unwrap_or(0);
                let r_iter = Var::new(format!("_r{}", depth));
                let r_expr = Expr::Var(r_iter.clone());
                // Element of the view with the reduced axis iterated by
                // `r_iter` and the remaining axes by the target iterators.
                let mut elem_iters = Vec::new();
                let mut out_pos = 0usize;
                for d in 0..view.rank() {
                    if d == reduce_axis {
                        elem_iters.push(r_expr.clone());
                    } else {
                        elem_iters.push(iter_exprs.get(out_pos).cloned().unwrap_or(cst(0)));
                        out_pos += 1;
                    }
                }
                let extent = view.extent(reduce_axis);
                if reduction.is_none() {
                    let init = Computation::assign(
                        self.fresh_name(),
                        target_ref.clone(),
                        ScalarExpr::Const(0.0),
                    );
                    nodes.push(self.wrap_loops(target, &iters, vec![Node::Computation(init)]));
                }
                let update = Computation::reduction(
                    self.fresh_name(),
                    target_ref,
                    BinOp::Add,
                    ScalarExpr::Load(view.element(&elem_iters)),
                );
                let r_loop = Node::Loop(Loop::new(
                    r_iter,
                    cst(0),
                    extent,
                    vec![Node::Computation(update)],
                ));
                nodes.push(self.wrap_loops(target, &iters, vec![r_loop]));
            }
            other => {
                let scalar = self.lower_elementwise(other, &iter_exprs)?;
                let comp = match reduction {
                    Some(op) => Computation::reduction(self.fresh_name(), target_ref, op, scalar),
                    None => Computation::assign(self.fresh_name(), target_ref, scalar),
                };
                nodes.push(self.wrap_loops(target, &iters, vec![Node::Computation(comp)]));
            }
        }
        Ok(nodes)
    }

    fn wrap_loops(&self, target: &NpTarget, iters: &[Var], mut body: Vec<Node>) -> Node {
        // Innermost dimension first when folding from the inside out.
        for (d, iter) in iters.iter().enumerate().rev() {
            let extent = target.extent(d);
            body = vec![Node::Loop(Loop::new(iter.clone(), cst(0), extent, body))];
        }
        match body.into_iter().next() {
            Some(node) => node,
            // Rank-0 target: a single scalar statement without loops.
            None => unreachable!("wrap_loops always receives a body"),
        }
    }

    fn lower_elementwise(&mut self, value: &NpExpr, iters: &[Expr]) -> Result<ScalarExpr> {
        match value {
            NpExpr::View(v) => {
                let used = &iters[..v.rank().min(iters.len())];
                Ok(ScalarExpr::Load(v.element(used)))
            }
            NpExpr::Const(c) => Ok(ScalarExpr::Const(*c)),
            NpExpr::Param(p) => Ok(ScalarExpr::Param(p.clone())),
            NpExpr::Binary(op, a, b) => Ok(ScalarExpr::Binary(
                *op,
                Box::new(self.lower_elementwise(a, iters)?),
                Box::new(self.lower_elementwise(b, iters)?),
            )),
            NpExpr::MatMul(_, _) | NpExpr::Sum(_, _) => Err(IrError::Invalid(
                "matmul/sum must be the top-level expression of a statement".to_string(),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::var;

    /// `D = alpha * (A @ B)` is not directly expressible (matmul must be top
    /// level), so the NPBench-style formulation uses two statements.
    fn gemm_py() -> NumpyProgram {
        let p = NumpyProgram::new("gemm_py")
            .param("NI", 6)
            .param("NJ", 5)
            .param("NK", 4)
            .scalar("alpha", 1.5)
            .scalar("beta", 1.2)
            .array("A", &["NI", "NK"])
            .array("B", &["NK", "NJ"])
            .array("C", &["NI", "NJ"]);
        let a = ArrayView::whole("A", &p.extents("A").unwrap());
        let b = ArrayView::whole("B", &p.extents("B").unwrap());
        let c = ArrayView::whole("C", &p.extents("C").unwrap());
        p.stmt(NpStmt::Assign {
            target: c.clone(),
            value: NpExpr::View(c.clone()).mul(NpExpr::Param(Var::new("beta"))),
        })
        .stmt(NpStmt::AugAssign {
            target: c,
            op: BinOp::Add,
            value: NpExpr::View(a).matmul(NpExpr::View(b)),
        })
    }

    #[test]
    fn gemm_lowering_structure() {
        let (program, ops) = gemm_py().lower().unwrap();
        assert!(program.validate().is_ok());
        // statement 1: one 2-deep nest; statement 2: one 3-deep nest
        // (no init because it is an AugAssign).
        assert_eq!(program.loop_nests().len(), 2);
        assert_eq!(program.max_depth(), 3);
        assert_eq!(ops.len(), 2);
        assert_eq!(ops[0].kind, FrameworkOpKind::Elementwise);
        assert_eq!(ops[1].kind, FrameworkOpKind::MatMul);
        assert_eq!(ops[0].output_elements, 30);
    }

    #[test]
    fn plain_matmul_assignment_adds_init_nest() {
        let p = NumpyProgram::new("mm")
            .param("N", 4)
            .array("A", &["N", "N"])
            .array("B", &["N", "N"])
            .array("C", &["N", "N"]);
        let a = ArrayView::whole("A", &p.extents("A").unwrap());
        let b = ArrayView::whole("B", &p.extents("B").unwrap());
        let c = ArrayView::whole("C", &p.extents("C").unwrap());
        let (program, _) = p
            .stmt(NpStmt::Assign {
                target: c,
                value: NpExpr::View(a).matmul(NpExpr::View(b)),
            })
            .lower()
            .unwrap();
        assert_eq!(program.loop_nests().len(), 2);
        assert_eq!(program.computations().len(), 2);
        assert!(program.computations()[0].reduction.is_none());
        assert_eq!(program.computations()[1].reduction, Some(BinOp::Add));
    }

    #[test]
    fn triangular_slices_like_npbench_syrk() {
        // for i in range(N): C[i, :i+1] += alpha * A[i, k-ish] broadcast —
        // simplified to C[i, :i+1] *= beta as in the NPBench SYRK prologue.
        let p = NumpyProgram::new("syrk_prologue")
            .param("N", 8)
            .param("M", 6)
            .scalar("beta", 1.2)
            .array("C", &["N", "N"]);
        let body = NpStmt::AugAssign {
            target: ArrayView::sliced(
                "C",
                vec![
                    Range::index(var("i")),
                    Range::new(cst(0), var("i") + cst(1)),
                ],
            ),
            op: BinOp::Mul,
            value: NpExpr::Param(Var::new("beta")),
        };
        let (program, ops) = p
            .stmt(NpStmt::For {
                iter: Var::new("i"),
                lower: cst(0),
                upper: var("N"),
                body: vec![body],
            })
            .lower()
            .unwrap();
        assert!(program.validate().is_ok());
        // one explicit python loop containing one generated 1-D nest.
        assert_eq!(program.max_depth(), 2);
        let comp = program.computations()[0];
        assert_eq!(comp.reduction, Some(BinOp::Mul));
        // the inner loop bound is triangular (depends on i).
        let nest = program.loop_nests()[0];
        let inner = nest.body[0].as_loop().unwrap();
        assert!(inner.upper.uses_var(&Var::new("i")));
        assert_eq!(ops[0].invocations, 8);
    }

    #[test]
    fn transposed_view_swaps_indices() {
        let p = NumpyProgram::new("t")
            .param("N", 4)
            .param("M", 3)
            .array("A", &["N", "M"])
            .array("B", &["M", "N"]);
        let a = ArrayView::whole("A", &p.extents("A").unwrap()).t();
        let b = ArrayView::whole("B", &p.extents("B").unwrap());
        let (program, _) = p
            .stmt(NpStmt::Assign {
                target: b,
                value: NpExpr::View(a),
            })
            .lower()
            .unwrap();
        let comp = program.computations()[0];
        // B[_i0_0][_i0_1] = A[_i0_1][_i0_0]
        let mut loads = Vec::new();
        comp.value.for_each_load(&mut |r| loads.push(r));
        let load = loads[0];
        assert_eq!(load.array.as_str(), "A");
        assert_eq!(comp.target.indices[0], load.indices[1]);
        assert_eq!(comp.target.indices[1], load.indices[0]);
    }

    #[test]
    fn axis_sum_lowering() {
        let p = NumpyProgram::new("rowsum")
            .param("N", 4)
            .param("M", 5)
            .array("A", &["N", "M"])
            .array("s", &["N"]);
        let a = ArrayView::whole("A", &p.extents("A").unwrap());
        let s = ArrayView::whole("s", &p.extents("s").unwrap());
        let (program, ops) = p
            .stmt(NpStmt::Assign {
                target: s,
                value: NpExpr::Sum(Box::new(NpExpr::View(a)), Some(1)),
            })
            .lower()
            .unwrap();
        assert!(program.validate().is_ok());
        assert_eq!(program.computations().len(), 2); // init + accumulate
        assert_eq!(ops[0].kind, FrameworkOpKind::Reduction);
        assert_eq!(program.max_depth(), 2);
    }

    #[test]
    fn expressions_deeper_than_the_parser_allows_are_refused() {
        let x = ArrayView::whole("X", &[var("N")]);
        let program = |depth: usize| {
            let mut value = NpExpr::View(x.clone());
            for _ in 0..depth {
                value = value.add(NpExpr::Const(1.0));
            }
            NumpyProgram::new("deep")
                .param("N", 4)
                .array("X", &["N"])
                .array("Y", &["N"])
                .stmt(NpStmt::Assign {
                    target: ArrayView::whole("Y", &[var("N")]),
                    value,
                })
        };
        assert!(program(MAX_NESTING).lower().is_ok());
        let err = program(300).lower().unwrap_err().to_string();
        assert!(
            err.contains("statement 0 (assignment to `Y`)") && err.contains("256 levels"),
            "{err}"
        );
        // `for` statements count toward the same limit.
        let looped = NumpyProgram::new("looped")
            .param("N", 4)
            .array("Y", &["N"])
            .stmt((0..300).fold(
                NpStmt::Assign {
                    target: ArrayView::sliced("Y", vec![Range::index(cst(0))]),
                    value: NpExpr::Const(1.0),
                },
                |body, level| NpStmt::For {
                    iter: Var::new(format!("t{level}")),
                    lower: cst(0),
                    upper: cst(1),
                    body: vec![body],
                },
            ));
        let err = looped.lower().unwrap_err().to_string();
        assert!(err.contains("statement 0 (`for t299`)"), "{err}");
    }

    #[test]
    fn matmul_inside_elementwise_is_rejected() {
        let p = NumpyProgram::new("bad")
            .param("N", 4)
            .array("A", &["N", "N"])
            .array("C", &["N", "N"]);
        let a = ArrayView::whole("A", &p.extents("A").unwrap());
        let c = ArrayView::whole("C", &p.extents("C").unwrap());
        let result = p
            .stmt(NpStmt::Assign {
                target: c.clone(),
                value: NpExpr::View(a.clone())
                    .matmul(NpExpr::View(a))
                    .add(NpExpr::Const(1.0)),
            })
            .lower();
        assert!(result.is_err());
    }

    #[test]
    fn matvec_lowering() {
        let p = NumpyProgram::new("mv")
            .param("N", 4)
            .param("M", 3)
            .array("A", &["N", "M"])
            .array("x", &["M"])
            .array("y", &["N"]);
        let a = ArrayView::whole("A", &p.extents("A").unwrap());
        let x = ArrayView::whole("x", &p.extents("x").unwrap());
        let y = ArrayView::whole("y", &p.extents("y").unwrap());
        let (program, _) = p
            .stmt(NpStmt::Assign {
                target: y,
                value: NpExpr::View(a).matmul(NpExpr::View(x)),
            })
            .lower()
            .unwrap();
        assert!(program.validate().is_ok());
        assert_eq!(program.max_depth(), 2);
    }
}
