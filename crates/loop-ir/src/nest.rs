//! Loop-nest tree nodes: loops, computations and library calls.
//!
//! The paper characterizes a loop nest as a tree of loop and computation
//! nodes (§2, Fig. 2). [`Node`] is that tree. Loops carry a symbolic iteration
//! domain and schedule annotations (parallel / vectorized / unrolled) that the
//! auto-schedulers attach; computations carry exactly one write target and a
//! scalar value expression.

use std::collections::BTreeSet;
use std::fmt;

use crate::array::{Access, ArrayRef};
use crate::expr::{cst, Expr, Var};
use crate::scalar::{BinOp, ScalarExpr};

/// Schedule annotations attached to a loop by a scheduler.
///
/// The normalization passes never set these; they are produced by the
/// optimization recipes (parallelization, vectorization, unrolling) that the
/// daisy scheduler and the baselines apply after normalization.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct LoopSchedule {
    /// Execute iterations of this loop on multiple threads.
    pub parallel: bool,
    /// Execute the loop with SIMD instructions.
    pub vectorize: bool,
    /// Unroll factor (1 = no unrolling).
    pub unroll: u32,
}

impl LoopSchedule {
    /// The default schedule: sequential, scalar, not unrolled.
    pub fn sequential() -> Self {
        LoopSchedule {
            parallel: false,
            vectorize: false,
            unroll: 1,
        }
    }

    /// A parallel schedule.
    pub fn parallel() -> Self {
        LoopSchedule {
            parallel: true,
            ..Self::sequential()
        }
    }

    /// A vectorized schedule.
    pub fn vectorized() -> Self {
        LoopSchedule {
            vectorize: true,
            ..Self::sequential()
        }
    }
}

/// A counted loop with a symbolic iteration domain `lower <= iter < upper`
/// advancing by `step`.
#[derive(Clone, PartialEq, Debug)]
pub struct Loop {
    /// The loop iterator variable.
    pub iter: Var,
    /// Inclusive lower bound.
    pub lower: Expr,
    /// Exclusive upper bound.
    pub upper: Expr,
    /// Positive step.
    pub step: i64,
    /// Ordered loop body.
    pub body: Vec<Node>,
    /// Scheduler annotations.
    pub schedule: LoopSchedule,
}

/// Iterations of `lower..upper step step` for `step > 0`. Exact for every
/// domain: the span `upper - lower` is taken in `u64`, where it always fits.
pub fn trip_count(lower: i64, upper: i64, step: i64) -> u64 {
    if upper <= lower {
        return 0;
    }
    (upper.abs_diff(lower) - 1) / step as u64 + 1
}

impl Loop {
    /// Creates a sequential loop with step 1.
    pub fn new(iter: impl Into<Var>, lower: Expr, upper: Expr, body: Vec<Node>) -> Self {
        Loop {
            iter: iter.into(),
            lower,
            upper,
            step: 1,
            body,
            schedule: LoopSchedule::sequential(),
        }
    }

    /// Returns the trip count under the given parameter bindings, if it can
    /// be evaluated and fits in `i64`.
    pub fn trip_count(&self, bindings: &std::collections::BTreeMap<Var, i64>) -> Option<i64> {
        let lo = self.lower.eval(bindings)?;
        let hi = self.upper.eval(bindings)?;
        if self.step <= 0 {
            return None;
        }
        i64::try_from(trip_count(lo, hi, self.step)).ok()
    }

    /// Returns all computations contained (transitively) in this loop.
    pub fn computations(&self) -> Vec<&Computation> {
        let mut out = Vec::new();
        for node in &self.body {
            node.collect_computations(&mut out);
        }
        out
    }

    /// Returns the iterators of this loop and all nested loops in in-order
    /// traversal order (the order used by the stride-minimization pass).
    pub fn nested_iterators(&self) -> Vec<Var> {
        let mut out = vec![self.iter.clone()];
        for node in &self.body {
            node.collect_iterators(&mut out);
        }
        out
    }

    /// True if this loop's body contains exactly one node which is itself a
    /// loop or computation, i.e. the nest is perfect down to this level.
    pub fn is_perfect_nest(&self) -> bool {
        match self.body.as_slice() {
            [Node::Loop(inner)] => inner.is_perfect_nest(),
            [Node::Computation(_)] => true,
            body => body.iter().all(|n| matches!(n, Node::Computation(_))),
        }
    }

    /// Depth of the loop nest rooted at this loop (a loop with no nested
    /// loops has depth 1).
    pub fn depth(&self) -> usize {
        1 + self
            .body
            .iter()
            .map(Node::max_loop_depth)
            .max()
            .unwrap_or(0)
    }
}

/// Identifier of a computation inside a program. Identifiers are unique per
/// program and survive transformations so that optimization recipes can refer
/// to statements stably.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct CompId(pub u32);

impl fmt::Display for CompId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S{}", self.0)
    }
}

/// A computation: exactly one write of a scalar value to a data container,
/// possibly as a reduction (`target op= value`).
#[derive(Clone, PartialEq, Debug)]
pub struct Computation {
    /// Stable identifier, assigned by the program builder.
    pub id: CompId,
    /// Human-readable statement name (`S1`, `S2`, …).
    pub name: String,
    /// The written element.
    pub target: ArrayRef,
    /// `Some(op)` if the statement is a reduction update
    /// (`target = target op value`), `None` for a plain assignment.
    pub reduction: Option<BinOp>,
    /// The value written (or combined into) the target.
    pub value: ScalarExpr,
}

impl Computation {
    /// Creates a plain assignment `target = value`.
    pub fn assign(name: impl Into<String>, target: ArrayRef, value: ScalarExpr) -> Self {
        Computation {
            id: CompId::default(),
            name: name.into(),
            target,
            reduction: None,
            value,
        }
    }

    /// Creates a reduction update `target = target op value`.
    pub fn reduction(
        name: impl Into<String>,
        target: ArrayRef,
        op: BinOp,
        value: ScalarExpr,
    ) -> Self {
        Computation {
            id: CompId::default(),
            name: name.into(),
            target,
            reduction: Some(op),
            value,
        }
    }

    /// Every memory access performed by the computation: all loads of the
    /// value expression, plus a read of the target when the statement is a
    /// reduction, plus the write of the target.
    pub fn accesses(&self) -> Vec<Access<'_>> {
        let mut out: Vec<Access<'_>> = self.value.loads().into_iter().map(Access::read).collect();
        if self.reduction.is_some() {
            out.push(Access::read(&self.target));
        }
        out.push(Access::write(&self.target));
        out
    }

    /// The read accesses of the computation.
    pub fn reads(&self) -> Vec<&ArrayRef> {
        let mut out = self.value.loads();
        if self.reduction.is_some() {
            out.push(&self.target);
        }
        out
    }

    /// The single write access of the computation.
    pub fn write(&self) -> &ArrayRef {
        &self.target
    }

    /// Names of all arrays touched by the computation.
    pub fn arrays(&self) -> BTreeSet<Var> {
        let mut out: BTreeSet<Var> = self.reads().into_iter().map(|r| r.array.clone()).collect();
        out.insert(self.target.array.clone());
        out
    }

    /// Iterator variables referenced by subscripts of this computation.
    pub fn referenced_vars(&self) -> BTreeSet<Var> {
        let mut out = self.value.index_vars();
        for idx in &self.target.indices {
            out.extend(idx.vars());
        }
        out
    }

    /// Renames an iterator in every access of the computation.
    pub fn rename_iterator(&self, from: &Var, to: &Var) -> Computation {
        let replacement = Expr::Var(to.clone());
        Computation {
            id: self.id,
            name: self.name.clone(),
            target: self.target.substitute(from, &replacement),
            reduction: self.reduction,
            value: self.value.substitute_index(from, &replacement),
        }
    }

    /// Floating point operations per dynamic execution of the statement.
    pub fn flops(&self) -> u64 {
        self.value.flop_count() + u64::from(self.reduction.is_some())
    }
}

impl fmt::Display for Computation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.reduction {
            Some(op) => write!(f, "{} {}= {}", self.target, op, self.value),
            None => write!(f, "{} = {}", self.target, self.value),
        }
    }
}

/// The BLAS kernels recognized by idiom detection (§4, "Seeding a Scheduling
/// Database": BLAS-3 loop nests are replaced by matching library calls).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BlasKind {
    /// General matrix-matrix multiply `C += alpha * A * B` (optionally scaled).
    Gemm,
    /// Symmetric rank-k update `C += alpha * A * A^T`.
    Syrk,
    /// Symmetric rank-2k update `C += alpha * (A*B^T + B*A^T)`.
    Syr2k,
    /// General matrix-vector multiply `y += alpha * A * x`.
    Gemv,
}

impl fmt::Display for BlasKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BlasKind::Gemm => "dgemm",
            BlasKind::Syrk => "dsyrk",
            BlasKind::Syr2k => "dsyr2k",
            BlasKind::Gemv => "dgemv",
        };
        f.write_str(s)
    }
}

/// A call to an optimized library kernel, inserted by idiom detection in
/// place of a recognized loop nest.
#[derive(Clone, PartialEq, Debug)]
pub struct BlasCall {
    /// Which kernel is called.
    pub kind: BlasKind,
    /// Output array name.
    pub output: Var,
    /// Input array names in kernel order (e.g. `[A, B]` for GEMM).
    pub inputs: Vec<Var>,
    /// Problem dimensions in kernel order (e.g. `[M, N, K]` for GEMM).
    pub dims: Vec<Expr>,
    /// Scaling factor applied to the product term.
    pub alpha: ScalarExpr,
    /// Scaling factor applied to the existing output (`C = beta*C + …`);
    /// `1.0` when the nest only accumulates.
    pub beta: ScalarExpr,
}

impl BlasCall {
    /// Floating-point operations performed by the call under the given
    /// parameter bindings.
    pub fn flops(&self, bindings: &std::collections::BTreeMap<Var, i64>) -> Option<u64> {
        let dims: Option<Vec<i64>> = self.dims.iter().map(|d| d.eval(bindings)).collect();
        let dims = dims?;
        let count = match self.kind {
            BlasKind::Gemm | BlasKind::Syr2k => 2 * dims.iter().product::<i64>(),
            BlasKind::Syrk => dims.iter().product::<i64>(),
            BlasKind::Gemv => 2 * dims.iter().product::<i64>(),
        };
        u64::try_from(count.max(0)).ok()
    }
}

impl fmt::Display for BlasCall {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}({}", self.kind, self.output)?;
        for input in &self.inputs {
            write!(f, ", {input}")?;
        }
        write!(f, ")")
    }
}

/// A node of the loop-nest tree.
#[derive(Clone, PartialEq, Debug)]
pub enum Node {
    /// A loop with a body.
    Loop(Loop),
    /// A single computation.
    Computation(Computation),
    /// A call to an optimized library routine (after idiom detection).
    Call(BlasCall),
}

impl Node {
    /// Returns the contained loop, if this node is one.
    pub fn as_loop(&self) -> Option<&Loop> {
        match self {
            Node::Loop(l) => Some(l),
            _ => None,
        }
    }

    /// Returns the contained loop mutably, if this node is one.
    pub fn as_loop_mut(&mut self) -> Option<&mut Loop> {
        match self {
            Node::Loop(l) => Some(l),
            _ => None,
        }
    }

    /// Returns the contained computation, if this node is one.
    pub fn as_computation(&self) -> Option<&Computation> {
        match self {
            Node::Computation(c) => Some(c),
            _ => None,
        }
    }

    pub(crate) fn collect_computations<'a>(&'a self, out: &mut Vec<&'a Computation>) {
        match self {
            Node::Loop(l) => {
                for n in &l.body {
                    n.collect_computations(out);
                }
            }
            Node::Computation(c) => out.push(c),
            Node::Call(_) => {}
        }
    }

    pub(crate) fn collect_iterators(&self, out: &mut Vec<Var>) {
        if let Node::Loop(l) = self {
            out.push(l.iter.clone());
            for n in &l.body {
                n.collect_iterators(out);
            }
        }
    }

    /// Returns all computations contained in (and including) this node, in
    /// execution order.
    pub fn computations(&self) -> Vec<&Computation> {
        let mut out = Vec::new();
        self.collect_computations(&mut out);
        out
    }

    /// Maximum loop depth below (and including) this node.
    pub fn max_loop_depth(&self) -> usize {
        match self {
            Node::Loop(l) => l.depth(),
            _ => 0,
        }
    }

    /// Number of computation nodes below (and including) this node.
    pub fn computation_count(&self) -> usize {
        match self {
            Node::Loop(l) => l.body.iter().map(Node::computation_count).sum(),
            Node::Computation(_) => 1,
            Node::Call(_) => 0,
        }
    }
}

/// Builds a sequential loop node over `iter` in `[lower, upper)`.
///
/// ```
/// use loop_ir::prelude::*;
/// let node = for_loop("i", cst(0), var("N"), vec![]);
/// assert!(node.as_loop().is_some());
/// ```
pub fn for_loop(iter: impl Into<Var>, lower: Expr, upper: Expr, body: Vec<Node>) -> Node {
    Node::Loop(Loop::new(iter, lower, upper, body))
}

/// Builds a loop node annotated as parallel.
pub fn parallel_loop(iter: impl Into<Var>, lower: Expr, upper: Expr, body: Vec<Node>) -> Node {
    let mut l = Loop::new(iter, lower, upper, body);
    l.schedule.parallel = true;
    Node::Loop(l)
}

/// Builds a loop node from zero to an exclusive constant bound, a common
/// shorthand in tests.
pub fn counted_loop(iter: impl Into<Var>, n: i64, body: Vec<Node>) -> Node {
    for_loop(iter, cst(0), cst(n), body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{cst, var};
    use crate::scalar::load;
    use std::collections::BTreeMap;

    fn gemm_nest() -> Loop {
        let update = Computation::reduction(
            "S1",
            ArrayRef::new("C", vec![var("i"), var("j")]),
            BinOp::Add,
            load("A", vec![var("i"), var("k")]) * load("B", vec![var("k"), var("j")]),
        );
        Loop::new(
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
        )
    }

    #[test]
    fn trip_count_evaluates() {
        let l = Loop::new("i", cst(2), cst(10), vec![]);
        assert_eq!(l.trip_count(&BTreeMap::new()), Some(8));
        let mut strided = l.clone();
        strided.step = 3;
        assert_eq!(strided.trip_count(&BTreeMap::new()), Some(3));
    }

    #[test]
    fn trip_counts_are_exact_at_the_ends_of_i64() {
        let max = i64::MAX;
        assert_eq!(trip_count(-max, -max + 7, max), 1);
        assert_eq!(trip_count(max - 7, max, max), 1);
        assert_eq!(trip_count(i64::MIN, max, max), 3);
        assert_eq!(trip_count(i64::MIN, max, 1), u64::MAX);
        assert_eq!(trip_count(5, 5, 1), 0);
        // More trips than `i64` holds: not evaluable as a loop's count.
        let l = Loop::new("i", cst(i64::MIN), cst(max), vec![]);
        assert_eq!(l.trip_count(&BTreeMap::new()), None);
    }

    #[test]
    fn trip_count_with_symbolic_bounds() {
        let l = Loop::new("i", cst(0), var("N"), vec![]);
        let bindings = [(Var::new("N"), 100)].into_iter().collect();
        assert_eq!(l.trip_count(&bindings), Some(100));
        assert_eq!(l.trip_count(&BTreeMap::new()), None);
    }

    #[test]
    fn nested_iterators_in_order() {
        let nest = gemm_nest();
        let iters = nest.nested_iterators();
        assert_eq!(iters, vec![Var::new("i"), Var::new("j"), Var::new("k")]);
        assert_eq!(nest.depth(), 3);
    }

    #[test]
    fn perfect_nest_detection() {
        assert!(gemm_nest().is_perfect_nest());
        let mut imperfect = gemm_nest();
        imperfect.body.push(Node::Computation(Computation::assign(
            "S2",
            ArrayRef::new("D", vec![var("i")]),
            load("C", vec![var("i"), cst(0)]),
        )));
        assert!(!imperfect.is_perfect_nest());
    }

    #[test]
    fn computation_accesses_include_reduction_read() {
        let nest = gemm_nest();
        let comps = nest.computations();
        assert_eq!(comps.len(), 1);
        let accesses = comps[0].accesses();
        // reads of A, B, C (reduction) plus write of C.
        assert_eq!(accesses.len(), 4);
        assert_eq!(accesses.iter().filter(|a| a.is_write()).count(), 1);
    }

    #[test]
    fn computation_arrays_and_vars() {
        let nest = gemm_nest();
        let comp = nest.computations()[0];
        let arrays = comp.arrays();
        assert!(arrays.contains(&Var::new("A")));
        assert!(arrays.contains(&Var::new("B")));
        assert!(arrays.contains(&Var::new("C")));
        let vars = comp.referenced_vars();
        assert_eq!(vars.len(), 3);
    }

    #[test]
    fn rename_iterator_updates_all_accesses() {
        let nest = gemm_nest();
        let comp = nest.computations()[0].clone();
        let renamed = comp.rename_iterator(&Var::new("k"), &Var::new("kk"));
        assert!(!renamed.referenced_vars().contains(&Var::new("k")));
        assert!(renamed.referenced_vars().contains(&Var::new("kk")));
    }

    #[test]
    fn flops_count_reduction() {
        let nest = gemm_nest();
        let comp = nest.computations()[0];
        // one multiply in the value plus the reduction add.
        assert_eq!(comp.flops(), 2);
    }

    #[test]
    fn blas_call_flops() {
        let call = BlasCall {
            kind: BlasKind::Gemm,
            output: Var::new("C"),
            inputs: vec![Var::new("A"), Var::new("B")],
            dims: vec![var("NI"), var("NJ"), var("NK")],
            alpha: crate::scalar::fconst(1.0),
            beta: crate::scalar::fconst(1.0),
        };
        let bindings = [
            (Var::new("NI"), 10),
            (Var::new("NJ"), 20),
            (Var::new("NK"), 30),
        ]
        .into_iter()
        .collect();
        assert_eq!(call.flops(&bindings), Some(2 * 10 * 20 * 30));
        assert_eq!(format!("{call}"), "dgemm(C, A, B)");
    }

    #[test]
    fn node_helpers() {
        let n = counted_loop("i", 4, vec![]);
        assert!(n.as_loop().is_some());
        assert!(n.as_computation().is_none());
        assert_eq!(n.computation_count(), 0);
        let p = parallel_loop("i", cst(0), cst(4), vec![]);
        assert!(p.as_loop().unwrap().schedule.parallel);
    }

    #[test]
    fn schedule_constructors() {
        assert!(LoopSchedule::parallel().parallel);
        assert!(LoopSchedule::vectorized().vectorize);
        assert_eq!(LoopSchedule::sequential().unroll, 1);
    }

    #[test]
    fn computation_display() {
        let nest = gemm_nest();
        let comp = nest.computations()[0];
        let text = format!("{comp}");
        assert!(text.contains("C[i][j] += "));
    }
}
