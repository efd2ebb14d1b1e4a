//! The top-level [`Program`]: parameters, array declarations and a sequence
//! of loop-nest trees.

use std::collections::BTreeMap;

use crate::array::Array;
use crate::builder::ProgramBuilder;
use crate::error::{IrError, Result};
use crate::expr::{Expr, Var};
use crate::nest::{CompId, Computation, Loop, Node};
use crate::visit::{walk_computations, CompContext, StructuralHasher};

/// A complete program: symbolic integer parameters with concrete bindings,
/// symbolic scalar parameters, array declarations, and an ordered sequence of
/// top-level nodes (usually loop nests).
///
/// Programs are semantically a straight-line sequence of their top-level
/// nodes; there is no other control flow, matching the paper's definition of
/// loop nests as SESE regions extracted from the application.
#[derive(Clone, PartialEq, Debug)]
pub struct Program {
    /// Program name (benchmark name).
    pub name: String,
    /// Integer size parameters and their concrete values (the "problem size").
    pub params: BTreeMap<Var, i64>,
    /// Scalar floating-point parameters (e.g. `alpha`, `beta`).
    pub scalar_params: BTreeMap<Var, f64>,
    /// Declared arrays by name.
    pub arrays: BTreeMap<Var, Array>,
    /// Ordered top-level nodes.
    pub body: Vec<Node>,
}

impl Program {
    /// Starts building a program with the given name.
    pub fn builder(name: impl Into<String>) -> ProgramBuilder {
        ProgramBuilder::new(name)
    }

    /// Returns the declared array, or an error mentioning the name.
    pub fn array(&self, name: &Var) -> Result<&Array> {
        self.arrays
            .get(name)
            .ok_or_else(|| IrError::UnknownArray(name.to_string()))
    }

    /// All computations of the program in textual (execution) order.
    pub fn computations(&self) -> Vec<&Computation> {
        let mut out = Vec::new();
        for node in &self.body {
            node.for_each_computation(&mut |c| out.push(c));
        }
        out
    }

    /// All computations together with their enclosing loop context, in
    /// execution order.
    pub fn computation_contexts(&self) -> Vec<CompContext<'_>> {
        walk_computations(&self.body)
    }

    /// The top-level loop nests of the program (non-loop top-level nodes are
    /// skipped).
    pub fn loop_nests(&self) -> Vec<&Loop> {
        self.body.iter().filter_map(Node::as_loop).collect()
    }

    /// Looks up a computation by its stable identifier.
    pub fn computation(&self, id: CompId) -> Option<&Computation> {
        self.computations().into_iter().find(|c| c.id == id)
    }

    /// Number of computations in the program.
    pub fn computation_count(&self) -> usize {
        self.body.iter().map(Node::computation_count).sum()
    }

    /// Maximum loop depth across all nests.
    pub fn max_depth(&self) -> usize {
        self.body
            .iter()
            .map(Node::max_loop_depth)
            .max()
            .unwrap_or(0)
    }

    /// Concrete value of an integer parameter.
    pub fn param(&self, name: &str) -> Option<i64> {
        self.params.get(&Var::new(name)).copied()
    }

    /// Concrete value of a scalar parameter.
    pub fn scalar_param(&self, name: &str) -> Option<f64> {
        self.scalar_params.get(&Var::new(name)).copied()
    }

    /// Replaces the concrete value bound to an integer parameter.
    ///
    /// # Errors
    /// Returns [`IrError::UnknownParam`] if the parameter was never declared.
    pub fn set_param(&mut self, name: &str, value: i64) -> Result<()> {
        let key = Var::new(name);
        match self.params.get_mut(&key) {
            Some(slot) => {
                *slot = value;
                Ok(())
            }
            None => Err(IrError::UnknownParam(name.to_string())),
        }
    }

    /// Returns a copy of the program with a different problem size.
    pub fn with_params(&self, new_params: &[(&str, i64)]) -> Result<Program> {
        let mut out = self.clone();
        for (name, value) in new_params {
            out.set_param(name, *value)?;
        }
        Ok(out)
    }

    /// Re-assigns fresh, dense [`CompId`]s in execution order. Used by the
    /// builder and by transformations that duplicate statements.
    pub fn renumber_computations(&mut self) {
        let mut next = 0u32;
        fn visit(node: &mut Node, next: &mut u32) {
            match node {
                Node::Loop(l) => {
                    for n in &mut l.body {
                        visit(n, next);
                    }
                }
                Node::Computation(c) => {
                    c.id = CompId(*next);
                    *next += 1;
                }
                Node::Call(_) => {}
            }
        }
        for node in &mut self.body {
            visit(node, &mut next);
        }
    }

    /// Structural hash of the full program: environment
    /// ([`environment_hash`](Self::environment_hash)) plus body structure.
    ///
    /// Two programs share a hash exactly when they have the same parameters,
    /// array declarations and structurally identical bodies (statement names
    /// and ids excluded — see [`crate::visit::structural_hash_nodes`]). The
    /// scheduler uses this to recognize candidate programs it has already
    /// evaluated.
    pub fn structural_hash(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut hasher = StructuralHasher::default();
        self.environment_hash().hash(&mut hasher);
        crate::visit::structural_hash_nodes(&self.body).hash(&mut hasher);
        hasher.finish()
    }

    /// Hash of everything a body's cost can depend on *besides* the body:
    /// integer parameters, scalar parameters and array declarations.
    ///
    /// Transformations only rewrite `body`, so all candidate programs of one
    /// scheduling run share an environment hash; the cost model combines it
    /// with per-nest structural hashes as its memoization key.
    pub fn environment_hash(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut hasher = StructuralHasher::default();
        for (name, value) in &self.params {
            name.hash(&mut hasher);
            value.hash(&mut hasher);
        }
        for (name, value) in &self.scalar_params {
            name.hash(&mut hasher);
            value.to_bits().hash(&mut hasher);
        }
        for (name, array) in &self.arrays {
            name.hash(&mut hasher);
            array.dims.hash(&mut hasher);
            array.elem_size.hash(&mut hasher);
        }
        hasher.finish()
    }

    /// Validates the structural invariants of the program:
    ///
    /// * every array extent uses declared integer parameters only,
    /// * every accessed array is declared and accessed with matching rank,
    /// * every variable used in subscripts and bounds is either an enclosing
    ///   loop iterator or a declared integer parameter,
    /// * loop iterators are not shadowed within a nest,
    /// * loop steps are positive.
    ///
    /// Allocates nothing but its stack of enclosing iterators.
    ///
    /// # Errors
    /// Returns the first violated invariant.
    pub fn validate(&self) -> Result<()> {
        for array in self.arrays.values() {
            for dim in &array.dims {
                check_vars(dim, |v| self.params.contains_key(v))?;
            }
        }
        self.validate_nodes(&self.body)
    }

    /// Validates a hypothetical node sequence against this program's
    /// declarations — the check [`validate`](Self::validate) would perform on
    /// the body if `nodes` replaced part of it. Used by the scheduler to vet
    /// a transformed nest without materializing the whole candidate program.
    ///
    /// # Errors
    /// Returns the first violated invariant.
    pub fn validate_nodes(&self, nodes: &[Node]) -> Result<()> {
        let mut iterators = Vec::new();
        for node in nodes {
            self.validate_node(node, &mut iterators)?;
        }
        Ok(())
    }

    fn validate_node<'a>(&self, node: &'a Node, iterators: &mut Vec<&'a Var>) -> Result<()> {
        match node {
            Node::Loop(l) => {
                if l.step <= 0 {
                    return Err(IrError::InvalidStep {
                        iterator: l.iter.to_string(),
                        step: l.step,
                    });
                }
                if iterators.contains(&&l.iter) {
                    return Err(IrError::DuplicateIterator(l.iter.to_string()));
                }
                for bound in [&l.lower, &l.upper] {
                    check_vars(bound, |v| self.is_bound(iterators, v))?;
                }
                iterators.push(&l.iter);
                for n in &l.body {
                    self.validate_node(n, iterators)?;
                }
                iterators.pop();
                Ok(())
            }
            Node::Computation(c) => {
                c.try_for_each_access(|access| {
                    let array = self.array(&access.array_ref.array)?;
                    if array.rank() != access.array_ref.rank() {
                        return Err(IrError::RankMismatch {
                            array: array.name.to_string(),
                            expected: array.rank(),
                            found: access.array_ref.rank(),
                        });
                    }
                    for idx in &access.array_ref.indices {
                        check_vars(idx, |v| self.is_bound(iterators, v))?;
                    }
                    Ok(())
                })?;
                let mut unknown: Option<&Var> = None;
                c.value.for_each_param(&mut |p| {
                    if !self.scalar_params.contains_key(p) && unknown.is_none_or(|u| p < u) {
                        unknown = Some(p);
                    }
                });
                match unknown {
                    Some(p) => Err(IrError::UnknownParam(p.to_string())),
                    None => Ok(()),
                }
            }
            Node::Call(call) => {
                self.array(&call.output)?;
                for input in &call.inputs {
                    self.array(input)?;
                }
                Ok(())
            }
        }
    }

    /// Whether `v` is an enclosing iterator or an integer parameter.
    fn is_bound(&self, iterators: &[&Var], v: &Var) -> bool {
        iterators.contains(&v) || self.params.contains_key(v)
    }
}

/// `Ok` when `known` accepts every variable of `expr`; otherwise the error
/// names the first unknown one by name order.
fn check_vars(expr: &Expr, known: impl Fn(&Var) -> bool) -> Result<()> {
    let mut unknown: Option<&Var> = None;
    expr.for_each_var(&mut |v| {
        if !known(v) && unknown.is_none_or(|u| v < u) {
            unknown = Some(v);
        }
    });
    match unknown {
        Some(v) => Err(IrError::UnknownVariable(v.to_string())),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{cst, var};
    use crate::nest::{for_loop, Computation};
    use crate::prelude::*;

    fn small_program() -> Program {
        let s1 = Computation::assign(
            "S1",
            ArrayRef::new("B", vec![var("i")]),
            load("A", vec![var("i")]) * fconst(2.0),
        );
        Program::builder("axpy")
            .param("N", 16)
            .array("A", &["N"])
            .array("B", &["N"])
            .node(for_loop("i", cst(0), var("N"), vec![Node::Computation(s1)]))
            .build()
            .unwrap()
    }

    #[test]
    fn computations_and_counts() {
        let p = small_program();
        assert_eq!(p.computations().len(), 1);
        assert_eq!(p.computation_count(), 1);
        assert_eq!(p.max_depth(), 1);
        assert_eq!(p.loop_nests().len(), 1);
    }

    #[test]
    fn params_can_be_rebound() {
        let mut p = small_program();
        assert_eq!(p.param("N"), Some(16));
        p.set_param("N", 64).unwrap();
        assert_eq!(p.param("N"), Some(64));
        assert!(p.set_param("M", 1).is_err());
        let q = p.with_params(&[("N", 8)]).unwrap();
        assert_eq!(q.param("N"), Some(8));
        assert_eq!(p.param("N"), Some(64));
    }

    #[test]
    fn footprint_is_computed() {
        let p = small_program();
        // two arrays of 16 doubles.
        assert_eq!(p.arrays.len(), 2);
        for array in p.arrays.values() {
            assert_eq!(array.size_bytes(&p.params), Some(16 * 8));
        }
    }

    #[test]
    fn validation_accepts_well_formed_program() {
        assert!(small_program().validate().is_ok());
    }

    #[test]
    fn validation_rejects_unknown_array() {
        let s1 = Computation::assign("S1", ArrayRef::new("Z", vec![var("i")]), fconst(0.0));
        let p = Program::builder("bad")
            .param("N", 4)
            .node(for_loop("i", cst(0), var("N"), vec![Node::Computation(s1)]))
            .build_unchecked();
        assert_eq!(p.validate(), Err(IrError::UnknownArray("Z".into())));
    }

    #[test]
    fn validation_rejects_rank_mismatch() {
        let s1 = Computation::assign(
            "S1",
            ArrayRef::new("A", vec![var("i"), var("i")]),
            fconst(0.0),
        );
        let p = Program::builder("bad")
            .param("N", 4)
            .array("A", &["N"])
            .node(for_loop("i", cst(0), var("N"), vec![Node::Computation(s1)]))
            .build_unchecked();
        assert!(matches!(p.validate(), Err(IrError::RankMismatch { .. })));
    }

    #[test]
    fn validation_rejects_unbound_iterator() {
        let s1 = Computation::assign("S1", ArrayRef::new("A", vec![var("j")]), fconst(0.0));
        let p = Program::builder("bad")
            .param("N", 4)
            .array("A", &["N"])
            .node(for_loop("i", cst(0), var("N"), vec![Node::Computation(s1)]))
            .build_unchecked();
        assert_eq!(p.validate(), Err(IrError::UnknownVariable("j".into())));
    }

    #[test]
    fn validation_rejects_duplicate_iterator() {
        let inner = for_loop("i", cst(0), cst(4), vec![]);
        let p = Program::builder("bad")
            .node(for_loop("i", cst(0), cst(4), vec![inner]))
            .build_unchecked();
        assert_eq!(p.validate(), Err(IrError::DuplicateIterator("i".into())));
    }

    #[test]
    fn validation_rejects_unknown_scalar_param() {
        let s1 = Computation::assign("S1", ArrayRef::new("A", vec![var("i")]), param("alpha"));
        let p = Program::builder("bad")
            .param("N", 4)
            .array("A", &["N"])
            .node(for_loop("i", cst(0), var("N"), vec![Node::Computation(s1)]))
            .build_unchecked();
        assert_eq!(p.validate(), Err(IrError::UnknownParam("alpha".into())));
    }

    #[test]
    fn renumbering_assigns_dense_ids() {
        let mut p = small_program();
        p.body.push(p.body[0].clone());
        p.renumber_computations();
        let ids: Vec<u32> = p.computations().iter().map(|c| c.id.0).collect();
        assert_eq!(ids, vec![0, 1]);
        assert!(p.computation(CompId(1)).is_some());
        assert!(p.computation(CompId(7)).is_none());
    }

    #[test]
    fn display_contains_loop_headers() {
        let text = small_program().to_string();
        assert!(text.contains("for i in 0..N {"));
        assert!(text.contains("B[i] = (A[i] * 2.0);"));
    }
}
