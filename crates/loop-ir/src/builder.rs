//! Ergonomic construction of [`Program`]s.

use std::collections::BTreeMap;

use crate::array::Array;
use crate::error::{IrError, Result};
use crate::expr::{Expr, Var};
use crate::nest::Node;
use crate::program::Program;

/// A non-consuming builder for [`Program`]s.
///
/// ```
/// use loop_ir::prelude::*;
///
/// let program = Program::builder("copy")
///     .param("N", 32)
///     .array("A", &["N"])
///     .array("B", &["N"])
///     .node(for_loop("i", cst(0), var("N"), vec![Node::Computation(
///         Computation::assign("S0", ArrayRef::new("B", vec![var("i")]),
///                             load("A", vec![var("i")])),
///     )]))
///     .build()?;
/// assert_eq!(program.param("N"), Some(32));
/// # Ok::<(), loop_ir::IrError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct ProgramBuilder {
    name: String,
    params: BTreeMap<Var, i64>,
    scalar_params: BTreeMap<Var, f64>,
    arrays: BTreeMap<Var, Array>,
    body: Vec<Node>,
    duplicate: Option<String>,
}

impl ProgramBuilder {
    /// Creates a builder for a program with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        ProgramBuilder {
            name: name.into(),
            ..Default::default()
        }
    }

    /// Declares an integer size parameter with its concrete value.
    pub fn param(self, name: &str, value: i64) -> Self {
        self.param_var(Var::new(name), value)
    }

    pub(crate) fn param_var(mut self, name: Var, value: i64) -> Self {
        if self.params.insert(name.clone(), value).is_some() {
            self.duplicate.get_or_insert_with(|| name.to_string());
        }
        self
    }

    /// Declares a floating-point scalar parameter with its concrete value.
    pub fn scalar(self, name: &str, value: f64) -> Self {
        self.scalar_var(Var::new(name), value)
    }

    pub(crate) fn scalar_var(mut self, name: Var, value: f64) -> Self {
        if self.scalar_params.insert(name.clone(), value).is_some() {
            self.duplicate.get_or_insert_with(|| name.to_string());
        }
        self
    }

    /// Declares an array whose extents are named parameters.
    pub fn array(mut self, name: &str, dims: &[&str]) -> Self {
        let array = Array::with_param_dims(name, dims);
        if self.arrays.insert(array.name.clone(), array).is_some() {
            self.duplicate.get_or_insert_with(|| name.to_string());
        }
        self
    }

    /// Declares an array with arbitrary symbolic extents.
    pub fn array_with_dims(self, name: &str, dims: Vec<Expr>) -> Self {
        self.array_var(Array::new(name, dims))
    }

    pub(crate) fn array_var(mut self, array: Array) -> Self {
        if let Some(old) = self.arrays.insert(array.name.clone(), array) {
            self.duplicate.get_or_insert_with(|| old.name.to_string());
        }
        self
    }

    /// Appends a top-level node (usually a loop nest).
    pub fn node(mut self, node: Node) -> Self {
        self.body.push(node);
        self
    }

    /// Appends several top-level nodes.
    pub fn nodes(mut self, nodes: impl IntoIterator<Item = Node>) -> Self {
        self.body.extend(nodes);
        self
    }

    /// Finishes building, validating the program.
    ///
    /// # Errors
    /// Returns [`IrError::DuplicateDeclaration`] if a parameter or array was
    /// declared twice, or any validation error from [`Program::validate`].
    pub fn build(self) -> Result<Program> {
        if let Some(name) = &self.duplicate {
            return Err(IrError::DuplicateDeclaration(name.clone()));
        }
        let program = self.assemble();
        program.validate()?;
        Ok(program)
    }

    /// Finishes building without validating. Intended for tests that
    /// deliberately construct ill-formed programs.
    pub fn build_unchecked(self) -> Program {
        self.assemble()
    }

    fn assemble(self) -> Program {
        let mut program = Program {
            name: self.name,
            params: self.params,
            scalar_params: self.scalar_params,
            arrays: self.arrays,
            body: self.body,
        };
        program.renumber_computations();
        program
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{cst, var};
    use crate::nest::{for_loop, CompId, Computation};
    use crate::prelude::*;

    #[test]
    fn builder_assigns_dense_computation_ids() {
        let mk = |name: &str| {
            Node::Computation(Computation::assign(
                name,
                ArrayRef::new("A", vec![var("i")]),
                fconst(0.0),
            ))
        };
        let p = Program::builder("p")
            .param("N", 4)
            .array("A", &["N"])
            .node(for_loop("i", cst(0), var("N"), vec![mk("S1"), mk("S2")]))
            .build()
            .unwrap();
        let ids: Vec<CompId> = p.computations().iter().map(|c| c.id).collect();
        assert_eq!(ids, vec![CompId(0), CompId(1)]);
    }

    #[test]
    fn duplicate_param_is_rejected() {
        let err = Program::builder("p").param("N", 1).param("N", 2).build();
        assert_eq!(err, Err(IrError::DuplicateDeclaration("N".into())));
    }

    #[test]
    fn duplicate_array_is_rejected() {
        let err = Program::builder("p")
            .param("N", 1)
            .array("A", &["N"])
            .array("A", &["N"])
            .build();
        assert_eq!(err, Err(IrError::DuplicateDeclaration("A".into())));
    }

    #[test]
    fn scalar_params_are_recorded() {
        let p = Program::builder("p").scalar("alpha", 1.5).build().unwrap();
        assert_eq!(p.scalar_param("alpha"), Some(1.5));
        assert_eq!(p.scalar_param("beta"), None);
    }

    #[test]
    fn array_with_explicit_dims() {
        let p = Program::builder("p")
            .param("N", 10)
            .array_with_dims("A", vec![var("N") + cst(1), cst(3)])
            .build()
            .unwrap();
        let a = p.array(&Var::new("A")).unwrap();
        assert_eq!(a.concrete_dims(&p.params), Some(vec![11, 3]));
    }

    #[test]
    fn build_validates() {
        let bad = Program::builder("p")
            .node(for_loop("i", cst(0), var("N"), vec![]))
            .build();
        assert_eq!(bad, Err(IrError::UnknownVariable("N".into())));
    }

    #[test]
    fn nodes_appends_in_order() {
        let p = Program::builder("p")
            .nodes(vec![
                for_loop("i", cst(0), cst(4), vec![]),
                for_loop("j", cst(0), cst(4), vec![]),
            ])
            .build()
            .unwrap();
        assert_eq!(p.loop_nests().len(), 2);
        assert_eq!(p.loop_nests()[0].iter, Var::new("i"));
    }
}
