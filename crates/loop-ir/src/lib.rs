//! # loop-ir — a symbolic loop-nest intermediate representation
//!
//! This crate provides the symbolic representation of loop nests that the
//! paper *"A Priori Loop Nest Normalization: Automatic Loop Scheduling in
//! Complex Applications"* (CGO 2025) lifts from LLVM IR before normalizing
//! (§3, Fig. 4). Instead of lifting from LLVM IR through Polly, programs are
//! constructed directly:
//!
//! * programmatically through [`builder::ProgramBuilder`] or the free
//!   constructor helpers in [`expr`] / [`scalar`] / [`nest`],
//! * from a C-like textual mini-language through [`parser::parse_program`],
//! * from NumPy-style array expressions through [`numpy::NumpyProgram`],
//!   mirroring the DaCe Python frontend used in the paper's §4.3.
//!
//! A program prints one way: [`Program`]'s `Display` writes the frontend
//! grammar of [`parser`], and [`source::to_source`] returns that text after
//! checking the program has a source form (no select, library call,
//! `min`/`max` index, unroll annotation, `min`/`max`/`pow` reduction, or
//! NaN, ±inf or -0.0 constant), so the text reparses to the same program.
//!
//! The representation is a tree of [`Loop`] and [`Computation`] nodes
//! (see [`nest::Node`]), where loop bounds and memory accesses are symbolic
//! integer expressions ([`expr::Expr`]) and computation bodies are scalar
//! floating-point expressions over array loads ([`scalar::ScalarExpr`]).
//!
//! ```
//! use loop_ir::prelude::*;
//!
//! // C[i][j] += A[i][k] * B[k][j]  — the GEMM update statement.
//! let update = Computation::reduction(
//!     "S1",
//!     ArrayRef::new("C", vec![var("i"), var("j")]),
//!     BinOp::Add,
//!     load("A", vec![var("i"), var("k")]) * load("B", vec![var("k"), var("j")]),
//! );
//! let nest = for_loop(
//!     "i", cst(0), var("NI"),
//!     vec![for_loop("j", cst(0), var("NJ"),
//!         vec![for_loop("k", cst(0), var("NK"), vec![Node::Computation(update)])])],
//! );
//! let program = Program::builder("gemm")
//!     .param("NI", 8).param("NJ", 8).param("NK", 8)
//!     .array("A", &["NI", "NK"]).array("B", &["NK", "NJ"]).array("C", &["NI", "NJ"])
//!     .node(nest)
//!     .build()
//!     .expect("well-formed program");
//! assert_eq!(program.computations().len(), 1);
//! ```
//!
//! ## Queries borrow
//!
//! Analyses ask the IR the same questions per access, per nest and per
//! candidate, so a query allocates only what it returns. Walks hand out
//! borrows through visitors: [`Computation::for_each_access`] (and
//! `try_for_each_access`, which stops at the first error),
//! [`ScalarExpr::for_each_load`], [`Expr::for_each_var`],
//! [`ScalarExpr::for_each_param`], [`Loop::for_each_computation`] and
//! [`Loop::for_each_loop`]; `transforms::perfect_chain` is an iterator.
//! [`Array::with_strides`] keeps a layout's strides on the stack (past rank
//! 8, on the heap), so [`ArrayRef::linear_offset`] builds nothing but its
//! [`AffineExpr`]; [`Array::len`] and [`Array::size_bytes`] build nothing.
//! [`Program::validate`] allocates nothing but its stack of enclosing
//! iterators, and [`parser::parse_program`] validates once and shares one
//! [`Var`] per distinct identifier. The helpers that return a collection —
//! [`Loop::computations`], [`Loop::nested_iterators`], [`Array::strides`],
//! [`Array::concrete_dims`] — are for callers that keep it.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod array;
pub mod builder;
pub mod error;
pub mod expr;
pub mod nest;
pub mod numpy;
pub mod parser;
mod printer;
pub mod program;
pub mod scalar;
pub mod source;
pub mod visit;

pub use array::{Array, ArrayRef};
pub use builder::ProgramBuilder;
pub use error::{IrError, Result};
pub use expr::{AffineExpr, Expr, Var};
pub use nest::{BlasCall, BlasKind, Computation, Loop, LoopSchedule, Node};
pub use program::Program;
pub use scalar::{BinOp, CmpOp, ScalarExpr, UnaryOp};
pub use visit::{structural_hash_node, structural_hash_nodes, StructuralHasher};

/// Commonly used items, intended for glob import in downstream crates,
/// examples and tests.
pub mod prelude {
    pub use crate::array::{Array, ArrayRef};
    pub use crate::builder::ProgramBuilder;
    pub use crate::error::{IrError, Result};
    pub use crate::expr::{cst, var, AffineExpr, Expr, Var};
    pub use crate::nest::{
        for_loop, parallel_loop, BlasCall, BlasKind, Computation, Loop, LoopSchedule, Node,
    };
    pub use crate::program::Program;
    pub use crate::scalar::{fconst, load, param, BinOp, CmpOp, ScalarExpr, UnaryOp};
    pub use crate::visit::{
        structural_hash_node, structural_hash_nodes, walk_computations, walk_loops, CompContext,
    };
}
