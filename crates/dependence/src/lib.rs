//! # dependence — affine data-dependence analysis for the loop-nest IR
//!
//! The normalization criteria of the paper are both gated by dependences:
//! maximal loop fission may only separate computations "if there are no data
//! dependencies or loop-carried dependencies" between them (§2.1), and stride
//! minimization only considers *legal* permutations (§2.2). This crate
//! provides those facts:
//!
//! * [`analyze`] builds a [`DependenceGraph`] for a program: every pair of
//!   accesses to the same array (at least one being a write) is tested with a
//!   GCD + Banerjee-style test per direction vector over the common loops
//!   ([`tester`]: dense integer rows, both iterations of a common loop inside
//!   their own loop's bounds so that the test is symmetric, direction
//!   vectors refined level by level); [`analyze_nest`] does the same for one
//!   nest in isolation,
//!   under the program's parameters,
//! * [`legality`] answers the scheduling questions downstream passes ask:
//!   can these statements be distributed, is this loop permutation legal, can
//!   this loop run in parallel, can these two nests be fused.
//!
//! The tests are conservative: whenever a subscript is not affine or bounds
//! cannot be evaluated, the dependence is assumed to exist with unknown
//! direction.
//!
//! ```
//! use loop_ir::prelude::*;
//! use dependence::analyze;
//!
//! // for i { for k { S0: C[i] += A[i][k] } }  — the k loop carries the
//! // reduction dependence, the i loop does not.
//! let s0 = Computation::reduction("S0", ArrayRef::new("C", vec![var("i")]),
//!                                 BinOp::Add, load("A", vec![var("i"), var("k")]));
//! let p = Program::builder("rowsum")
//!     .param("N", 8).param("M", 8)
//!     .array("A", &["N", "M"]).array("C", &["N"])
//!     .node(for_loop("i", cst(0), var("N"),
//!         vec![for_loop("k", cst(0), var("M"), vec![Node::Computation(s0)])]))
//!     .build().unwrap();
//! let graph = analyze(&p);
//! assert!(dependence::is_parallel_loop(&graph, &p.loop_nests()[0].iter));
//! assert!(!dependence::is_parallel_loop(&graph, &Var::new("k")));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod graph;
pub mod legality;
#[cfg(any(test, feature = "test-support"))]
pub mod reference;
pub mod tester;
pub mod types;

pub use graph::{analyze, analyze_nest, DependenceGraph};
pub use legality::{
    can_distribute, can_fuse_siblings, is_parallel_loop, is_permutation_legal, sccs_of_body,
    PermutationLegality,
};
pub use types::{DepKind, Dependence, Direction};
