//! # normalize — a priori loop nest normalization
//!
//! This crate implements the paper's contribution: the two normalization
//! criteria that map loop nests with different memory access patterns to the
//! same canonical form *before* any auto-scheduling (§2):
//!
//! 1. **Maximal loop fission** ([`fission::MaximalFission`]): computations
//!    and loops at the same level of a nest are divided across separate loop
//!    nests whenever no data or loop-carried dependence forces them together,
//!    applied to a fixed point. The result is a sequence of "atomic" loop
//!    nests.
//! 2. **Stride minimization** ([`permute::StrideMinimization`]): each atomic
//!    loop nest is replaced by the legal permutation of its loops with the
//!    smallest total access stride, computed from the symbolic access
//!    expressions ([`stride`]).
//!
//! [`pipeline::Normalizer`] chains the two passes exactly as in the paper's
//! Figure 5 and reports what changed. The ablation study (Figure 7) turns
//! normalization off as a whole in the scheduler
//! (`daisy::DaisyConfig::normalize`), which then plans the input as written.
//!
//! ```
//! use loop_ir::parser::parse_program;
//! use normalize::Normalizer;
//!
//! // A GEMM update written with the k loop outermost — a structurally poor
//! // variant.
//! let program = parse_program(r#"
//!     program gemm_variant {
//!       param NI = 32; param NJ = 32; param NK = 32;
//!       array A[NI][NK]; array B[NK][NJ]; array C[NI][NJ];
//!       for k in 0..NK { for j in 0..NJ { for i in 0..NI {
//!         C[i][j] += A[i][k] * B[k][j];
//!       } } }
//!     }
//! "#).unwrap();
//! let normalized = Normalizer::new().run(&program).unwrap();
//! // The canonical form puts the unit-stride iterators innermost (i, k, j).
//! let order: Vec<String> = normalized.program.loop_nests()[0]
//!     .nested_iterators().iter().map(|v| v.to_string()).collect();
//! assert_eq!(order, vec!["i", "k", "j"]);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod fission;
pub mod permute;
pub mod pipeline;
pub mod stride;

pub use fission::MaximalFission;
pub use permute::StrideMinimization;
pub use pipeline::{NormalizationStats, NormalizedProgram, Normalizer};
pub use stride::{out_of_order_cost, sum_of_strides, StrideCost};
