//! # transforms — loop transformations and optimization recipes
//!
//! The daisy auto-scheduler of the paper optimizes normalized loop nests by
//! applying *transformation sequences* drawn from a database: "loop
//! interchange, tiling, parallelization and vectorization" (§4). This crate
//! implements those transformations on the loop-nest IR, plus the two
//! structural primitives the normalization passes are built from
//! (distribution/fission and fusion). Interchange and fission serve
//! normalization, which fixes every loop order a priori; the [`recipe`]
//! module packages what is left to the scheduler — tiling and the parallel,
//! vector and unroll marks — into reusable sequences that rewrite one nest
//! into one nest.
//!
//! All transformations are pure: they take loops or programs by reference and
//! return transformed copies, leaving legality decisions to the caller (the
//! `dependence` crate answers those questions).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod annotate;
pub mod error;
pub mod fission;
pub mod fusion;
pub mod interchange;
pub mod recipe;
pub mod tiling;

pub use annotate::{mark_parallel, mark_unroll, mark_vectorize};
pub use error::{Result, TransformError};
pub use fission::{distribute, distribute_all};
pub use fusion::{fuse, fuse_producer_consumers};
pub use interchange::{check_interchange, interchange, perfect_chain};
pub use recipe::{Recipe, Transform, TransformTag};
pub use tiling::tile_band;
