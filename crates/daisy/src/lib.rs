//! # daisy — the normalized auto-scheduler
//!
//! The paper's auto-scheduler (§4) combines a priori loop nest normalization
//! with similarity-based transfer tuning:
//!
//! 1. programs are normalized ([`normalize::Normalizer`]),
//! 2. loop nests matching a BLAS-3 kernel are replaced with library calls
//!    ([`idiom`]),
//! 3. for the remaining nests, a database of `(performance embedding,
//!    transformation recipe)` pairs ([`database`]) is queried by Euclidean
//!    distance of the embeddings ([`embedding`]); the database is seeded from
//!    the normalized A variants by a search that prices every recipe of a
//!    nest's small space and keeps the cheapest ([`search`]; the paper's
//!    search is evolutionary),
//! 4. the chosen recipes (tiling, parallelization, vectorization; the loop
//!    order is normalization's, fixed in step 1) are applied, each
//!    rewriting one nest into one nest, and the result is costed on the
//!    machine model.
//!
//! The entry point is [`scheduler::DaisyScheduler`]. A seeded database can
//! be persisted to disk ([`DaisyScheduler::persist`]) and reloaded
//! ([`DaisyScheduler::warm_start`]) through the `tunestore` snapshot
//! format, skipping the seeding search entirely while producing
//! bit-identical schedules.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod database;
pub mod embedding;
pub mod idiom;
pub mod scheduler;
pub mod search;

pub use database::{nest_key, DatabaseEntry, TuningDatabase};
pub use embedding::PerformanceEmbedding;
pub use idiom::detect_blas_idiom;
pub use scheduler::{DaisyConfig, DaisyScheduler, ScheduleOutcome};
pub use search::{
    nest_scoped_graph, recipe_is_semantically_legal, EvolutionarySearch, SearchConfig,
};
