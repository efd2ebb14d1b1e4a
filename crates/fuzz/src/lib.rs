//! Affine program generator and differential fuzz farm.
//!
//! Every fast path in this workspace ships with a slower reference that was
//! kept precisely so it could stand witness: the compiled execution engine
//! against the tree-walking interpreter, the compiled trace stream against
//! the symbolic access walker, the run-compressed cache simulation against
//! the naive LRU model, the scheduler's warm start against a cold run.
//! This crate turns those witnesses into a farm:
//!
//! - [`gen`] draws random but *valid-by-construction* affine programs from
//!   a seeded generator — imperfect nests, parametric and triangular
//!   bounds, negative-direction and strided subscripts, scalar reductions,
//!   stencil staggering, multi-statement bodies.
//! - [`oracle`] runs each program through every pipeline stage and
//!   cross-checks fast paths against their references, containing panics
//!   with `catch_unwind` so one crash never stops a campaign.
//! - [`mod@shrink`] delta-debugs any failure down to a minimal program that
//!   still reproduces the same oracle's failure class.
//! - [`campaign`] drives the generate → check → shrink loop from a single
//!   campaign seed, with per-case seeds derived by SplitMix64 so every
//!   failure is replayable in isolation, and renders a JSON report.
//! - [`corpus`] graduates programs with novel structural feature sets into
//!   a committed `.loop` corpus that CI replays as a regression test.
//!
//! The `daisyfuzz` binary exposes `run`, `replay` and `corpus promote`.

pub mod campaign;
pub mod corpus;
pub mod gen;
pub mod oracle;
pub mod shrink;

pub use campaign::{case_seed, run_campaign, CampaignConfig, CampaignReport, Failure, Inject};
pub use corpus::{features_of, load_corpus, promote, Promotion};
pub use gen::{generate, GenConfig};
pub use oracle::{check_all, check_one, OracleFn, Verdict, ORACLES};
pub use shrink::{shrink, Shrunk};
