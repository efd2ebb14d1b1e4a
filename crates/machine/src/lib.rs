//! # machine — the execution substrate
//!
//! The paper evaluates schedules by running generated code on an Intel Xeon
//! E5-2680 v3. This reproduction has no LLVM backend, so the crate provides
//! the substitutes (see DESIGN.md):
//!
//! * [`exec`] — the compiled loop-nest execution engine: one lowering (flat
//!   array slots, affine offset/stride plans, closed-form zero-trip and
//!   constant-bound loops) drives both execution and the access stream,
//! * [`interp`] — the store of concrete `f64` arrays programs execute
//!   over, used to verify that normalization and optimization preserve
//!   semantics; [`interp::reference`] holds the naive symbolic walk behind
//!   both executor and trace oracles,
//! * [`cache`] + [`trace`] — a set-associative L1/L2 cache simulator fed by
//!   the exact access stream, reproducing the load/evict counters of the
//!   CLOUDSC case study (Table 1),
//! * [`shard`] — block-sharded parallel cache simulation: the trace cut at
//!   block (outermost independent iterator) granularity, one hierarchy
//!   replica per class of shards that move every array by one whole number
//!   of lines against each other (a relabeling of the cache sets) on the
//!   worker pool, counters merged order-independently — bit-identical at
//!   any worker count, and the engine behind the full `NBLOCKS = 4096`
//!   CLOUDSC trace figures (one simulation per Fortran or C trace, 32 per
//!   DaCe or daisy trace),
//! * [`pool`] — the one worker pool: [`pool::parallel_map`] fans out the
//!   shard simulations here and the scheduler's queues in `daisy` under
//!   one rule (the caller works first, helpers only past a spawn budget),
//! * [`cost`] — a cache-aware analytical roofline that converts a scheduled
//!   program into an estimated runtime on the configured machine
//!   ([`config::MachineConfig`]), the quantity all figures compare,
//! * [`blas`] — reference BLAS kernels and the near-peak cost of a library
//!   call, the target of the idiom-detection recipes.
//!
//! # The evaluation stack
//!
//! Schedules are ranked on one path and cache counters measured on another:
//!
//! ```text
//! program ─▶ cost model ─────────────────────────▶ search
//!            (cost, roofline)                       (daisy)
//! program ─▶ access stream ─▶ cache simulator ───▶ exact counters (Table 1,
//!            (exec, streamed)  (cache + shard)      Fig. 11, Fig. 12b)
//! ```
//!
//! The simulation path is streaming *and run-level* end to end.
//! [`exec::CompiledProgram::lower`] lowers the program once and
//! [`exec::CompiledProgram::stream`] emits every compiled innermost loop as
//! one lockstep group of [`trace::StrideRun`] segments built straight from the
//! affine offset/stride plans — no trace is ever materialized, and
//! individual addresses exist only for sinks that ask for them. The same
//! lowering executes program semantics
//! ([`exec::CompiledProgram::execute`]), which is what makes paper-sized
//! semantic equivalence checks cheap. [`cache::CacheHierarchy`] consumes
//! whole run groups and simulates an access only when its lane's line
//! changed: sub-line lanes cut the group into *line phases*, each phase's
//! first iteration is simulated in full, and after it only the lanes
//! striding a line or more are probed while the others are credited as L1
//! hits in closed form — O(distinct cache lines touched) for a unit-stride
//! loop, one probe in four for a GEMM column walk. Each set's LRU order
//! sits directly in one flat tag array.
//!
//! Each layer keeps one engine and one naive oracle, which the differential
//! suites hold it to bit for bit:
//!
//! | layer   | engine                                  | oracle                               |
//! |---------|-----------------------------------------|--------------------------------------|
//! | execute | [`CompiledProgram::execute`]            | [`interp::reference::Interpreter`]   |
//! | stream  | [`CompiledProgram::stream`]             | [`trace::walk_accesses_symbolic`]    |
//! | cache   | [`simulate_cache`]                      | [`simulate_cache_reference`]         |
//! | shards  | [`simulate_cache_sharded_with_plan`]    | [`simulate_cache_sharded_reference`] |
//!
//! The two symbolic oracles share one loop walk ([`interp::reference`]);
//! engines and oracles alike fault on a bound or subscript iff its exact
//! value leaves `i64`.
//!
//! [`cost::CostModel`] only prices, and keeps no tables; the exact cache
//! counters the figures print come from the block-sharded simulator
//! ([`shard::simulate_cache_sharded`]). The contract: a nest's cost is a pure
//! function of *(machine, thread count, program environment, nest
//! structure)* — see the [`cost`] module docs — which is what lets the
//! `daisy` recipe search price a program's nodes once and re-price only the
//! nest a candidate recipe rewrote.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod blas;
pub mod cache;
pub mod config;
pub mod cost;
pub mod error;
pub mod exec;
pub mod interp;
pub mod pool;
pub mod shard;
pub mod trace;

pub use cache::{reference::ReferenceCacheHierarchy, CacheHierarchy, CacheStats};
pub use config::MachineConfig;
pub use cost::{CostModel, CostReport, NestCost};
pub use error::{MachineError, Result};
pub use exec::CompiledProgram;
pub use interp::{run_seeded, ProgramData};
pub use pool::effective_workers;
pub use shard::{
    simulate_cache_sharded, simulate_cache_sharded_reference, simulate_cache_sharded_with_plan,
    ShardGranularity, ShardPlan, ShardedCacheStats,
};
pub use trace::{
    estimate_cache, simulate_cache, simulate_cache_reference, AccessSink, CacheEstimate, StrideRun,
    TraceEntry,
};
