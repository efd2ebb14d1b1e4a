//! # tunestore — the persistent transfer-tuning database
//!
//! The paper's central artifact is a scheduling database of `(performance
//! embedding, transformation recipe)` pairs (§4, "Seeding a Scheduling
//! Database"). This crate gives that database a life beyond one process: a
//! dependency-free, versioned binary snapshot format keyed by the run-stable
//! `loop_ir::StructuralHasher`, so a database seeded once can warm-start
//! every later run — the "tuned once, reused everywhere" economics the
//! transfer-tuning line of work is built on.
//!
//! * [`codec`] — bounds-checked little-endian primitives (no serde is
//!   available offline, so the format is hand-rolled),
//! * [`entry`] — the stored record ([`StoredEntry`]) and the recipe codec
//!   built on the stable wire tags in `transforms::recipe`,
//! * [`snapshot`] — the file format (magic, version, environment
//!   fingerprint, per-section checksums) and the set-level operations:
//!   best-cost-per-key [`Snapshot::insert`]/[`Snapshot::merge`], and
//!   [`Snapshot::gc`],
//! * [`fingerprint`] — the environment fingerprint warm starts validate,
//! * [`storage`] — the [`Storage`] trait every file operation goes through,
//!   the real [`OsStorage`], and [`atomic_write`], the one crash contract:
//!   a save writes a temp file, fsyncs it, renames it over the target and
//!   fsyncs the directory, so a crash leaves the old snapshot or the new
//!   one, never a mix.
//!
//! A database is one snapshot file, written whole by [`Snapshot::save`]
//! and read whole by [`Snapshot::load`]. A snapshot that fails to load is
//! a [`StoreError`], and the caller re-seeds (seeding takes milliseconds).
//!
//! The `tunedb` binary in this crate reports, inspects, verifies, merges
//! and garbage-collects snapshot files from the command line; the `daisy`
//! crate's `DaisyScheduler::warm_start` / `persist` wire snapshots into the
//! scheduler. The crash contract is exercised by one exhaustive crash
//! matrix (`tests/crash_matrix.rs`): an in-memory fault-injecting disk
//! behind [`Storage`] cuts the power, flips a torn bit, fails cleanly or
//! runs out of space at every operation of a fixed script of saves and
//! reloads, and every reload must hold a complete acknowledged snapshot.
//!
//! # Guarantees
//!
//! * **Deterministic bytes**: encoding the same snapshot twice yields
//!   identical files; entry order is preserved, so a warm-started database
//!   is byte-for-byte the database that was persisted.
//! * **Panic-free decoding**: corrupted, truncated or adversarial input
//!   returns [`StoreError`], never panics and never triggers unbounded
//!   allocation (claimed lengths are validated against the bytes actually
//!   present).
//! * **Versioned**: files carry a magic, a format version and per-section
//!   FNV-1a checksums; readers reject anything they cannot prove intact.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod codec;
pub mod entry;
pub mod error;
pub mod fingerprint;
pub mod snapshot;
pub mod storage;

pub use entry::StoredEntry;
pub use error::{Result, StoreError};
pub use fingerprint::environment_fingerprint;
pub use snapshot::{Snapshot, StoreStats, FORMAT_VERSION, MAGIC};
pub use storage::{atomic_write, OsStorage, Storage};
