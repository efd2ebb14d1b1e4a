//! Storage fault sweep: the fuzz-farm face of the tunestore's one crash
//! contract, the atomic snapshot save.
//!
//! A store workload is a script of inserts ([`Snapshot::insert`], then a
//! whole-file [`Snapshot::save_with`] when the entry is accepted) and
//! reopens ([`Snapshot::load_with`]). Two phases, both running entirely
//! against the deterministic in-memory [`FaultStorage`]:
//!
//! 1. **Matrix** — a fixed script is dry-run once to count its I/O
//!    operations, then re-run with a simulated power cut at every single
//!    operation index (with and without bit corruption of torn data),
//!    reloading after each cut.
//! 2. **Sweep** — `budget` randomized cases, each drawing a fresh script
//!    and one fault from the menu: a power cut at a random op, a clean
//!    injected failure of a random operation kind, or an `ENOSPC` disk
//!    budget.
//!
//! Every case checks one invariant: only the injected fault may stop the
//! script; the reloaded file (a missing one reads as empty) decodes to the
//! model state after `k` completed steps, where `k` is the number of
//! acknowledged steps or one more (an in-flight save whose rename
//! landed); and a second reload reads the same bytes. So once a save is
//! acknowledged, a crash leaves a complete acknowledged snapshot. The
//! matrix phase is the tunestore's one exhaustive crash test.
//!
//! [`StoreInject`] maps to deliberate [`Durability`] weakenings (skip the
//! data fsync, skip directory fsyncs, write snapshots in place), used to
//! test the farm itself: a weakened save MUST fail the sweep, proving the
//! harness can see real durability holes.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;

use loop_ir::expr::Var;
use telemetry::json::json_string;
use transforms::{Recipe, Transform};
use tunestore::{
    is_power_cut, Durability, FaultPlan, FaultStorage, OpKind, Snapshot, Storage, StoreError,
    StoredEntry,
};

/// Fingerprint all sweep stores carry.
const FP: &str = "daisyfuzz-store";

/// Deliberate durability weakening, for farm self-tests: each variant
/// removes one leg of the fsync/rename protocol, and the sweep is expected
/// to catch the resulting hole.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreInject {
    /// Skip `fsync` of file data (acknowledge on buffered writes).
    NoSyncData,
    /// Skip `fsync` of parent directories (renames stay volatile).
    NoSyncDirs,
    /// Write snapshots in place instead of temp-file + atomic rename.
    NoAtomicRename,
}

impl StoreInject {
    /// Parses the CLI spelling (`no-fsync`, `no-dirsync`, `no-rename`).
    pub fn parse(text: &str) -> Option<StoreInject> {
        match text {
            "no-fsync" => Some(StoreInject::NoSyncData),
            "no-dirsync" => Some(StoreInject::NoSyncDirs),
            "no-rename" => Some(StoreInject::NoAtomicRename),
            _ => None,
        }
    }

    /// The CLI spelling of this injection.
    pub fn name(&self) -> &'static str {
        match self {
            StoreInject::NoSyncData => "no-fsync",
            StoreInject::NoSyncDirs => "no-dirsync",
            StoreInject::NoAtomicRename => "no-rename",
        }
    }

    /// The weakened durability setting this injection runs the store at.
    pub fn durability(&self) -> Durability {
        match self {
            StoreInject::NoSyncData => Durability {
                sync_data: false,
                ..Durability::FULL
            },
            StoreInject::NoSyncDirs => Durability {
                sync_dirs: false,
                ..Durability::FULL
            },
            StoreInject::NoAtomicRename => Durability {
                atomic_rename: false,
                ..Durability::FULL
            },
        }
    }
}

/// Configuration of one `daisyfuzz store` run.
#[derive(Debug, Clone)]
pub struct StoreSweepConfig {
    /// Campaign seed; per-case seeds derive from it.
    pub seed: u64,
    /// Number of randomized sweep cases (after the exhaustive matrix).
    pub budget: u64,
    /// Optional deliberate durability weakening (farm self-test).
    pub inject: Option<StoreInject>,
}

impl Default for StoreSweepConfig {
    fn default() -> Self {
        StoreSweepConfig {
            seed: 0xD15C,
            budget: 1000,
            inject: None,
        }
    }
}

/// One crash-invariant violation (or contained panic), replayable from
/// its case seed.
#[derive(Debug, Clone)]
pub struct StoreFailure {
    /// `"matrix"` or `"sweep"`.
    pub phase: &'static str,
    /// The per-case seed (matrix phase: the crash op index).
    pub case_seed: u64,
    /// What went wrong.
    pub detail: String,
}

/// Result of a `daisyfuzz store` run.
#[derive(Debug, Clone)]
pub struct StoreReport {
    /// Campaign seed.
    pub seed: u64,
    /// Crash points enumerated by the matrix phase.
    pub matrix_points: u64,
    /// Randomized sweep cases run.
    pub cases: u64,
    /// The injection the run was performed under, if any.
    pub inject: Option<StoreInject>,
    /// Every recorded violation.
    pub failures: Vec<StoreFailure>,
    /// Wall-clock seconds.
    pub elapsed_secs: f64,
}

impl StoreReport {
    /// `true` when every crash point and every sweep case held the invariant.
    pub fn clean(&self) -> bool {
        self.failures.is_empty()
    }

    /// Renders the report as JSON (hand-rolled; the workspace has no serde).
    pub fn to_json(&self) -> String {
        let mut json = String::from("{\n");
        json.push_str("  \"generated_by\": \"daisyfuzz store\",\n");
        json.push_str(&format!("  \"seed\": {},\n", self.seed));
        json.push_str(&format!("  \"matrix_points\": {},\n", self.matrix_points));
        json.push_str(&format!("  \"cases\": {},\n", self.cases));
        json.push_str(&format!(
            "  \"inject\": {},\n",
            match self.inject {
                Some(inject) => json_string(inject.name()),
                None => "null".to_string(),
            }
        ));
        json.push_str(&format!("  \"elapsed_secs\": {:.3},\n", self.elapsed_secs));
        json.push_str(&format!("  \"clean\": {},\n", self.clean()));
        json.push_str("  \"failures\": [\n");
        for (i, f) in self.failures.iter().enumerate() {
            json.push_str("    {\n");
            json.push_str(&format!("      \"phase\": {},\n", json_string(f.phase)));
            json.push_str(&format!("      \"case_seed\": {},\n", f.case_seed));
            json.push_str(&format!("      \"detail\": {}\n", json_string(&f.detail)));
            json.push_str(if i + 1 == self.failures.len() {
                "    }\n"
            } else {
                "    },\n"
            });
        }
        json.push_str("  ]\n}\n");
        json
    }
}

/// SplitMix64 step, for per-case value streams.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One step of a store workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    /// Insert `key` at `cost_millis / 1000.0` seconds, saving the snapshot
    /// when the insert is accepted.
    Insert(u64, u64),
    /// Drop the in-memory snapshot and reload it from the file.
    Reopen,
}

/// The fault a sweep case injects.
#[derive(Debug, Clone, Copy)]
enum Fault {
    /// Power cut at this op index, optionally flipping a bit in each torn
    /// region when the crash image is materialized.
    PowerCut { cut: u64, flip: bool },
    /// The Nth operation of this kind fails cleanly (not applied).
    CleanFail { kind: OpKind, nth: u64 },
    /// `ENOSPC` after this many payload bytes.
    DiskBudget { bytes: u64 },
}

/// The snapshot a script starts from.
fn empty() -> Snapshot {
    Snapshot {
        fingerprint: FP.to_string(),
        entries: Vec::new(),
    }
}

fn store_path() -> PathBuf {
    PathBuf::from("dir/store.tunedb")
}

fn entry(key: u64, cost_millis: u64) -> StoredEntry {
    let cost = cost_millis as f64 / 1000.0;
    StoredEntry {
        key,
        cost,
        embedding: vec![cost, 2.0 * cost],
        recipe: Recipe::new(vec![Transform::Vectorize {
            iter: Var::new("j"),
        }]),
        chain: vec![Var::new("i"), Var::new("j")],
        source: format!("fuzz-{key}"),
    }
}

/// The fixed workload the exhaustive matrix phase enumerates: inserts
/// (with a best-cost improvement and a rejected duplicate) and a
/// mid-script reload.
fn matrix_script() -> Vec<Step> {
    use Step::*;
    vec![
        Insert(1, 900),
        Insert(2, 800),
        Insert(1, 500),
        Insert(3, 700),
        Insert(2, 950), // rejected: worse cost, no I/O
        Reopen,
        Insert(4, 600),
        Insert(5, 450),
    ]
}

/// A randomized workload of 4..=12 steps.
fn random_script(state: &mut u64) -> Vec<Step> {
    let len = 4 + splitmix(state) % 9;
    (0..len)
        .map(|_| match splitmix(state) % 10 {
            0..=7 => Step::Insert(splitmix(state) % 6, 50 + splitmix(state) % 1000),
            _ => Step::Reopen,
        })
        .collect()
}

/// A random fault from the menu, biased toward power cuts (the richest
/// failure mode). `total_ops` bounds the power-cut index.
fn random_fault(state: &mut u64, total_ops: u64) -> Fault {
    const KINDS: [OpKind; 8] = [
        OpKind::Read,
        OpKind::Write,
        OpKind::SyncFile,
        OpKind::SyncDir,
        OpKind::Rename,
        OpKind::RemoveFile,
        OpKind::CreateDir,
        OpKind::ListDir,
    ];
    match splitmix(state) % 4 {
        0 | 1 => Fault::PowerCut {
            cut: splitmix(state) % total_ops.max(1),
            flip: splitmix(state) % 2 == 1,
        },
        2 => Fault::CleanFail {
            kind: KINDS[(splitmix(state) % KINDS.len() as u64) as usize],
            nth: splitmix(state) % 6,
        },
        _ => Fault::DiskBudget {
            bytes: 64 + splitmix(state) % 4096,
        },
    }
}

/// Canonical, order-insensitive form of a set of entries.
fn canon(entries: &[StoredEntry]) -> Vec<(u64, u64, String)> {
    let mut out: Vec<(u64, u64, String)> = entries
        .iter()
        .map(|e| (e.key, e.cost.to_bits(), e.source.clone()))
        .collect();
    out.sort();
    out
}

/// `models(steps)[k]` is the expected content after `k` completed steps.
fn models(steps: &[Step]) -> Vec<Vec<(u64, u64, String)>> {
    let mut view = empty();
    let mut out = vec![canon(&view.entries)];
    for step in steps {
        if let Step::Insert(key, cost) = step {
            view.insert(entry(*key, *cost));
        }
        out.push(canon(&view.entries));
    }
    out
}

/// Loads the store file; a file that was never written reads as an empty
/// snapshot.
fn reopen(storage: &FaultStorage) -> Result<Snapshot, StoreError> {
    let path = store_path();
    if !storage.exists(&path) {
        return Ok(empty());
    }
    Snapshot::load_with(storage, &path)
}

/// Runs a workload, returning completed steps and the stopping error.
fn drive(
    storage: &FaultStorage,
    durability: Durability,
    steps: &[Step],
) -> (usize, Option<StoreError>) {
    let mut snapshot = empty();
    for (completed, step) in steps.iter().enumerate() {
        let result = match step {
            Step::Insert(key, cost) => {
                if snapshot.insert(entry(*key, *cost)) {
                    snapshot.save_with(storage, &store_path(), durability)
                } else {
                    Ok(())
                }
            }
            Step::Reopen => reopen(storage).map(|reloaded| snapshot = reloaded),
        };
        if let Err(error) = result {
            return (completed, Some(error));
        }
    }
    (steps.len(), None)
}

/// Runs one faulted case and checks the crash invariant, returning the
/// violation description if any.
fn check_case(durability: Durability, steps: &[Step], fault: Fault) -> Result<(), String> {
    let models = models(steps);
    let plan = match fault {
        Fault::PowerCut { cut, flip } => FaultPlan {
            seed: cut.wrapping_mul(0x2545_F491_4F6C_DD1D),
            crash_at_op: Some(cut),
            flip_bit_on_crash: flip,
            ..FaultPlan::default()
        },
        Fault::CleanFail { kind, nth } => FaultPlan {
            fail_op: Some((kind, nth)),
            ..FaultPlan::default()
        },
        Fault::DiskBudget { bytes } => FaultPlan {
            disk_budget: Some(bytes),
            ..FaultPlan::default()
        },
    };
    let storage = FaultStorage::new(plan);
    let (acked, error) = drive(&storage, durability, steps);
    if let Fault::PowerCut { cut, .. } = fault {
        match &error {
            None => {}
            Some(StoreError::Io(io)) if is_power_cut(io) => {}
            Some(other) => {
                return Err(format!(
                    "cut {cut}: only the power cut may stop the script, got: {other}"
                ))
            }
        }
        storage.crash();
    }
    storage.set_plan(FaultPlan::default());

    let reload = || reopen(&storage).map_err(|e| format!("reload failed: {e}"));
    let first = reload()?;
    let got = canon(&first.entries);
    let in_flight = (acked + 1).min(models.len() - 1);
    if got != models[acked] && got != models[in_flight] {
        return Err(format!(
            "reloaded {got:?} is neither the state after {acked} acked steps \
             ({:?}) nor with the in-flight step ({:?})",
            models[acked], models[in_flight]
        ));
    }
    if reload()?.encode() != first.encode() {
        return Err("a second reload decoded to different bytes".to_string());
    }
    Ok(())
}

/// `check_case` with panic containment: a panicking store is a failure
/// finding, not a sweep abort.
fn contained_check(durability: Durability, steps: &[Step], fault: Fault) -> Result<(), String> {
    match catch_unwind(AssertUnwindSafe(|| check_case(durability, steps, fault))) {
        Ok(result) => result,
        Err(payload) => {
            let message = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            Err(format!("PANIC: {message}"))
        }
    }
}

/// The exhaustive crash matrix: dry-runs the fixed workload once to count
/// its I/O operations, then re-runs it with a power cut at every operation
/// index, once per entry of `flips` (whether the crash image also flips a
/// bit in each torn region). Returns the crash points enumerated and every
/// `"matrix"`-phase violation.
pub fn run_crash_matrix(durability: Durability, flips: &[bool]) -> (u64, Vec<StoreFailure>) {
    let mut failures = Vec::new();
    let script = matrix_script();
    let dry = FaultStorage::default();
    let (completed, error) = drive(&dry, durability, &script);
    let total = dry.ops();
    if let Some(error) = error {
        failures.push(StoreFailure {
            phase: "matrix",
            case_seed: 0,
            detail: format!("dry run failed after {completed} steps: {error}"),
        });
    }
    let mut points = 0u64;
    for cut in 0..total {
        for &flip in flips {
            points += 1;
            let fault = Fault::PowerCut { cut, flip };
            if let Err(detail) = contained_check(durability, &script, fault) {
                failures.push(StoreFailure {
                    phase: "matrix",
                    case_seed: cut,
                    detail: format!("crash at op {cut} (flip={flip}): {detail}"),
                });
            }
        }
    }
    (points, failures)
}

/// Runs the full store sweep: the exhaustive crash matrix on the fixed
/// workload, then `budget` randomized fault cases.
pub fn run_store_sweep(config: &StoreSweepConfig) -> StoreReport {
    let start = Instant::now();
    let durability = config
        .inject
        .map(|inject| inject.durability())
        .unwrap_or(Durability::FULL);

    // Phase 1: exhaustive matrix over the fixed script.
    let (matrix_points, mut failures) = run_crash_matrix(durability, &[false, true]);

    // Phase 2: randomized sweep.
    let mut cases = 0u64;
    for index in 0..config.budget {
        cases += 1;
        let case_seed = crate::campaign::case_seed(config.seed, index);
        let mut state = case_seed;
        let steps = random_script(&mut state);
        let dry = FaultStorage::default();
        let (completed, error) = drive(&dry, durability, &steps);
        if let Some(error) = error {
            failures.push(StoreFailure {
                phase: "sweep",
                case_seed,
                detail: format!("fault-free run failed after {completed} steps: {error}"),
            });
            continue;
        }
        let fault = random_fault(&mut state, dry.ops());
        if let Err(detail) = contained_check(durability, &steps, fault) {
            failures.push(StoreFailure {
                phase: "sweep",
                case_seed,
                detail: format!("{fault:?}: {detail}"),
            });
        }
    }

    StoreReport {
        seed: config.seed,
        matrix_points,
        cases,
        inject: config.inject,
        failures,
        elapsed_secs: start.elapsed().as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_full_durability_sweep_is_clean() {
        let report = run_store_sweep(&StoreSweepConfig {
            seed: 7,
            budget: 200,
            inject: None,
        });
        assert!(report.matrix_points > 40, "matrix must enumerate every op");
        assert_eq!(report.cases, 200);
        assert!(
            report.clean(),
            "full durability must survive every fault: {:#?}",
            report.failures
        );
    }

    #[test]
    fn every_injection_is_caught_by_the_sweep() {
        for inject in [
            StoreInject::NoSyncData,
            StoreInject::NoSyncDirs,
            StoreInject::NoAtomicRename,
        ] {
            let report = run_store_sweep(&StoreSweepConfig {
                seed: 7,
                budget: 200,
                inject: Some(inject),
            });
            assert!(
                !report.clean(),
                "{}: a weakened store must fail the sweep",
                inject.name()
            );
            // The exhaustive matrix alone sees every one of them.
            assert!(
                report.failures.iter().any(|f| f.phase == "matrix"),
                "{}: the crash matrix must fail on its own",
                inject.name()
            );
        }
    }

    #[test]
    fn reports_are_deterministic_and_render_json() {
        let config = StoreSweepConfig {
            seed: 11,
            budget: 50,
            inject: None,
        };
        let a = run_store_sweep(&config);
        let b = run_store_sweep(&config);
        assert_eq!(a.failures.len(), b.failures.len());
        assert_eq!(a.matrix_points, b.matrix_points);
        let json = a.to_json();
        assert!(json.contains("\"generated_by\": \"daisyfuzz store\""));
        assert!(json.contains("\"clean\": true"));
        assert!(json.contains("\"inject\": null"));
        let json = run_store_sweep(&StoreSweepConfig {
            seed: 11,
            budget: 10,
            inject: Some(StoreInject::NoSyncData),
        })
        .to_json();
        assert!(json.contains("\"inject\": \"no-fsync\""));
        assert!(json.contains("\"clean\": false"));
    }

    #[test]
    fn the_inject_menu_round_trips() {
        for name in ["no-fsync", "no-dirsync", "no-rename"] {
            let inject = StoreInject::parse(name).unwrap();
            assert_eq!(inject.name(), name);
            assert_ne!(inject.durability(), Durability::FULL);
        }
        assert!(StoreInject::parse("no-such").is_none());
    }
}
