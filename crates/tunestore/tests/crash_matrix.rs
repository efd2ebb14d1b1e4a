//! The exhaustive crash matrix of the tunestore's one crash contract, the
//! atomic snapshot save ([`tunestore::atomic_write`]).
//!
//! A fixed script of reloads and inserts (each accepted insert followed by
//! a whole-file [`Snapshot::save_with`]) runs against [`FaultStorage`], a
//! deterministic in-memory disk. A fault-free run counts the script's I/O
//! operations; the script is then re-run once for every [`FaultKind`] —
//! power cut, power cut with a flipped bit, clean failure, `ENOSPC` partial
//! write — at every one of those operation indices, on a target inside a
//! directory and on a bare file name. Every case asserts that
//!
//! * only the injected fault stops the script;
//! * the reload (after the reboot, for a power cut) equals the model state
//!   after the acknowledged steps, or after one more step when the
//!   in-flight save's rename landed;
//! * a second reload reads the same bytes;
//! * saving the reloaded snapshot again succeeds and leaves the target
//!   alone in its directory, every temp file a failed save left swept.
//!
//! The matrix also tests itself: each weakening of the save's protocol
//! ([`Protocol`]) — skip the data fsync, skip the directory fsync, rewrite
//! the target in place instead of renaming over it — must fail it.
//!
//! # The crash model
//!
//! [`FaultStorage`] models an ext4-like contract, adversarially:
//!
//! * Data written but not `sync_file`d survives a crash only as a torn
//!   prefix that loses at least its last byte (and has one bit flipped
//!   under [`FaultKind::PowerCutFlip`]). An overwrite destroys the old
//!   contents at once: after a crash the file holds a torn prefix of the
//!   *new* bytes.
//! * Namespace changes (creation, `rename`, `remove_file`) are volatile
//!   until their directory is `sync_dir`ed: a crash rolls back every
//!   uncommitted one, newest first.
//!
//! Directories themselves are not modelled; `create_dir_all` only counts
//! as an operation.

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use loop_ir::expr::Var;
use transforms::{Recipe, Transform};
use tunestore::{Snapshot, Storage, StoreError, StoredEntry};

/// Every error the fake injects starts with this; any other error that
/// stops the script is a finding.
const INJECTED: &str = "injected";

/// The faults the matrix crosses with every operation index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FaultKind {
    /// The power fails at the planned operation: it and every later one
    /// fail until [`FaultStorage::crash`] reboots the disk.
    PowerCut,
    /// A power cut whose reboot also flips one bit in each torn region, as
    /// in a sector that was mid-write at power-off.
    PowerCutFlip,
    /// The planned operation fails without being applied; the power stays
    /// on.
    CleanFailure,
    /// The disk is full at the planned operation: a write there keeps the
    /// first half of its bytes and fails; other operations allocate
    /// nothing and run normally.
    Enospc,
}

const FAULT_KINDS: [FaultKind; 4] = [
    FaultKind::PowerCut,
    FaultKind::PowerCutFlip,
    FaultKind::CleanFailure,
    FaultKind::Enospc,
];

/// A fault of `kind` at the operation with index `at` (0-based, in call
/// order).
#[derive(Debug, Clone, Copy)]
struct Fault {
    kind: FaultKind,
    at: u64,
}

fn injected(what: &str) -> io::Error {
    io::Error::other(format!("{INJECTED} {what}"))
}

fn not_found(path: &Path) -> io::Error {
    io::Error::new(
        io::ErrorKind::NotFound,
        format!("{}: no such file", path.display()),
    )
}

/// The directory whose `sync_dir` commits a namespace change of `path` and
/// whose `list_dir` lists it. This is the one place the fake resolves the
/// empty parent of a bare file name: to `.`, the name `atomic_write` syncs
/// and lists it under.
fn dir_of(path: &Path) -> &Path {
    match path.parent() {
        Some(parent) if !parent.as_os_str().is_empty() => parent,
        _ => Path::new("."),
    }
}

/// One in-memory file: its live contents and how much of them is durable.
#[derive(Debug, Clone)]
struct FileState {
    /// Current contents as the process sees them.
    live: Vec<u8>,
    /// `live[..synced_len]` survives a crash intact; the rest is torn.
    synced_len: usize,
}

/// A namespace change that is volatile until its directory is synced,
/// with what a rollback needs captured when it happened.
#[derive(Debug)]
enum NsOp {
    /// `path` was created; rollback removes it.
    Create { path: PathBuf },
    /// `path` was removed; rollback restores `prev`.
    Remove { path: PathBuf, prev: FileState },
    /// `from` was renamed over `to`; rollback moves the file back and
    /// restores whatever `to` held before.
    Rename {
        from: PathBuf,
        to: PathBuf,
        prev_to: Option<FileState>,
    },
}

impl NsOp {
    /// The directory whose `sync_dir` commits this change.
    fn dir(&self) -> &Path {
        match self {
            NsOp::Create { path } | NsOp::Remove { path, .. } => dir_of(path),
            NsOp::Rename { to, .. } => dir_of(to),
        }
    }
}

#[derive(Debug, Default)]
struct Disk {
    files: BTreeMap<PathBuf, FileState>,
    pending: Vec<NsOp>,
    ops: u64,
    powered_off: bool,
}

/// Deterministic in-memory disk that injects one [`Fault`]. See the module
/// docs for the crash model.
#[derive(Debug, Default)]
struct FaultStorage {
    fault: Option<Fault>,
    disk: Mutex<Disk>,
}

impl FaultStorage {
    fn new(fault: Fault) -> FaultStorage {
        FaultStorage {
            fault: Some(fault),
            disk: Mutex::default(),
        }
    }

    /// Number of operations performed so far.
    fn ops(&self) -> u64 {
        self.disk.lock().unwrap().ops
    }

    /// Reboots after a power cut: uncommitted namespace changes roll back
    /// (newest first), un-synced contents tear to a deterministic prefix,
    /// and later operations succeed again. Also callable without a cut, to
    /// ask what would survive if the power failed now.
    fn crash(&self) {
        let flip = matches!(
            self.fault,
            Some(Fault {
                kind: FaultKind::PowerCutFlip,
                ..
            })
        );
        let mut guard = self.disk.lock().unwrap();
        let disk = &mut *guard;
        while let Some(op) = disk.pending.pop() {
            match op {
                NsOp::Create { path } => {
                    disk.files.remove(&path);
                }
                NsOp::Remove { path, prev } => {
                    disk.files.insert(path, prev);
                }
                NsOp::Rename { from, to, prev_to } => {
                    if let Some(moved) = disk.files.remove(&to) {
                        disk.files.insert(from, moved);
                    }
                    if let Some(prev) = prev_to {
                        disk.files.insert(to, prev);
                    }
                }
            }
        }
        for (path, file) in disk.files.iter_mut() {
            let tail = file.live.len() - file.synced_len;
            if tail > 0 {
                let seed = mix(&(path, disk.ops));
                let keep = (seed % tail as u64) as usize;
                file.live.truncate(file.synced_len + keep);
                if flip && keep > 0 {
                    let torn = mix(&seed);
                    let pos = file.synced_len + (torn % keep as u64) as usize;
                    file.live[pos] ^= 1u8 << (torn >> 32 & 7);
                }
            }
            file.synced_len = file.live.len();
        }
        disk.powered_off = false;
    }

    /// Counts one operation and applies the fault planned for it: the
    /// operation's index, or the injected error.
    fn charge(&self, disk: &mut Disk) -> io::Result<u64> {
        if disk.powered_off {
            return Err(injected("power cut"));
        }
        let index = disk.ops;
        disk.ops += 1;
        match self.fault {
            Some(Fault { kind, at }) if at == index => match kind {
                FaultKind::PowerCut | FaultKind::PowerCutFlip => {
                    disk.powered_off = true;
                    Err(injected("power cut"))
                }
                FaultKind::CleanFailure => Err(injected(&format!("failure of op {index}"))),
                FaultKind::Enospc => Ok(index),
            },
            _ => Ok(index),
        }
    }
}

/// A deterministic 64-bit mix, for tearing decisions.
fn mix(value: &impl Hash) -> u64 {
    let mut hasher = DefaultHasher::new();
    value.hash(&mut hasher);
    hasher.finish()
}

impl Storage for FaultStorage {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let mut disk = self.disk.lock().unwrap();
        self.charge(&mut disk)?;
        disk.files
            .get(path)
            .map(|file| file.live.clone())
            .ok_or_else(|| not_found(path))
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut disk = self.disk.lock().unwrap();
        let index = self.charge(&mut disk)?;
        let full = matches!(
            self.fault,
            Some(Fault { kind: FaultKind::Enospc, at }) if at == index
        );
        let kept = if full {
            &bytes[..bytes.len() / 2]
        } else {
            bytes
        };
        // Truncation destroys the old durable contents at once: the crash
        // image is now a torn prefix of the new bytes.
        let old = disk.files.insert(
            path.to_path_buf(),
            FileState {
                live: kept.to_vec(),
                synced_len: 0,
            },
        );
        if old.is_none() {
            disk.pending.push(NsOp::Create {
                path: path.to_path_buf(),
            });
        }
        if full {
            return Err(injected("ENOSPC: no space left on device"));
        }
        Ok(())
    }

    fn sync_file(&self, path: &Path) -> io::Result<()> {
        let mut disk = self.disk.lock().unwrap();
        self.charge(&mut disk)?;
        let file = disk.files.get_mut(path).ok_or_else(|| not_found(path))?;
        file.synced_len = file.live.len();
        Ok(())
    }

    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        let mut disk = self.disk.lock().unwrap();
        self.charge(&mut disk)?;
        disk.pending.retain(|op| op.dir() != path);
        Ok(())
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut disk = self.disk.lock().unwrap();
        self.charge(&mut disk)?;
        let moved = disk.files.remove(from).ok_or_else(|| not_found(from))?;
        let prev_to = disk.files.insert(to.to_path_buf(), moved);
        disk.pending.push(NsOp::Rename {
            from: from.to_path_buf(),
            to: to.to_path_buf(),
            prev_to,
        });
        Ok(())
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        let mut disk = self.disk.lock().unwrap();
        self.charge(&mut disk)?;
        let prev = disk.files.remove(path).ok_or_else(|| not_found(path))?;
        disk.pending.push(NsOp::Remove {
            path: path.to_path_buf(),
            prev,
        });
        Ok(())
    }

    fn create_dir_all(&self, _path: &Path) -> io::Result<()> {
        let mut disk = self.disk.lock().unwrap();
        self.charge(&mut disk)?;
        Ok(())
    }

    fn list_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        let mut disk = self.disk.lock().unwrap();
        self.charge(&mut disk)?;
        Ok(disk
            .files
            .keys()
            .filter(|file| dir_of(file) == path)
            .cloned()
            .collect())
    }
}

/// How much of the save's protocol reaches the disk. `Full` passes every
/// operation through; each weakening removes one leg, and the matrix must
/// catch it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Protocol {
    Full,
    /// `sync_file` is acknowledged without flushing anything.
    NoFsync,
    /// `sync_dir` is acknowledged without flushing anything, so renames
    /// stay volatile.
    NoDirsync,
    /// `rename` copies the temp file's bytes over the target (then fsyncs
    /// it and removes the temp): the snapshot is rewritten in place.
    NoRename,
}

/// The [`Storage`] the script runs on: the fake disk seen through a
/// [`Protocol`].
#[derive(Debug)]
struct Weakened<'a> {
    disk: &'a FaultStorage,
    protocol: Protocol,
}

impl Storage for Weakened<'_> {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.disk.read(path)
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.disk.write(path, bytes)
    }

    fn sync_file(&self, path: &Path) -> io::Result<()> {
        match self.protocol {
            Protocol::NoFsync => Ok(()),
            _ => self.disk.sync_file(path),
        }
    }

    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        match self.protocol {
            Protocol::NoDirsync => Ok(()),
            _ => self.disk.sync_dir(path),
        }
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        if self.protocol != Protocol::NoRename {
            return self.disk.rename(from, to);
        }
        let bytes = self.disk.read(from)?;
        self.disk.write(to, &bytes)?;
        self.disk.sync_file(to)?;
        self.disk.remove_file(from)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.disk.remove_file(path)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.disk.create_dir_all(path)
    }

    fn list_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        self.disk.list_dir(path)
    }
}

/// One step of the script.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Drop the in-memory snapshot and reload it from the file.
    Reload,
    /// Insert `key` at `cost_millis / 1000.0` seconds, saving the snapshot
    /// when the insert is accepted.
    Insert(u64, u64),
}

/// The fixed script: a reload of the not-yet-written file (which reads as
/// empty), inserts with a best-cost improvement and a rejected duplicate,
/// and a mid-script reload.
const SCRIPT: [Step; 9] = [
    Step::Reload,
    Step::Insert(1, 900),
    Step::Insert(2, 800),
    Step::Insert(1, 500),
    Step::Insert(3, 700),
    Step::Insert(2, 950), // rejected: worse cost, no I/O
    Step::Reload,
    Step::Insert(4, 600),
    Step::Insert(5, 450),
];

/// Two reloads of one read each, and six accepted inserts, each saved by
/// `create_dir_all`, `list_dir`, `write`, `sync_file`, `rename` and
/// `sync_dir`.
const SCRIPT_OPS: u64 = 2 + 6 * 6;

/// The targets every matrix runs on: one inside a directory, one a bare
/// file name in the working directory.
const TARGETS: [&str; 2] = ["dir/s.tunedb", "s.tunedb"];

fn empty() -> Snapshot {
    Snapshot {
        fingerprint: "crash-matrix".to_string(),
        entries: Vec::new(),
    }
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
        source: format!("matrix-{key}"),
    }
}

/// `models()[k]` is the snapshot after `k` completed steps.
fn models() -> Vec<Snapshot> {
    let mut view = empty();
    let mut out = vec![view.clone()];
    for step in SCRIPT {
        if let Step::Insert(key, cost) = step {
            view.insert(entry(key, cost));
        }
        out.push(view.clone());
    }
    out
}

/// Loads the target; a file that was never written reads as empty.
fn reload(storage: &dyn Storage, target: &Path) -> Result<Snapshot, StoreError> {
    match Snapshot::load_with(storage, target) {
        Err(StoreError::Io(error)) if error.kind() == io::ErrorKind::NotFound => Ok(empty()),
        loaded => loaded,
    }
}

/// Runs the script, returning the completed steps and the error that
/// stopped it.
fn drive(storage: &dyn Storage, target: &Path) -> (usize, Option<StoreError>) {
    let mut snapshot = empty();
    for (completed, step) in SCRIPT.iter().enumerate() {
        let result = match *step {
            Step::Reload => reload(storage, target).map(|reloaded| snapshot = reloaded),
            Step::Insert(key, cost) => {
                if snapshot.insert(entry(key, cost)) {
                    snapshot.save_with(storage, target)
                } else {
                    Ok(())
                }
            }
        };
        if let Err(error) = result {
            return (completed, Some(error));
        }
    }
    (SCRIPT.len(), None)
}

/// The keys and costs of a snapshot, for failure messages.
fn show(snapshot: &Snapshot) -> Vec<(u64, f64)> {
    snapshot.entries.iter().map(|e| (e.key, e.cost)).collect()
}

/// Runs the script under one fault and checks the recovery invariant.
fn check_case(protocol: Protocol, target: &Path, fault: Fault) -> Result<(), String> {
    let disk = FaultStorage::new(fault);
    let storage = Weakened {
        disk: &disk,
        protocol,
    };
    let (acked, error) = drive(&storage, target);
    match &error {
        Some(StoreError::Io(io)) if io.to_string().starts_with(INJECTED) => {}
        Some(other) => {
            return Err(format!(
                "only the injected fault may stop the script, got: {other}"
            ))
        }
        None => {}
    }
    if matches!(fault.kind, FaultKind::PowerCut | FaultKind::PowerCutFlip) {
        disk.crash();
    }

    let reloaded = || reload(&storage, target).map_err(|e| format!("reload failed: {e}"));
    let first = reloaded()?;
    let models = models();
    let in_flight = (acked + 1).min(SCRIPT.len());
    if first != models[acked] && first != models[in_flight] {
        return Err(format!(
            "reloaded {:?} is neither the state after {acked} acknowledged steps ({:?}) \
             nor with the in-flight step ({:?})",
            show(&first),
            show(&models[acked]),
            show(&models[in_flight])
        ));
    }
    if reloaded()?.encode() != first.encode() {
        return Err("a second reload decoded to different bytes".to_string());
    }

    first
        .save_with(&storage, target)
        .map_err(|e| format!("saving the reloaded snapshot failed: {e}"))?;
    let listed = disk
        .list_dir(dir_of(target))
        .map_err(|e| format!("listing failed: {e}"))?;
    if listed != [target] {
        return Err(format!(
            "after a save the directory holds {listed:?}, not just the target"
        ));
    }
    Ok(())
}

/// Runs the script on `target` through `protocol`: once fault-free, then
/// once for every fault of `kinds` at every operation index of the
/// fault-free run. Returns the number of faulted cases and every violation.
fn matrix(protocol: Protocol, target: &str, kinds: &[FaultKind]) -> (u64, Vec<String>) {
    let target = Path::new(target);
    let mut failures = Vec::new();
    let dry = FaultStorage::default();
    let (completed, error) = drive(
        &Weakened {
            disk: &dry,
            protocol,
        },
        target,
    );
    if let Some(error) = error {
        failures.push(format!(
            "the fault-free run failed after {completed} steps: {error}"
        ));
    }
    let mut cases = 0;
    for &kind in kinds {
        for at in 0..dry.ops() {
            cases += 1;
            if let Err(detail) = check_case(protocol, target, Fault { kind, at }) {
                failures.push(format!("{kind:?} at op {at}: {detail}"));
            }
        }
    }
    (cases, failures)
}

fn assert_recovers(kind: FaultKind) {
    for target in TARGETS {
        let (cases, failures) = matrix(Protocol::Full, target, &[kind]);
        assert_eq!(
            cases, SCRIPT_OPS,
            "{target}: the matrix must fault every op of the script"
        );
        assert!(
            failures.is_empty(),
            "{target}: cases violating recovery: {failures:#?}"
        );
    }
}

fn assert_caught(protocol: Protocol) {
    for target in TARGETS {
        let (_, failures) = matrix(protocol, target, &FAULT_KINDS);
        assert!(
            !failures.is_empty(),
            "{target}: a save weakened by {protocol:?} passed the crash matrix"
        );
    }
}

#[test]
fn every_crash_point_recovers_an_acknowledged_prefix() {
    assert_recovers(FaultKind::PowerCut);
}

#[test]
fn every_crash_point_recovers_even_with_bit_corruption() {
    assert_recovers(FaultKind::PowerCutFlip);
}

#[test]
fn every_clean_failure_leaves_an_acknowledged_prefix() {
    assert_recovers(FaultKind::CleanFailure);
}

#[test]
fn every_enospc_write_leaves_an_acknowledged_prefix() {
    assert_recovers(FaultKind::Enospc);
}

/// Skipping data fsyncs lets a crash tear a renamed snapshot.
#[test]
fn the_matrix_catches_a_store_that_skips_data_fsync() {
    assert_caught(Protocol::NoFsync);
}

/// Skipping directory fsyncs lets a crash roll an acknowledged rename back.
#[test]
fn the_matrix_catches_a_store_that_skips_dir_fsync() {
    assert_caught(Protocol::NoDirsync);
}

/// Rewriting the target in place lets a crash or a full disk tear it.
#[test]
fn the_matrix_catches_a_store_that_writes_snapshots_in_place() {
    assert_caught(Protocol::NoRename);
}

// The fake's own contract: the matrix is only as strict as this model.

fn p(path: &str) -> &Path {
    Path::new(path)
}

#[test]
fn fault_storage_round_trips_files() {
    let fs = FaultStorage::default();
    fs.create_dir_all(p("d")).unwrap();
    fs.write(p("d/a"), b"hello").unwrap();
    assert_eq!(fs.read(p("d/a")).unwrap(), b"hello");
    fs.rename(p("d/a"), p("d/b")).unwrap();
    assert!(fs.read(p("d/a")).is_err());
    assert_eq!(fs.read(p("d/b")).unwrap(), b"hello");
    assert_eq!(fs.list_dir(p("d")).unwrap(), vec![p("d/b")]);
    fs.write(p("top"), b"x").unwrap();
    assert_eq!(
        fs.list_dir(p(".")).unwrap(),
        vec![p("top")],
        "a bare file name is listed under the working directory"
    );
    fs.remove_file(p("d/b")).unwrap();
    assert!(matches!(
        fs.read(p("d/b")),
        Err(e) if e.kind() == io::ErrorKind::NotFound
    ));
}

#[test]
fn unsynced_data_is_torn_at_crash_synced_data_survives() {
    let fs = FaultStorage::default();
    fs.write(p("a"), b"durable").unwrap();
    fs.sync_file(p("a")).unwrap();
    fs.sync_dir(p(".")).unwrap();
    fs.crash();
    assert_eq!(fs.read(p("a")).unwrap(), b"durable", "synced data survives");
    fs.write(p("a"), b"volatile-overwrite").unwrap();
    fs.crash();
    let after = fs.read(p("a")).unwrap();
    assert!(
        b"volatile-overwrite".starts_with(&after) && after.len() < b"volatile-overwrite".len(),
        "an unsynced overwrite leaves a torn prefix of the new bytes: {after:?}"
    );
}

#[test]
fn unsynced_rename_rolls_back_at_crash() {
    let fs = FaultStorage::default();
    fs.write(p("old"), b"old-bytes").unwrap();
    fs.sync_file(p("old")).unwrap();
    fs.sync_dir(p(".")).unwrap();
    fs.write(p("new"), b"new-bytes").unwrap();
    fs.sync_file(p("new")).unwrap();
    fs.rename(p("new"), p("old")).unwrap();
    // No sync_dir: the rename is volatile — and so is the creation of
    // "new" itself, so after the crash only the committed "old" exists.
    fs.crash();
    assert_eq!(fs.read(p("old")).unwrap(), b"old-bytes");
    assert!(
        fs.read(p("new")).is_err(),
        "uncommitted creation vanishes too"
    );
    // Committed renames survive.
    fs.write(p("new"), b"new-bytes").unwrap();
    fs.sync_file(p("new")).unwrap();
    fs.sync_dir(p(".")).unwrap();
    fs.rename(p("new"), p("old")).unwrap();
    fs.sync_dir(p(".")).unwrap();
    fs.crash();
    assert_eq!(fs.read(p("old")).unwrap(), b"new-bytes");
    assert!(fs.read(p("new")).is_err());
}

#[test]
fn uncommitted_creation_vanishes_at_crash() {
    let fs = FaultStorage::default();
    fs.write(p("d/f"), b"x").unwrap();
    fs.sync_file(p("d/f")).unwrap();
    // Creation never committed with sync_dir (syncing another directory
    // does not count).
    fs.sync_dir(p(".")).unwrap();
    fs.crash();
    assert!(fs.read(p("d/f")).is_err());
}

#[test]
fn power_cut_fires_at_the_planned_op_and_clears_on_crash() {
    let fs = FaultStorage::new(Fault {
        kind: FaultKind::PowerCut,
        at: 3,
    });
    fs.write(p("a"), b"1").unwrap(); // op 0
    fs.sync_file(p("a")).unwrap(); // op 1
    fs.sync_dir(p(".")).unwrap(); // op 2: commit a's creation
    let err = fs.write(p("b"), b"2").unwrap_err(); // op 3: cut
    assert!(err.to_string().starts_with(INJECTED));
    let err = fs.read(p("a")).unwrap_err();
    assert!(
        err.to_string().starts_with(INJECTED),
        "everything fails until reboot"
    );
    fs.crash();
    assert!(fs.read(p("a")).is_ok(), "reboot restores service");
    assert!(fs.read(p("b")).is_err(), "the cut op was never applied");
}

#[test]
fn a_clean_failure_is_not_applied_and_keeps_the_power_on() {
    let fs = FaultStorage::new(Fault {
        kind: FaultKind::CleanFailure,
        at: 1,
    });
    fs.write(p("a"), b"x").unwrap();
    let err = fs.rename(p("a"), p("b")).unwrap_err(); // op 1
    assert!(err.to_string().starts_with(INJECTED));
    assert_eq!(
        fs.read(p("a")).unwrap(),
        b"x",
        "the failed rename was not applied"
    );
    // Only the planned op fails; the next rename succeeds.
    fs.rename(p("a"), p("b")).unwrap();
    assert_eq!(fs.read(p("b")).unwrap(), b"x");
}

#[test]
fn enospc_keeps_half_of_the_write_and_fails_it() {
    let fs = FaultStorage::new(Fault {
        kind: FaultKind::Enospc,
        at: 1,
    });
    fs.create_dir_all(p("d")).unwrap(); // op 0
    let err = fs.write(p("d/a"), b"123456").unwrap_err(); // op 1
    assert!(err.to_string().contains("ENOSPC"));
    assert_eq!(fs.read(p("d/a")).unwrap(), b"123", "partial application");
}

#[test]
fn crash_images_are_deterministic() {
    let image = || {
        let fs = FaultStorage::new(Fault {
            kind: FaultKind::PowerCutFlip,
            at: 2,
        });
        fs.write(p("f"), b"0123456789abcdef").unwrap();
        fs.sync_dir(p(".")).unwrap();
        assert!(fs.read(p("f")).is_err(), "op 2: cut");
        fs.crash();
        fs.read(p("f")).unwrap()
    };
    assert_eq!(image(), image());
}
