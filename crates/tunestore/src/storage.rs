//! The pluggable storage layer every on-disk operation goes through.
//!
//! The store never calls `std::fs` directly: all filesystem traffic is
//! routed through the [`Storage`] trait, so the same snapshot code runs
//! against the real filesystem ([`OsStorage`]) and against the
//! deterministic in-memory [`FaultStorage`], which can inject torn writes,
//! rename failures, `ENOSPC`, bit corruption, and a simulated power cut
//! after the Nth I/O operation. The crash matrix of the fuzz farm's store
//! sweep (`fuzz::run_crash_matrix`, run by `daisyfuzz store` and by
//! `crates/fuzz/tests/crash_matrix.rs`) enumerates every operation index of
//! a run of snapshot saves, crashes there, reloads, and asserts that the
//! file holds a complete acknowledged snapshot.
//!
//! # The crash model
//!
//! [`FaultStorage`] models an ext4-like contract, adversarially:
//!
//! * Data written but **not** `sync_file`d survives a crash
//!   only as a deterministically *torn prefix* (possibly with a flipped
//!   bit when [`FaultPlan::flip_bit_on_crash`] is set). An overwrite
//!   destroys the old contents immediately — after a crash, the file
//!   holds a torn prefix of the *new* bytes.
//! * Namespace operations (file creation, `rename`, `remove_file`) are
//!   volatile until the parent directory is `sync_dir`ed: a crash rolls
//!   back every uncommitted namespace operation, newest first.
//!
//! Code that survives this model (fsync file, rename, fsync directory —
//! the contract [`atomic_write`] implements) is durable on real POSIX
//! filesystems; code that skips a sync is caught by the harness.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use crate::error::Result;

/// Message carried by the [`io::Error`] every operation returns after a
/// simulated power cut. Callers that must distinguish "the fault plan cut
/// the power" from a real I/O failure can match on it via
/// [`is_power_cut`].
pub const POWER_CUT_MSG: &str = "simulated power cut";

/// True when an I/O error is [`FaultStorage`]'s simulated power cut.
pub fn is_power_cut(error: &io::Error) -> bool {
    error.to_string().contains(POWER_CUT_MSG)
}

/// Abstraction over every filesystem operation the store performs.
///
/// Implementations must be usable from `&self` (interior mutability where
/// needed) so one storage can be shared across components.
pub trait Storage: Send + Sync + fmt::Debug {
    /// Reads a whole file.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Creates or truncates `path` and writes `bytes`.
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// Flushes a file's data to durable storage (`fsync`).
    fn sync_file(&self, path: &Path) -> io::Result<()>;
    /// Flushes a directory's entries to durable storage (`fsync` on the
    /// directory), making renames/creations/removals inside it durable.
    fn sync_dir(&self, path: &Path) -> io::Result<()>;
    /// Atomically renames `from` over `to`.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Removes a file.
    fn remove_file(&self, path: &Path) -> io::Result<()>;
    /// Creates a directory and all its ancestors.
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;
    /// Lists the files (not directories) directly inside `path`.
    fn list_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>>;
    /// True when a file exists at `path`.
    fn exists(&self, path: &Path) -> bool;
}

/// How much durability the write paths buy. [`Durability::FULL`] is the
/// correct production setting; the weakened variants exist so the fault
/// harness can mutation-test itself — each skipped sync must be *caught*
/// by the crash matrix, proving the harness detects real durability holes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Durability {
    /// `fsync` file data before acknowledging (and before renaming over a
    /// target).
    pub sync_data: bool,
    /// `fsync` the parent directory after namespace changes.
    pub sync_dirs: bool,
    /// Write snapshots to a temp file renamed over the target. When
    /// `false`, snapshots are written in place (non-atomically).
    pub atomic_rename: bool,
}

impl Durability {
    /// Full fsync/rename discipline — the production setting.
    pub const FULL: Durability = Durability {
        sync_data: true,
        sync_dirs: true,
        atomic_rename: true,
    };
}

impl Default for Durability {
    fn default() -> Self {
        Durability::FULL
    }
}

/// The real filesystem.
#[derive(Debug, Clone, Copy, Default)]
pub struct OsStorage;

impl Storage for OsStorage {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        std::fs::write(path, bytes)
    }

    fn sync_file(&self, path: &Path) -> io::Result<()> {
        std::fs::File::open(path)?.sync_all()
    }

    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        // Directories can be opened read-only and fsynced on unix; on
        // platforms where opening a directory fails, the rename-based
        // protocol still gives atomicity, just not power-loss durability
        // of the namespace change.
        match std::fs::File::open(path) {
            Ok(dir) => dir.sync_all(),
            Err(_) => Ok(()),
        }
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        std::fs::create_dir_all(path)
    }

    fn list_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(path)? {
            let entry = entry?;
            if entry.file_type()?.is_file() {
                out.push(entry.path());
            }
        }
        out.sort();
        Ok(out)
    }

    fn exists(&self, path: &Path) -> bool {
        path.is_file()
    }
}

/// The kind of a storage operation, for targeted clean-failure injection
/// ([`FaultPlan::fail_op`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// [`Storage::read`]
    Read,
    /// [`Storage::write`]
    Write,
    /// [`Storage::sync_file`]
    SyncFile,
    /// [`Storage::sync_dir`]
    SyncDir,
    /// [`Storage::rename`]
    Rename,
    /// [`Storage::remove_file`]
    RemoveFile,
    /// [`Storage::create_dir_all`]
    CreateDir,
    /// [`Storage::list_dir`]
    ListDir,
}

/// Deterministic fault plan for a [`FaultStorage`]. Everything a plan does
/// is a pure function of the plan and the operation sequence, so a failing
/// case replays exactly from its seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Seed for the deterministic tearing / bit-flip decisions.
    pub seed: u64,
    /// Simulated power cut: the operation with this index (0-based, in
    /// call order) and every later one fail with [`POWER_CUT_MSG`]. The
    /// on-disk image is materialized by [`FaultStorage::crash`].
    pub crash_at_op: Option<u64>,
    /// Clean failure injection: the Nth operation (0-based, counted per
    /// kind) of the given kind fails with an I/O error *without* being
    /// applied and without cutting the power — e.g. a rename failure or a
    /// transient full disk.
    pub fail_op: Option<(OpKind, u64)>,
    /// Byte budget for `write`: once this many payload bytes have
    /// been accepted, further data is applied only partially (up to the
    /// budget) and the operation fails with an `ENOSPC`-style error.
    pub disk_budget: Option<u64>,
    /// Flip one deterministic bit inside each torn (un-synced) region when
    /// the crash image is materialized — simulating a sector that was
    /// mid-write at power-off.
    pub flip_bit_on_crash: bool,
}

impl FaultPlan {
    /// A plan that cuts the power before the operation with index `op`.
    pub fn power_cut_at(op: u64) -> FaultPlan {
        FaultPlan {
            crash_at_op: Some(op),
            ..FaultPlan::default()
        }
    }
}

/// One in-memory file: its live contents and how much of them is durable.
#[derive(Debug, Clone, PartialEq, Eq)]
struct FileState {
    /// Current contents as the process sees them.
    live: Vec<u8>,
    /// `live[..synced_len]` survives a crash intact; the rest is torn.
    synced_len: usize,
}

impl FileState {
    fn new() -> FileState {
        FileState {
            live: Vec::new(),
            synced_len: 0,
        }
    }
}

/// A namespace change that is volatile until its directory is synced.
/// Rollback information is captured at operation time.
#[derive(Debug, Clone)]
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
    /// The directory whose `sync_dir` commits this operation.
    fn parent(&self) -> &Path {
        let path = match self {
            NsOp::Create { path } => path,
            NsOp::Remove { path, .. } => path,
            NsOp::Rename { to, .. } => to,
        };
        path.parent().unwrap_or_else(|| Path::new(""))
    }
}

#[derive(Debug, Default)]
struct FaultState {
    files: BTreeMap<PathBuf, FileState>,
    dirs: BTreeSet<PathBuf>,
    pending: Vec<NsOp>,
    ops: u64,
    per_kind: BTreeMap<&'static str, u64>,
    bytes_written: u64,
    crashed: bool,
}

/// Deterministic in-memory filesystem with fault injection, for the
/// crash-matrix harness and the `daisyfuzz store` sweep. See the module
/// docs for the crash model.
#[derive(Debug)]
pub struct FaultStorage {
    plan: Mutex<FaultPlan>,
    state: Mutex<FaultState>,
}

impl Default for FaultStorage {
    fn default() -> Self {
        FaultStorage::new(FaultPlan::default())
    }
}

/// SplitMix64 — the deterministic mix used for tearing decisions.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn path_mix(path: &Path) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in path.as_os_str().as_encoded_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

impl FaultStorage {
    /// An empty storage governed by `plan`.
    pub fn new(plan: FaultPlan) -> FaultStorage {
        FaultStorage {
            plan: Mutex::new(plan),
            state: Mutex::new(FaultState::default()),
        }
    }

    /// Number of operations performed so far (the crash matrix enumerates
    /// crash points over this count from a clean dry run).
    pub fn ops(&self) -> u64 {
        self.state.lock().unwrap().ops
    }

    /// Replaces the fault plan (counters keep running).
    pub fn set_plan(&self, plan: FaultPlan) {
        *self.plan.lock().unwrap() = plan;
    }

    /// Simulates the reboot after a power cut: uncommitted namespace
    /// operations are rolled back (newest first), un-synced file contents
    /// are torn to a deterministic prefix (with an optional bit flip), and
    /// subsequent operations succeed again. Also callable without a prior
    /// cut, to ask "what would survive if the power failed now?".
    pub fn crash(&self) {
        let plan = *self.plan.lock().unwrap();
        let mut state = self.state.lock().unwrap();
        // Roll back volatile namespace changes, newest first.
        while let Some(op) = state.pending.pop() {
            match op {
                NsOp::Create { path } => {
                    state.files.remove(&path);
                }
                NsOp::Remove { path, prev } => {
                    state.files.insert(path, prev);
                }
                NsOp::Rename { from, to, prev_to } => {
                    if let Some(current) = state.files.remove(&to) {
                        state.files.insert(from, current);
                    }
                    if let Some(prev) = prev_to {
                        state.files.insert(to, prev);
                    }
                }
            }
        }
        // Tear every un-synced file to a deterministic prefix.
        let ops = state.ops;
        for (path, file) in state.files.iter_mut() {
            if file.synced_len >= file.live.len() {
                file.synced_len = file.live.len();
                continue;
            }
            let tail = file.live.len() - file.synced_len;
            let mix = splitmix(plan.seed ^ path_mix(path) ^ ops);
            let keep = (mix % (tail as u64 + 1)) as usize;
            file.live.truncate(file.synced_len + keep);
            if plan.flip_bit_on_crash && keep > 0 {
                let torn = splitmix(mix);
                let pos = file.synced_len + (torn % keep as u64) as usize;
                file.live[pos] ^= 1u8 << (torn >> 32 & 7);
            }
            file.synced_len = file.live.len();
        }
        state.crashed = false;
        // The cut has fired; clear it so the "rebooted" process can run.
        let mut plan = self.plan.lock().unwrap();
        plan.crash_at_op = None;
    }

    /// Charges one operation against the plan: returns an error if the
    /// power is already cut, cuts it at the planned index, or injects the
    /// planned clean failure for this kind.
    fn charge(&self, kind: OpKind, name: &'static str) -> io::Result<()> {
        let plan = *self.plan.lock().unwrap();
        let mut state = self.state.lock().unwrap();
        if state.crashed {
            return Err(io::Error::other(POWER_CUT_MSG));
        }
        let index = state.ops;
        state.ops += 1;
        if plan.crash_at_op == Some(index) {
            state.crashed = true;
            return Err(io::Error::other(POWER_CUT_MSG));
        }
        let kind_index = state.per_kind.entry(name).or_insert(0);
        let this_kind = *kind_index;
        *kind_index += 1;
        if let Some((fail_kind, at)) = plan.fail_op {
            if fail_kind == kind && this_kind == at {
                return Err(io::Error::other(format!(
                    "injected {name} failure (op {index})"
                )));
            }
        }
        Ok(())
    }

    /// Accepts up to `budget - used` of `bytes`, returning how many bytes
    /// may be applied and whether the budget was exhausted.
    fn admit(&self, len: usize) -> (usize, bool) {
        let plan = *self.plan.lock().unwrap();
        let mut state = self.state.lock().unwrap();
        match plan.disk_budget {
            None => {
                state.bytes_written += len as u64;
                (len, false)
            }
            Some(budget) => {
                let room = budget.saturating_sub(state.bytes_written) as usize;
                let take = room.min(len);
                state.bytes_written += take as u64;
                (take, take < len)
            }
        }
    }
}

fn not_found(path: &Path) -> io::Error {
    io::Error::new(
        io::ErrorKind::NotFound,
        format!("{}: no such file", path.display()),
    )
}

impl Storage for FaultStorage {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.charge(OpKind::Read, "read")?;
        let state = self.state.lock().unwrap();
        state
            .files
            .get(path)
            .map(|f| f.live.clone())
            .ok_or_else(|| not_found(path))
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.charge(OpKind::Write, "write")?;
        let (take, full) = self.admit(bytes.len());
        let mut state = self.state.lock().unwrap();
        let created = !state.files.contains_key(path);
        let file = state
            .files
            .entry(path.to_path_buf())
            .or_insert_with(FileState::new);
        // Truncation destroys the old durable contents immediately: the
        // crash image is now a torn prefix of the new bytes.
        file.live = bytes[..take].to_vec();
        file.synced_len = 0;
        if created {
            state.pending.push(NsOp::Create {
                path: path.to_path_buf(),
            });
        }
        if full {
            return Err(io::Error::other("no space left on device (simulated)"));
        }
        Ok(())
    }

    fn sync_file(&self, path: &Path) -> io::Result<()> {
        self.charge(OpKind::SyncFile, "sync_file")?;
        let mut state = self.state.lock().unwrap();
        let file = state.files.get_mut(path).ok_or_else(|| not_found(path))?;
        file.synced_len = file.live.len();
        Ok(())
    }

    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        self.charge(OpKind::SyncDir, "sync_dir")?;
        let mut state = self.state.lock().unwrap();
        state.pending.retain(|op| op.parent() != path);
        Ok(())
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.charge(OpKind::Rename, "rename")?;
        let mut state = self.state.lock().unwrap();
        let moved = state.files.remove(from).ok_or_else(|| not_found(from))?;
        let prev_to = state.files.insert(to.to_path_buf(), moved);
        state.pending.push(NsOp::Rename {
            from: from.to_path_buf(),
            to: to.to_path_buf(),
            prev_to,
        });
        Ok(())
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.charge(OpKind::RemoveFile, "remove_file")?;
        let mut state = self.state.lock().unwrap();
        let prev = state.files.remove(path).ok_or_else(|| not_found(path))?;
        state.pending.push(NsOp::Remove {
            path: path.to_path_buf(),
            prev,
        });
        Ok(())
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.charge(OpKind::CreateDir, "create_dir_all")?;
        let mut state = self.state.lock().unwrap();
        let mut dir = path.to_path_buf();
        loop {
            state.dirs.insert(dir.clone());
            match dir.parent() {
                Some(parent) if !parent.as_os_str().is_empty() => dir = parent.to_path_buf(),
                _ => break,
            }
        }
        Ok(())
    }

    fn list_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        self.charge(OpKind::ListDir, "list_dir")?;
        let state = self.state.lock().unwrap();
        Ok(state
            .files
            .keys()
            .filter(|p| p.parent() == Some(path))
            .cloned()
            .collect())
    }

    fn exists(&self, path: &Path) -> bool {
        self.state.lock().unwrap().files.contains_key(path)
    }
}

/// Writes `bytes` to `path` with the atomic, durable protocol: stale
/// temporaries swept, contents written to a fresh temp file in the same
/// directory, the temp file fsynced, renamed over the target, and the
/// parent directory fsynced — so a crash at any point leaves either the
/// complete old file or the complete new file, and an acknowledged write
/// survives power loss. Weakened [`Durability`] settings skip individual
/// steps (for mutation-testing the fault harness only).
pub fn atomic_write(
    storage: &dyn Storage,
    path: &Path,
    bytes: &[u8],
    durability: Durability,
) -> Result<()> {
    use crate::error::StoreError;
    static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => PathBuf::from("."),
    };
    storage.create_dir_all(&parent)?;
    let file_name = path.file_name().ok_or_else(|| {
        StoreError::Io(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("store path {} has no file name", path.display()),
        ))
    })?;

    if !durability.atomic_rename {
        // Mutation-testing mode: write in place, no temp file, no rename.
        storage.write(path, bytes)?;
        if durability.sync_data {
            storage.sync_file(path)?;
        }
        return Ok(());
    }

    sweep_stale_temps(storage, path);
    let tmp = path.with_file_name(format!(
        "{}.tmp.{}.{}",
        file_name.to_string_lossy(),
        std::process::id(),
        SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ));
    storage.write(&tmp, bytes)?;
    if durability.sync_data {
        storage.sync_file(&tmp)?;
    }
    storage.rename(&tmp, path)?;
    if durability.sync_dirs {
        storage.sync_dir(&parent)?;
    }
    Ok(())
}

/// Removes stale `<name>.tmp.*` siblings left behind by saves that failed
/// between write and rename (a crashed process, a full disk). Errors are
/// ignored: the sweep is best-effort hygiene, and a temp file that cannot
/// be listed or removed never affects the target's correctness. A save of
/// the *same* target racing in another process may lose its temp file to
/// this sweep and fail cleanly — last-writer-wins already governed that
/// race; saves of distinct targets are never touched (the prefix includes
/// the full target file name).
pub fn sweep_stale_temps(storage: &dyn Storage, path: &Path) {
    let Some(parent) = path.parent() else { return };
    let parent = if parent.as_os_str().is_empty() {
        Path::new(".")
    } else {
        parent
    };
    let Some(file_name) = path.file_name() else {
        return;
    };
    let prefix = format!("{}.tmp.", file_name.to_string_lossy());
    let Ok(entries) = storage.list_dir(parent) else {
        return;
    };
    for entry in entries {
        let Some(name) = entry.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if name.starts_with(&prefix) {
            let _ = storage.remove_file(&entry);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> PathBuf {
        PathBuf::from(s)
    }

    #[test]
    fn fault_storage_round_trips_files() {
        let fs = FaultStorage::default();
        fs.create_dir_all(&p("d")).unwrap();
        fs.write(&p("d/a"), b"hello").unwrap();
        assert_eq!(fs.read(&p("d/a")).unwrap(), b"hello");
        fs.rename(&p("d/a"), &p("d/b")).unwrap();
        assert!(!fs.exists(&p("d/a")));
        assert_eq!(fs.read(&p("d/b")).unwrap(), b"hello");
        assert_eq!(fs.list_dir(&p("d")).unwrap(), vec![p("d/b")]);
        fs.remove_file(&p("d/b")).unwrap();
        assert!(matches!(
            fs.read(&p("d/b")),
            Err(e) if e.kind() == io::ErrorKind::NotFound
        ));
    }

    #[test]
    fn unsynced_data_is_torn_at_crash_synced_data_survives() {
        let fs = FaultStorage::new(FaultPlan {
            seed: 7,
            ..FaultPlan::default()
        });
        fs.write(&p("a"), b"durable").unwrap();
        fs.sync_file(&p("a")).unwrap();
        fs.sync_dir(&p("")).unwrap();
        fs.crash();
        assert_eq!(
            fs.read(&p("a")).unwrap(),
            b"durable",
            "synced data survives"
        );
        fs.write(&p("a"), b"volatile-overwrite").unwrap();
        fs.crash();
        let after = fs.read(&p("a")).unwrap();
        assert!(
            b"volatile-overwrite".starts_with(&after) && after.len() < b"volatile-overwrite".len(),
            "an unsynced overwrite leaves a torn prefix of the new bytes (seed 7 tears it): {after:?}"
        );
    }

    #[test]
    fn unsynced_rename_rolls_back_at_crash() {
        let fs = FaultStorage::default();
        fs.write(&p("old"), b"old-bytes").unwrap();
        fs.sync_file(&p("old")).unwrap();
        fs.sync_dir(&p("")).unwrap();
        fs.write(&p("new"), b"new-bytes").unwrap();
        fs.sync_file(&p("new")).unwrap();
        fs.rename(&p("new"), &p("old")).unwrap();
        // No sync_dir: the rename is volatile — and so is the creation of
        // "new" itself, so after the crash only the committed "old" exists.
        fs.crash();
        assert_eq!(fs.read(&p("old")).unwrap(), b"old-bytes");
        assert!(!fs.exists(&p("new")), "uncommitted creation vanishes too");
        // Committed renames survive.
        fs.write(&p("new"), b"new-bytes").unwrap();
        fs.sync_file(&p("new")).unwrap();
        fs.sync_dir(&p("")).unwrap();
        fs.rename(&p("new"), &p("old")).unwrap();
        fs.sync_dir(&p("")).unwrap();
        fs.crash();
        assert_eq!(fs.read(&p("old")).unwrap(), b"new-bytes");
        assert!(!fs.exists(&p("new")));
    }

    #[test]
    fn uncommitted_creation_vanishes_at_crash() {
        let fs = FaultStorage::default();
        fs.write(&p("f"), b"x").unwrap();
        fs.sync_file(&p("f")).unwrap();
        // Creation never committed with sync_dir.
        fs.crash();
        assert!(!fs.exists(&p("f")));
    }

    #[test]
    fn power_cut_fires_at_the_planned_op_and_clears_on_crash() {
        let fs = FaultStorage::new(FaultPlan::power_cut_at(3));
        fs.write(&p("a"), b"1").unwrap(); // op 0
        fs.sync_file(&p("a")).unwrap(); // op 1
        fs.sync_dir(&p("")).unwrap(); // op 2: commit a's creation
        let err = fs.write(&p("b"), b"2").unwrap_err(); // op 3: cut
        assert!(is_power_cut(&err));
        let err = fs.read(&p("a")).unwrap_err();
        assert!(is_power_cut(&err), "everything fails until reboot");
        fs.crash();
        assert!(fs.read(&p("a")).is_ok(), "reboot restores service");
        assert!(!fs.exists(&p("b")), "the cut op was never applied");
    }

    #[test]
    fn clean_fail_op_injects_without_cutting_power() {
        let fs = FaultStorage::new(FaultPlan {
            fail_op: Some((OpKind::Rename, 0)),
            ..FaultPlan::default()
        });
        fs.write(&p("a"), b"x").unwrap();
        let err = fs.rename(&p("a"), &p("b")).unwrap_err();
        assert!(!is_power_cut(&err));
        assert!(fs.exists(&p("a")), "failed rename must not be applied");
        // Only the Nth rename fails; the next succeeds.
        fs.rename(&p("a"), &p("b")).unwrap();
        assert!(fs.exists(&p("b")));
    }

    #[test]
    fn disk_budget_applies_partial_writes_then_errors() {
        let fs = FaultStorage::new(FaultPlan {
            disk_budget: Some(4),
            ..FaultPlan::default()
        });
        let err = fs.write(&p("a"), b"123456").unwrap_err();
        assert!(err.to_string().contains("no space"));
        assert_eq!(fs.read(&p("a")).unwrap(), b"1234", "partial application");
        let err = fs.write(&p("b"), b"x").unwrap_err();
        assert!(err.to_string().contains("no space"));
        assert_eq!(
            fs.read(&p("b")).unwrap(),
            b"",
            "an exhausted budget applies nothing"
        );
    }

    #[test]
    fn crash_images_are_deterministic_per_seed() {
        let image = |seed: u64| {
            let fs = FaultStorage::new(FaultPlan {
                seed,
                flip_bit_on_crash: true,
                ..FaultPlan::default()
            });
            fs.write(&p("f"), b"0123456789abcdef").unwrap();
            fs.sync_dir(&p("")).unwrap();
            fs.crash();
            fs.read(&p("f")).unwrap()
        };
        assert_eq!(image(1), image(1));
        assert_eq!(image(2), image(2));
    }

    #[test]
    fn atomic_write_survives_a_crash_at_every_op() {
        // Dry run to count ops.
        let dry = FaultStorage::default();
        dry.write(&p("dir/t"), b"old").unwrap();
        dry.sync_file(&p("dir/t")).unwrap();
        dry.sync_dir(&p("dir")).unwrap();
        atomic_write(&dry, &p("dir/t"), b"new-contents", Durability::FULL).unwrap();
        let total = dry.ops();
        let setup_ops = 3;

        for cut in setup_ops..=total {
            let fs = FaultStorage::new(FaultPlan::default());
            fs.write(&p("dir/t"), b"old").unwrap();
            fs.sync_file(&p("dir/t")).unwrap();
            fs.sync_dir(&p("dir")).unwrap();
            fs.set_plan(FaultPlan {
                seed: cut,
                crash_at_op: Some(cut),
                flip_bit_on_crash: true,
                ..FaultPlan::default()
            });
            let result = atomic_write(&fs, &p("dir/t"), b"new-contents", Durability::FULL);
            fs.crash();
            let after = fs.read(&p("dir/t")).unwrap();
            if result.is_ok() {
                assert_eq!(after, b"new-contents", "acknowledged write must survive");
            } else {
                assert!(
                    after == b"old" || after == b"new-contents",
                    "cut at {cut}: target must be one complete version, got {after:?}"
                );
            }
        }
    }

    #[test]
    fn atomic_write_sweeps_stale_temps() {
        let fs = FaultStorage::default();
        fs.write(&p("d/s.tunedb.tmp.99.0"), b"stale").unwrap();
        fs.write(&p("d/other.tmp.1.0"), b"not ours").unwrap();
        atomic_write(&fs, &p("d/s.tunedb"), b"fresh", Durability::FULL).unwrap();
        assert!(!fs.exists(&p("d/s.tunedb.tmp.99.0")), "stale temp swept");
        assert!(fs.exists(&p("d/other.tmp.1.0")), "other targets untouched");
        assert_eq!(fs.read(&p("d/s.tunedb")).unwrap(), b"fresh");
    }

    #[test]
    fn os_storage_round_trips_on_disk() {
        let dir = std::env::temp_dir().join(format!("tunestore-os-{}", std::process::id()));
        let os = OsStorage;
        os.create_dir_all(&dir).unwrap();
        let f = dir.join("f.bin");
        os.write(&f, b"abc").unwrap();
        os.sync_file(&f).unwrap();
        assert_eq!(os.read(&f).unwrap(), b"abc");
        assert!(os.exists(&f));
        let g = dir.join("g.bin");
        os.rename(&f, &g).unwrap();
        os.sync_dir(&dir).unwrap();
        assert_eq!(os.list_dir(&dir).unwrap(), vec![g.clone()]);
        os.remove_file(&g).unwrap();
        assert!(!os.exists(&g));
        std::fs::remove_dir_all(&dir).ok();
    }
}
