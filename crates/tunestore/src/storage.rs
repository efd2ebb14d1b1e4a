//! The storage seam every on-disk operation goes through.
//!
//! The store never calls `std::fs` directly: all filesystem traffic is
//! routed through the [`Storage`] trait. Production runs on the real
//! filesystem ([`OsStorage`]); the crash matrix
//! (`crates/tunestore/tests/crash_matrix.rs`) plugs in a deterministic
//! in-memory disk instead, which tears un-synced data, rolls back
//! namespace changes whose directory was never synced, and injects a power
//! cut, a power cut with a flipped bit, a clean failure or an `ENOSPC`
//! partial write at any chosen operation. The matrix crosses those four
//! faults with every operation index of a fixed script of snapshot saves
//! and reloads, and asserts that each reload holds a complete
//! acknowledged snapshot.
//!
//! [`atomic_write`] is the store's one crash contract: fsync the file,
//! rename it over the target, fsync the directory. Code that follows it is
//! durable on real POSIX filesystems; the matrix shows that skipping any
//! one of those steps loses an acknowledged save.

use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

use crate::error::Result;

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
}

/// Writes `bytes` to `path` with the atomic, durable protocol: stale
/// temporaries swept, contents written to a fresh temp file in the same
/// directory, the temp file fsynced, renamed over the target, and the
/// parent directory fsynced — so a crash at any point leaves either the
/// complete old file or the complete new file, and an acknowledged write
/// survives power loss.
pub fn atomic_write(storage: &dyn Storage, path: &Path, bytes: &[u8]) -> Result<()> {
    use crate::error::StoreError;
    static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

    // A bare file name lives in the working directory, but its
    // `Path::parent` is "", which no directory operation accepts.
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    storage.create_dir_all(parent)?;
    let file_name = path.file_name().ok_or_else(|| {
        StoreError::Io(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("store path {} has no file name", path.display()),
        ))
    })?;

    let file_name = file_name.to_string_lossy();
    sweep_stale_temps(storage, parent, &file_name);
    let tmp = path.with_file_name(format!(
        "{file_name}.tmp.{}.{}",
        std::process::id(),
        SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ));
    storage.write(&tmp, bytes)?;
    storage.sync_file(&tmp)?;
    storage.rename(&tmp, path)?;
    storage.sync_dir(parent)?;
    Ok(())
}

/// Removes the stale `<file_name>.tmp.*` files in `dir` left behind by
/// saves that failed between write and rename (a crashed process, a full
/// disk). Errors are ignored: the sweep is best-effort hygiene, and a temp
/// file that cannot be listed or removed never affects the target's
/// correctness. A save of the *same* target racing in another process may
/// lose its temp file to this sweep and fail cleanly — last-writer-wins
/// already governed that race; saves of distinct targets are never touched
/// (the prefix includes the full target file name).
fn sweep_stale_temps(storage: &dyn Storage, dir: &Path, file_name: &str) {
    let prefix = format!("{file_name}.tmp.");
    let Ok(entries) = storage.list_dir(dir) else {
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

    #[test]
    fn os_storage_round_trips_on_disk() {
        let dir = std::env::temp_dir().join(format!("tunestore-os-{}", std::process::id()));
        let os = OsStorage;
        os.create_dir_all(&dir).unwrap();
        let f = dir.join("f.bin");
        os.write(&f, b"abc").unwrap();
        os.sync_file(&f).unwrap();
        assert_eq!(os.read(&f).unwrap(), b"abc");
        let g = dir.join("g.bin");
        os.rename(&f, &g).unwrap();
        os.sync_dir(&dir).unwrap();
        assert_eq!(os.list_dir(&dir).unwrap(), vec![g.clone()]);
        os.remove_file(&g).unwrap();
        assert!(!g.exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn atomic_write_sweeps_stale_temps() {
        let dir = std::env::temp_dir().join(format!("tunestore-temps-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let stale = dir.join("s.tunedb.tmp.99.0");
        let other = dir.join("other.tmp.1.0");
        std::fs::write(&stale, b"stale").unwrap();
        std::fs::write(&other, b"not ours").unwrap();
        atomic_write(&OsStorage, &dir.join("s.tunedb"), b"fresh").unwrap();
        assert!(!stale.exists(), "stale temp swept");
        assert!(other.exists(), "other targets untouched");
        assert_eq!(std::fs::read(dir.join("s.tunedb")).unwrap(), b"fresh");
        assert_eq!(
            OsStorage.list_dir(&dir).unwrap().len(),
            2,
            "no temp of this save is left behind"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
