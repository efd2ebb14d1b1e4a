//! The on-disk snapshot: header + entries sections with per-section
//! checksums, plus the set-level operations (`merge`, `gc`, stats, verify).
//!
//! # File layout (all integers little-endian)
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"DAISYTDB"
//! 8       4     format version (u32, currently 1)
//! 12      8     header section length H (u64)
//! 20      H     header section: fingerprint string, entry count (u32)
//! 20+H    8     FNV-1a checksum of the header section (u64)
//! ..      8     entries section length E (u64)
//! ..      E     entries section: `entry count` encoded StoredEntry records
//! ..      8     FNV-1a checksum of the entries section (u64)
//! ```
//!
//! Checksums cover each section's raw bytes, so a flipped bit anywhere in a
//! section is detected before any of its fields are interpreted; the
//! bounds-checked [`codec`](crate::codec) primitives then guarantee that even
//! an adversarial file that *happens* to checksum correctly can only produce
//! an `Err`, never a panic or runaway allocation.

use std::collections::HashMap;
use std::path::Path;

use crate::codec::{read_section, write_section, ByteReader, ByteWriter};
use crate::entry::StoredEntry;
use crate::error::{Result, StoreError};
use crate::fingerprint::environment_fingerprint;
use crate::storage::{atomic_write, OsStorage, Storage};

/// The eight magic bytes every store file starts with.
pub const MAGIC: &[u8; 8] = b"DAISYTDB";

/// Current store format version. Bump when the layout changes; readers
/// reject versions they do not understand rather than misinterpreting bytes.
pub const FORMAT_VERSION: u32 = 1;

/// An in-memory store snapshot: the environment fingerprint it was produced
/// under and its entries, in insertion order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// Fingerprint of the environment that produced the entries.
    pub fingerprint: String,
    /// Entries in insertion order (order is preserved across save/load so
    /// nearest-neighbour ties break identically warm and cold).
    pub entries: Vec<StoredEntry>,
}

/// Summary statistics of a snapshot, as reported by `tunedb stats`.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreStats {
    /// Number of entries.
    pub entries: usize,
    /// Number of distinct structural-hash keys.
    pub distinct_keys: usize,
    /// Entries whose recipe is the identity (candidates for `gc`).
    pub identity_recipes: usize,
    /// Total transformation steps across all recipes.
    pub total_steps: usize,
    /// Smallest stored cost, if any entry exists.
    pub min_cost: Option<f64>,
    /// Largest stored cost, if any entry exists.
    pub max_cost: Option<f64>,
}

impl Snapshot {
    /// An empty snapshot stamped with the current environment fingerprint.
    pub fn new() -> Self {
        Snapshot {
            fingerprint: environment_fingerprint(),
            entries: Vec::new(),
        }
    }

    /// Serializes the snapshot to its binary form.
    pub fn encode(&self) -> Vec<u8> {
        let mut header = ByteWriter::new();
        header.string(&self.fingerprint);
        header.u32(self.entries.len() as u32);
        let header = header.into_bytes();

        let mut body = ByteWriter::new();
        for entry in &self.entries {
            entry.encode(&mut body);
        }
        let body = body.into_bytes();

        let mut out = ByteWriter::new();
        out.bytes(MAGIC);
        out.u32(FORMAT_VERSION);
        write_section(&mut out, &header);
        write_section(&mut out, &body);
        out.into_bytes()
    }

    /// Decodes a snapshot, verifying magic, version and both checksums.
    /// Corrupted or truncated bytes yield an `Err`, never a panic.
    pub fn decode(bytes: &[u8]) -> Result<Self> {
        let mut r = ByteReader::new(bytes);
        let magic = r.bytes(MAGIC.len(), "magic")?;
        if magic != MAGIC {
            return Err(StoreError::BadMagic);
        }
        let version = r.u32("format version")?;
        if version != FORMAT_VERSION {
            return Err(StoreError::UnsupportedVersion(version));
        }

        let header = read_section(&mut r, "header")?;
        let mut h = ByteReader::new(header);
        let fingerprint = h.string("fingerprint")?;
        let declared_entries = h.u32("entry count")? as usize;
        if !h.is_exhausted() {
            return Err(StoreError::Corrupt("trailing bytes in header".to_string()));
        }

        let body = read_section(&mut r, "entries")?;
        if !r.is_exhausted() {
            return Err(StoreError::Corrupt(
                "trailing bytes after entries section".to_string(),
            ));
        }
        let mut b = ByteReader::new(body);
        let mut entries = Vec::new();
        for _ in 0..declared_entries {
            entries.push(StoredEntry::decode(&mut b)?);
        }
        if !b.is_exhausted() {
            return Err(StoreError::Corrupt(
                "entries section longer than the declared entry count".to_string(),
            ));
        }
        Ok(Snapshot {
            fingerprint,
            entries,
        })
    }

    /// Writes the snapshot to a file atomically *and durably*: a temp file
    /// in the same directory is written, fsynced, renamed over the target,
    /// and the parent directory fsynced — so readers never observe a
    /// half-written store and an acknowledged save survives power loss.
    /// Stale temp files left by earlier failed saves of the same target
    /// are swept first. (All of this lives in
    /// [`crate::storage::atomic_write`].)
    pub fn save(&self, path: impl AsRef<Path>) -> Result<()> {
        self.save_with(&OsStorage, path.as_ref())
    }

    /// [`Snapshot::save`] through an explicit [`Storage`] — the seam the
    /// crash matrix plugs its fault-injecting in-memory disk into.
    pub fn save_with(&self, storage: &dyn Storage, path: &Path) -> Result<()> {
        atomic_write(storage, path, &self.encode())
    }

    /// Reads and decodes a snapshot from a file.
    pub fn load(path: impl AsRef<Path>) -> Result<Self> {
        Snapshot::load_with(&OsStorage, path.as_ref())
    }

    /// [`Snapshot::load`] through an explicit [`Storage`].
    pub fn load_with(storage: &dyn Storage, path: &Path) -> Result<Self> {
        let bytes = storage.read(path)?;
        Snapshot::decode(&bytes)
    }

    /// Like [`Snapshot::load`], but additionally rejects stores produced
    /// under a different environment fingerprint. Callers may extend the
    /// fingerprint with a model-specific suffix (the daisy scheduler
    /// appends its machine model and thread count), so compatibility here
    /// means *starts with* this environment's fingerprint; stricter
    /// equality checks are the extending caller's job.
    pub fn load_compatible(path: impl AsRef<Path>) -> Result<Self> {
        let snapshot = Snapshot::load(path)?;
        let expected = environment_fingerprint();
        if !snapshot.fingerprint.starts_with(&expected) {
            return Err(StoreError::FingerprintMismatch {
                found: snapshot.fingerprint,
                expected,
            });
        }
        Ok(snapshot)
    }

    /// Inserts one entry with best-cost-per-key dedupe: a new key is
    /// appended; an existing key is replaced *in place* only when the new
    /// cost is strictly lower. Position stability keeps entry order — and
    /// therefore nearest-neighbour tie-breaking — independent of how many
    /// duplicates were folded in. Returns `true` when the entry was
    /// appended or replaced an existing one.
    ///
    /// Each call scans linearly for the key (`entries` is a public field,
    /// so a cached index could silently go stale); inserting N entries one
    /// at a time is O(N²). Bulk construction should go through
    /// [`Snapshot::merge`], which builds a key index once, or through
    /// `daisy::TuningDatabase`, which maintains one.
    pub fn insert(&mut self, entry: StoredEntry) -> bool {
        match self.entries.iter_mut().find(|e| e.key == entry.key) {
            Some(existing) => {
                if entry.cost < existing.cost {
                    *existing = entry;
                    true
                } else {
                    false
                }
            }
            None => {
                self.entries.push(entry);
                true
            }
        }
    }

    /// Merges another snapshot into this one, deduping by key and keeping
    /// the lower-cost recipe. Returns the number of entries that were
    /// appended or replaced. Runs in O(self + other) via a key index
    /// (entry-at-a-time [`Snapshot::insert`] would be quadratic here).
    pub fn merge(&mut self, other: &Snapshot) -> usize {
        let mut index: HashMap<u64, usize> = self
            .entries
            .iter()
            .enumerate()
            .map(|(pos, e)| (e.key, pos))
            .collect();
        let mut changed = 0;
        for entry in &other.entries {
            match index.get(&entry.key) {
                Some(&pos) => {
                    if entry.cost < self.entries[pos].cost {
                        self.entries[pos] = entry.clone();
                        changed += 1;
                    }
                }
                None => {
                    index.insert(entry.key, self.entries.len());
                    self.entries.push(entry.clone());
                    changed += 1;
                }
            }
        }
        changed
    }

    /// Garbage-collects the snapshot: drops identity recipes (they encode
    /// "no improvement found" and a scheduler falls back to -O3 without
    /// them) and folds duplicate keys down to the best-cost entry. Returns
    /// the number of entries removed.
    pub fn gc(&mut self) -> usize {
        let before = self.entries.len();
        // Best cost per key *among the survivors* (identity recipes are
        // dropped regardless): were identity entries allowed to set the
        // bar, a cheap identity duplicate would get a key's real recipe
        // discarded too, losing the key entirely.
        let mut best: HashMap<u64, f64> = HashMap::new();
        for e in &self.entries {
            if e.recipe.is_identity() {
                continue;
            }
            best.entry(e.key)
                .and_modify(|c| *c = c.min(e.cost))
                .or_insert(e.cost);
        }
        let mut kept: HashMap<u64, bool> = HashMap::new();
        self.entries.retain(|e| {
            if e.recipe.is_identity() {
                return false;
            }
            if e.cost > best[&e.key] {
                return false;
            }
            // Of several entries sharing the best cost, keep the first.
            !std::mem::replace(kept.entry(e.key).or_insert(false), true)
        });
        before - self.entries.len()
    }

    /// Summary statistics.
    pub fn stats(&self) -> StoreStats {
        let mut keys: Vec<u64> = self.entries.iter().map(|e| e.key).collect();
        keys.sort_unstable();
        keys.dedup();
        StoreStats {
            entries: self.entries.len(),
            distinct_keys: keys.len(),
            identity_recipes: self
                .entries
                .iter()
                .filter(|e| e.recipe.is_identity())
                .count(),
            total_steps: self.entries.iter().map(|e| e.recipe.steps.len()).sum(),
            min_cost: self
                .entries
                .iter()
                .map(|e| e.cost)
                .min_by(|a, b| a.total_cmp(b)),
            max_cost: self
                .entries
                .iter()
                .map(|e| e.cost)
                .max_by(|a, b| a.total_cmp(b)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loop_ir::expr::Var;
    use transforms::{Recipe, Transform};

    fn entry(key: u64, cost: f64, source: &str) -> StoredEntry {
        StoredEntry {
            key,
            cost,
            embedding: vec![1.0, 2.0, 3.0],
            recipe: Recipe::new(vec![Transform::Vectorize {
                iter: Var::new("j"),
            }]),
            chain: vec![Var::new("i"), Var::new("j")],
            source: source.to_string(),
        }
    }

    fn snapshot() -> Snapshot {
        let mut s = Snapshot::new();
        s.insert(entry(1, 0.5, "a"));
        s.insert(entry(2, 0.25, "b"));
        s
    }

    #[test]
    fn snapshot_round_trips_through_bytes_and_files() {
        let s = snapshot();
        let decoded = Snapshot::decode(&s.encode()).unwrap();
        assert_eq!(decoded, s);

        let dir = std::env::temp_dir().join(format!("tunestore-test-{}", std::process::id()));
        let path = dir.join("round.tunedb");
        s.save(&path).unwrap();
        assert_eq!(Snapshot::load(&path).unwrap(), s);
        assert_eq!(Snapshot::load_compatible(&path).unwrap(), s);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bad_magic_and_version_are_rejected() {
        let mut bytes = snapshot().encode();
        bytes[0] = b'X';
        assert!(matches!(
            Snapshot::decode(&bytes),
            Err(StoreError::BadMagic)
        ));
        let mut bytes = snapshot().encode();
        bytes[8] = 99; // version little-endian low byte
        assert!(matches!(
            Snapshot::decode(&bytes),
            Err(StoreError::UnsupportedVersion(_))
        ));
    }

    #[test]
    fn flipped_bits_fail_the_checksum() {
        let good = snapshot().encode();
        // Flip one bit in every byte position after the version field; each
        // must produce an error (checksum, truncation, or corrupt field) —
        // never a panic and never silent acceptance of different data.
        for pos in 12..good.len() {
            let mut bytes = good.clone();
            bytes[pos] ^= 0x40;
            match Snapshot::decode(&bytes) {
                Err(_) => {}
                Ok(decoded) => assert_eq!(
                    decoded,
                    snapshot(),
                    "byte {pos}: accepted bytes must decode identically"
                ),
            }
        }
    }

    #[test]
    fn truncations_never_panic() {
        let good = snapshot().encode();
        for cut in 0..good.len() {
            assert!(
                Snapshot::decode(&good[..cut]).is_err(),
                "a {cut}-byte prefix must not decode"
            );
        }
    }

    #[test]
    fn save_sweeps_stale_temp_files_of_the_same_target() {
        let dir = std::env::temp_dir().join(format!("tunestore-sweep-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("s.tunedb");
        // A temp file left behind by a save that died between write and
        // rename (note the foreign pid/seq), and one belonging to a
        // different target, which must survive.
        let stale = dir.join("s.tunedb.tmp.424242.7");
        let other = dir.join("other.tunedb.tmp.1.0");
        std::fs::write(&stale, b"half-written").unwrap();
        std::fs::write(&other, b"not ours").unwrap();
        snapshot().save(&path).unwrap();
        assert!(!stale.exists(), "stale temp of the same target swept");
        assert!(other.exists(), "other targets' temps untouched");
        assert_eq!(Snapshot::load(&path).unwrap(), snapshot());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fingerprint_mismatch_is_detected() {
        let mut s = snapshot();
        s.fingerprint = "some-other-machine".to_string();
        let dir = std::env::temp_dir().join(format!("tunestore-fp-{}", std::process::id()));
        let path = dir.join("other.tunedb");
        s.save(&path).unwrap();
        assert!(Snapshot::load(&path).is_ok());
        assert!(matches!(
            Snapshot::load_compatible(&path),
            Err(StoreError::FingerprintMismatch { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn insert_dedupes_by_key_keeping_best_cost() {
        let mut s = Snapshot::new();
        s.insert(entry(7, 0.5, "first"));
        s.insert(entry(8, 0.9, "other"));
        s.insert(entry(7, 0.4, "better"));
        s.insert(entry(7, 0.6, "worse"));
        assert_eq!(s.entries.len(), 2);
        assert_eq!(s.entries[0].source, "better");
        assert_eq!(s.entries[0].cost, 0.4);
        // Replacement happened in place: key 7 still precedes key 8.
        assert_eq!(s.entries[1].key, 8);
    }

    #[test]
    fn merge_keeps_best_cost_per_key() {
        let mut a = snapshot();
        let mut b = Snapshot::new();
        b.insert(entry(2, 0.1, "improved"));
        b.insert(entry(3, 1.0, "new"));
        let changed = a.merge(&b);
        assert_eq!(changed, 2);
        assert_eq!(a.entries.len(), 3);
        assert_eq!(
            a.entries.iter().find(|e| e.key == 2).unwrap().source,
            "improved"
        );
        // Merging the same thing again changes nothing.
        assert_eq!(a.merge(&b), 0);
    }

    #[test]
    fn gc_drops_identity_recipes_and_duplicate_keys() {
        let mut s = Snapshot::new();
        s.entries.push(entry(1, 0.5, "keep"));
        s.entries.push(StoredEntry {
            recipe: Recipe::identity(),
            ..entry(2, 0.1, "identity")
        });
        s.entries.push(entry(1, 0.9, "dup-worse"));
        s.entries.push(entry(1, 0.5, "dup-tied"));
        let removed = s.gc();
        assert_eq!(removed, 3);
        assert_eq!(s.entries.len(), 1);
        assert_eq!(s.entries[0].source, "keep");
    }

    #[test]
    fn gc_keeps_a_keys_real_recipe_despite_a_cheaper_identity_duplicate() {
        let mut s = Snapshot::new();
        s.entries.push(StoredEntry {
            recipe: Recipe::identity(),
            ..entry(5, 0.1, "identity-cheap")
        });
        s.entries.push(entry(5, 0.5, "real"));
        let removed = s.gc();
        assert_eq!(removed, 1);
        assert_eq!(s.entries.len(), 1);
        assert_eq!(
            s.entries[0].source, "real",
            "the identity duplicate must not drag the real recipe out with it"
        );
    }

    #[test]
    fn stats_summarize() {
        let stats = snapshot().stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.distinct_keys, 2);
        assert_eq!(stats.identity_recipes, 0);
        assert_eq!(stats.total_steps, 2);
        assert_eq!(stats.min_cost, Some(0.25));
        assert_eq!(stats.max_cost, Some(0.5));
        let empty = Snapshot::new().stats();
        assert_eq!(empty.entries, 0);
        assert_eq!(empty.min_cost, None);
    }
}
