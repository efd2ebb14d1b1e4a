//! The transfer-tuning database: embeddings mapped to optimization recipes.
//!
//! Entries are keyed by the run-stable structural hash of their source nest
//! ([`loop_ir::structural_hash_node`]): insertion dedupes on that key keeping
//! the better-cost recipe, [`TuningDatabase::lookup`] answers exact-match
//! queries in O(1) before the k-NN fallback runs, and the whole database
//! round-trips through the `tunestore` snapshot format preserving entry
//! order (so nearest-neighbour tie-breaking is identical warm and cold).

use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use loop_ir::expr::Var;
use loop_ir::nest::Node;
use loop_ir::program::Program;
use loop_ir::{structural_hash_node, StructuralHasher};
use transforms::{Recipe, Transform};
use tunestore::{Snapshot, StoreError, StoredEntry};

use crate::embedding::{squared_distance, PerformanceEmbedding, EMBEDDING_DIM};

/// The database key of a nest: its structural hash combined with the
/// program's integer parameter bindings.
///
/// The structural hash alone treats `for i in 0..N` identically at every
/// value of `N` (bounds are symbolic), but a recipe tuned for one problem
/// size is not an *exact* match for another — tile sizes and
/// parallelization pay-offs shift with the iteration space. Folding the
/// parameter values in keeps exact-match lookups size-faithful while the
/// k-NN fallback still generalizes across sizes. Parameters come from an
/// ordered map and the hasher is the run-stable FNV used everywhere else,
/// so keys are stable across runs, platforms and Rust versions — safe to
/// persist.
pub fn nest_key(program: &Program, node: &Node) -> u64 {
    let mut hasher = StructuralHasher::default();
    structural_hash_node(node).hash(&mut hasher);
    program.params.len().hash(&mut hasher);
    for (name, value) in &program.params {
        name.hash(&mut hasher);
        value.hash(&mut hasher);
    }
    hasher.finish()
}

/// One database entry: the embedding of a (normalized) loop nest, the
/// transformation recipe found for it, and the perfect-chain iterators the
/// recipe refers to (so it can be re-targeted to a structurally equal nest
/// with different iterator names).
#[derive(Debug, Clone, PartialEq)]
pub struct DatabaseEntry {
    /// Structural hash of the source loop nest, the database key.
    pub key: u64,
    /// Nest-scoped cost-model seconds of the recipe on the seeding nest
    /// (whole-program cost minus the other nodes' baseline); ranks
    /// duplicate keys (lower wins) comparably across seeding programs.
    pub cost: f64,
    /// Embedding of the source loop nest.
    pub embedding: PerformanceEmbedding,
    /// The optimization recipe.
    pub recipe: Recipe,
    /// Perfect-chain iterators of the source nest, outermost first.
    pub chain: Vec<Var>,
    /// Name of the benchmark / nest the entry was derived from.
    pub source: String,
}

impl DatabaseEntry {
    /// Converts the entry to its persisted form.
    pub fn to_stored(&self) -> StoredEntry {
        StoredEntry {
            key: self.key,
            cost: self.cost,
            embedding: self.embedding.features().to_vec(),
            recipe: self.recipe.clone(),
            chain: self.chain.clone(),
            source: self.source.clone(),
        }
    }

    /// Rebuilds an entry from its persisted form. Fails when the stored
    /// embedding does not have this build's [`EMBEDDING_DIM`] features, or
    /// when a feature or the cost is not finite: no embedding or cost model
    /// produces NaN or an infinity, and one such distance or cost would
    /// leave neighbour order and duplicate-key ranking without a meaning.
    pub fn from_stored(stored: &StoredEntry) -> Result<Self, StoreError> {
        let embedding = PerformanceEmbedding::from_slice(&stored.embedding).ok_or_else(|| {
            StoreError::Corrupt(format!(
                "entry {:016x} has {} embedding features, this build uses {}",
                stored.key,
                stored.embedding.len(),
                EMBEDDING_DIM
            ))
        })?;
        if !stored.cost.is_finite() || stored.embedding.iter().any(|f| !f.is_finite()) {
            return Err(StoreError::Corrupt(format!(
                "entry {:016x} holds a non-finite cost or embedding feature",
                stored.key
            )));
        }
        Ok(DatabaseEntry {
            key: stored.key,
            cost: stored.cost,
            embedding,
            recipe: stored.recipe.clone(),
            chain: stored.chain.clone(),
            source: stored.source.clone(),
        })
    }
}

/// The database queried by the daisy scheduler: pairs of performance
/// embeddings and transformation sequences (§4, "Seeding a Scheduling
/// Database").
#[derive(Debug, Clone, Default)]
pub struct TuningDatabase {
    /// Entries in insertion order; replacement happens in place so order is
    /// independent of how many duplicates were folded in.
    entries: Vec<DatabaseEntry>,
    /// The embedding features of `entries`, in step with it: what the k-NN
    /// scan reads, packed.
    features: Vec<[f64; EMBEDDING_DIM]>,
    /// Structural-hash key -> position in `entries`.
    index: HashMap<u64, usize>,
}

impl TuningDatabase {
    /// Creates an empty database.
    pub fn new() -> Self {
        TuningDatabase::default()
    }

    /// Adds an entry, deduping by structural-hash key: a new key is
    /// appended, an existing key is replaced in place only when the new
    /// entry's cost is strictly lower. Repeated seeding therefore converges
    /// instead of accumulating duplicates.
    pub fn insert(&mut self, entry: DatabaseEntry) {
        match self.index.get(&entry.key) {
            Some(&pos) => {
                if entry.cost.total_cmp(&self.entries[pos].cost).is_lt() {
                    self.features[pos] = *entry.embedding.features();
                    self.entries[pos] = entry;
                }
            }
            None => {
                self.index.insert(entry.key, self.entries.len());
                self.features.push(*entry.embedding.features());
                self.entries.push(entry);
            }
        }
    }

    /// O(1) exact-match lookup by the structural hash of a nest. The fast
    /// path of scheduling: a hit means the database already holds a recipe
    /// tuned for a structurally identical nest, no similarity search needed.
    pub fn lookup(&self, key: u64) -> Option<&DatabaseEntry> {
        self.index.get(&key).map(|&pos| &self.entries[pos])
    }

    /// Converts the database to a persistable snapshot (entry order is
    /// preserved).
    pub fn to_snapshot(&self) -> Snapshot {
        let mut snapshot = Snapshot::new();
        snapshot.entries = self.entries.iter().map(DatabaseEntry::to_stored).collect();
        snapshot
    }

    /// Rebuilds a database from a snapshot, re-applying the dedupe rule
    /// (snapshots written by [`TuningDatabase::to_snapshot`] are already
    /// deduped, so this reproduces them exactly, entry for entry).
    pub fn from_snapshot(snapshot: &Snapshot) -> Result<Self, StoreError> {
        let mut db = TuningDatabase::new();
        for stored in &snapshot.entries {
            db.insert(DatabaseEntry::from_stored(stored)?);
        }
        Ok(db)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the database has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// All entries.
    pub fn entries(&self) -> &[DatabaseEntry] {
        &self.entries
    }

    /// The `k` entries whose embeddings are closest (Euclidean distance) to
    /// the query, closest first; entries at equal distance come out in
    /// insertion order (neighbour order decides which recipe is tried first,
    /// so it is part of the cold/warm bit-identity guarantee).
    ///
    /// A selection, not a sort: one pass keeps the `k` best seen so far in
    /// order, and an entry displaces a kept one only when it is *strictly*
    /// closer — exactly the prefix a stable sort of all distances yields.
    ///
    /// The pass reads the packed features and compares squared sums first:
    /// an entry whose sum exceeds the `k`-th kept one's is skipped without a
    /// square root. That is exact — `sqrt` is correctly rounded and
    /// monotone, so a larger sum is never *strictly* closer — and every
    /// entry that is kept or tied is still decided on the same distances.
    pub fn nearest(&self, query: &PerformanceEmbedding, k: usize) -> Vec<&DatabaseEntry> {
        if k == 0 {
            return Vec::new();
        }
        let query = query.features();
        // (squared sum, distance, entry index), closest first.
        let mut kept: Vec<(f64, f64, usize)> = Vec::with_capacity(k.min(self.entries.len()));
        for (index, features) in self.features.iter().enumerate() {
            let squared = squared_distance(features, query);
            if kept.len() == k && squared.total_cmp(&kept[k - 1].0).is_gt() {
                continue;
            }
            let distance = squared.sqrt();
            if kept.len() == k {
                if distance.total_cmp(&kept[k - 1].1).is_ge() {
                    continue;
                }
                kept.pop();
            }
            // Behind every kept entry that is as close: ties keep
            // insertion order.
            let position = kept.partition_point(|&(_, d, _)| d.total_cmp(&distance).is_le());
            kept.insert(position, (squared, distance, index));
        }
        kept.into_iter()
            .map(|(_, _, index)| &self.entries[index])
            .collect()
    }

    /// Re-targets an entry's recipe to a nest whose perfect chain is
    /// `target_chain`, by positional renaming of loop iterators (including
    /// the `<iter>_t` tile-loop names a tiling step introduces).
    ///
    /// Returns `None` when the chains have different lengths — the situation
    /// the paper describes as "if a B loop nest is not reduced to an A loop
    /// nest, the transformation sequence cannot be applied".
    pub fn retarget(entry: &DatabaseEntry, target_chain: &[Var]) -> Option<Recipe> {
        if entry.chain.len() != target_chain.len() {
            return None;
        }
        let rename = |v: &Var| -> Var {
            if let Some(pos) = entry.chain.iter().position(|c| c == v) {
                return target_chain[pos].clone();
            }
            // Tile loops introduced by a Tile step are named "<iter>_t".
            if let Some(stripped) = v.as_str().strip_suffix("_t") {
                if let Some(pos) = entry.chain.iter().position(|c| c.as_str() == stripped) {
                    return Var::new(format!("{}_t", target_chain[pos]));
                }
            }
            v.clone()
        };
        let steps = entry
            .recipe
            .steps
            .iter()
            .map(|step| match step {
                Transform::Tile { tiles } => Transform::Tile {
                    tiles: tiles.iter().map(|(v, s)| (rename(v), *s)).collect(),
                },
                Transform::Parallelize { iter } => Transform::Parallelize { iter: rename(iter) },
                Transform::Vectorize { iter } => Transform::Vectorize { iter: rename(iter) },
                Transform::Unroll { iter, factor } => Transform::Unroll {
                    iter: rename(iter),
                    factor: *factor,
                },
            })
            .collect();
        Some(Recipe::new(steps))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loop_ir::parser::parse_program;

    fn gemm(n: i64, order: &str) -> loop_ir::Program {
        let l: Vec<char> = order.chars().collect();
        parse_program(&format!(
            "program gemm {{ param N = {n};
               array A[N][N]; array B[N][N]; array C[N][N];
               for {} in 0..N {{ for {} in 0..N {{ for {} in 0..N {{
                 C[i][j] += A[i][k] * B[k][j];
               }} }} }} }}",
            l[0], l[1], l[2]
        ))
        .unwrap()
    }

    fn entry(source: &str, n: i64) -> DatabaseEntry {
        let p = gemm(n, "ikj");
        let nest = p.loop_nests()[0];
        DatabaseEntry {
            key: nest_key(&p, &p.body[0]),
            cost: n as f64 * 1e-6,
            embedding: PerformanceEmbedding::of_nest(&p, nest),
            recipe: Recipe::new(vec![
                Transform::Tile {
                    tiles: vec![
                        (Var::new("i"), 32),
                        (Var::new("k"), 32),
                        (Var::new("j"), 32),
                    ],
                },
                Transform::Parallelize {
                    iter: Var::new("i_t"),
                },
                Transform::Vectorize {
                    iter: Var::new("j"),
                },
            ]),
            chain: vec![Var::new("i"), Var::new("k"), Var::new("j")],
            source: source.to_string(),
        }
    }

    #[test]
    fn nearest_returns_closest_first() {
        let mut db = TuningDatabase::new();
        db.insert(entry("gemm-small", 32));
        db.insert(entry("gemm-large", 1024));
        assert_eq!(db.len(), 2);
        let q = gemm(900, "ikj");
        let q_emb = PerformanceEmbedding::of_nest(&q, q.loop_nests()[0]);
        let nearest = db.nearest(&q_emb, 2);
        assert_eq!(nearest[0].source, "gemm-large");
        assert_eq!(nearest.len(), 2);
        assert_eq!(db.nearest(&q_emb, 1).len(), 1);
    }

    #[test]
    fn empty_database_returns_nothing() {
        let db = TuningDatabase::new();
        assert!(db.is_empty());
        let q = gemm(64, "ikj");
        let q_emb = PerformanceEmbedding::of_nest(&q, q.loop_nests()[0]);
        assert!(db.nearest(&q_emb, 3).is_empty());
    }

    #[test]
    fn insert_dedupes_by_key_keeping_better_cost() {
        let mut db = TuningDatabase::new();
        let base = entry("first", 64);
        db.insert(base.clone());
        // Same nest, same size -> same key; repeated seeding must not grow
        // the database.
        db.insert(entry("duplicate", 64));
        assert_eq!(db.len(), 1);
        assert_eq!(db.entries()[0].source, "first");
        // A better-cost entry for the same key replaces in place.
        let mut better = entry("better", 64);
        better.cost = base.cost / 2.0;
        db.insert(better);
        assert_eq!(db.len(), 1);
        assert_eq!(db.entries()[0].source, "better");
        // A worse one is ignored.
        let mut worse = entry("worse", 64);
        worse.cost = base.cost * 2.0;
        db.insert(worse);
        assert_eq!(db.entries()[0].source, "better");
    }

    #[test]
    fn nest_key_distinguishes_problem_sizes() {
        let small = gemm(64, "ikj");
        let large = gemm(1024, "ikj");
        assert_ne!(
            nest_key(&small, &small.body[0]),
            nest_key(&large, &large.body[0]),
            "same structure at different sizes must not collide"
        );
        // Same structure and size under a different program name: equal keys
        // (the name is a label, not structure).
        let mut renamed = gemm(64, "ikj");
        renamed.name = "other".to_string();
        assert_eq!(
            nest_key(&small, &small.body[0]),
            nest_key(&renamed, &renamed.body[0])
        );
    }

    #[test]
    fn lookup_finds_exact_matches_in_o1() {
        let mut db = TuningDatabase::new();
        let e = entry("gemm", 64);
        let key = e.key;
        db.insert(e);
        db.insert(entry("gemm-large", 1024));
        assert_eq!(db.lookup(key).unwrap().source, "gemm");
        assert!(db.lookup(key ^ 1).is_none());
    }

    #[test]
    fn database_round_trips_through_a_snapshot() {
        let mut db = TuningDatabase::new();
        db.insert(entry("gemm-small", 32));
        db.insert(entry("gemm-large", 1024));
        let snapshot = db.to_snapshot();
        let restored = TuningDatabase::from_snapshot(&snapshot).unwrap();
        assert_eq!(restored.entries(), db.entries());
        // Byte-level: decode(encode(snapshot)) reproduces the same database.
        let decoded = tunestore::Snapshot::decode(&snapshot.encode()).unwrap();
        let restored = TuningDatabase::from_snapshot(&decoded).unwrap();
        assert_eq!(restored.entries(), db.entries());
    }

    #[test]
    fn from_stored_rejects_wrong_embedding_dimension() {
        let mut stored = entry("gemm", 64).to_stored();
        stored.embedding.pop();
        assert!(DatabaseEntry::from_stored(&stored).is_err());
    }

    #[test]
    fn non_finite_store_values_are_corruption_on_both_load_paths() {
        let good = entry("gemm", 64).to_stored();
        let mut poisoned = Vec::new();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut cost = entry("bad-cost", 32).to_stored();
            cost.cost = bad;
            let mut feature = entry("bad-feature", 128).to_stored();
            feature.embedding[3] = bad;
            poisoned.extend([cost, feature]);
        }
        for stored in &poisoned {
            assert!(matches!(
                DatabaseEntry::from_stored(stored),
                Err(StoreError::Corrupt(_))
            ));
            // Strict load: one such entry fails the whole snapshot.
            let mut snapshot = Snapshot::new();
            snapshot.entries = vec![good.clone(), stored.clone()];
            assert!(matches!(
                TuningDatabase::from_snapshot(&snapshot),
                Err(StoreError::Corrupt(_))
            ));
        }
        // Through the file format: encoding keeps the non-finite bits, and
        // decoding the snapshot already rejects them.
        for stored in &poisoned {
            let mut snapshot = Snapshot::new();
            snapshot.entries = vec![good.clone(), stored.clone()];
            assert!(matches!(
                Snapshot::decode(&snapshot.encode()),
                Err(StoreError::Corrupt(_))
            ));
        }
    }

    #[test]
    fn a_finite_cost_replaces_a_nan_inserted_directly() {
        // `insert` is public and so are the fields: a NaN that never went
        // through a store must still lose to any real cost.
        let mut db = TuningDatabase::new();
        let mut nan = entry("nan", 64);
        nan.cost = f64::NAN;
        db.insert(nan);
        db.insert(entry("finite", 64));
        assert_eq!(db.entries()[0].source, "finite");
    }

    /// The full stable sort `nearest` used to be.
    fn nearest_by_sorting<'a>(
        db: &'a TuningDatabase,
        query: &PerformanceEmbedding,
        k: usize,
    ) -> Vec<&'a DatabaseEntry> {
        let mut scored: Vec<(f64, &DatabaseEntry)> = db
            .entries()
            .iter()
            .map(|e| (e.embedding.distance(query), e))
            .collect();
        scored.sort_by(|a, b| a.0.total_cmp(&b.0));
        scored.into_iter().take(k).map(|(_, e)| e).collect()
    }

    #[test]
    fn nearest_selects_what_a_stable_sort_would_on_duplicate_heavy_databases() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let mut rng = StdRng::seed_from_u64(0x5E1EC7);
        for case in 0..200 {
            // Few distinct values per feature: many entries share an
            // embedding exactly, so most distances tie.
            let levels = rng.gen_range(1..4);
            let embedding = |rng: &mut StdRng| {
                let features: Vec<f64> = (0..EMBEDDING_DIM)
                    .map(|_| rng.gen_range(0..levels) as f64 * 0.5)
                    .collect();
                PerformanceEmbedding::from_slice(&features).unwrap()
            };
            let mut db = TuningDatabase::new();
            for key in 0..rng.gen_range(0..40u64) {
                db.insert(DatabaseEntry {
                    key,
                    embedding: embedding(&mut rng),
                    source: format!("entry-{key}"),
                    ..entry("template", 32)
                });
            }
            let query = embedding(&mut rng);
            for k in [0, 1, 2, 3, 7, db.len(), db.len() + 5] {
                let selected: Vec<&str> = db
                    .nearest(&query, k)
                    .iter()
                    .map(|e| e.source.as_str())
                    .collect();
                let sorted: Vec<&str> = nearest_by_sorting(&db, &query, k)
                    .iter()
                    .map(|e| e.source.as_str())
                    .collect();
                assert_eq!(selected, sorted, "case {case}, k = {k}");
                assert_eq!(selected.len(), k.min(db.len()));
            }
        }
    }

    #[test]
    fn nearest_keeps_insertion_order_where_squared_sums_differ_but_distances_tie() {
        // `first` sits at squared distance 26 from the origin, `second` one
        // double below it: a smaller sum whose square root rounds to the
        // same distance. Inserted later, `second` ties and stays behind —
        // the case a squared-sum comparison alone would reorder.
        let origin = PerformanceEmbedding::from_slice(&[0.0; EMBEDDING_DIM]).unwrap();
        let at = |y: f64| {
            let mut features = [0.0; EMBEDDING_DIM];
            features[0] = 5.0;
            features[1] = y;
            PerformanceEmbedding::from_slice(&features).unwrap()
        };
        let squared = |e: &PerformanceEmbedding| squared_distance(e.features(), origin.features());
        let mut y = 1.0f64;
        while squared(&at(y)) >= 26.0 {
            y = y.next_down();
        }
        let (first, second) = (at(1.0), at(y));
        assert_eq!(squared(&first), 26.0);
        assert_eq!(squared(&second), 26.0f64.next_down());
        assert_eq!(first.distance(&origin), second.distance(&origin));

        let mut db = TuningDatabase::new();
        for (key, embedding) in [(1, first), (2, second)] {
            db.insert(DatabaseEntry {
                key,
                embedding,
                source: format!("entry-{key}"),
                ..entry("template", 32)
            });
        }
        let sources = |k| -> Vec<String> {
            db.nearest(&origin, k)
                .iter()
                .map(|e| e.source.clone())
                .collect()
        };
        assert_eq!(sources(1), ["entry-1"]);
        assert_eq!(sources(2), ["entry-1", "entry-2"]);
    }

    #[test]
    fn retarget_renames_iterators_positionally() {
        let e = entry("gemm", 64);
        let target = vec![Var::new("a"), Var::new("b"), Var::new("c")];
        let recipe = TuningDatabase::retarget(&e, &target).unwrap();
        let text = recipe.to_string();
        assert!(text.contains("tile(a:32, b:32, c:32)"));
        assert!(text.contains("parallelize(a_t)"));
        assert!(text.contains("vectorize(c)"));
    }

    #[test]
    fn retarget_rejects_mismatched_depth() {
        let e = entry("gemm", 64);
        assert!(TuningDatabase::retarget(&e, &[Var::new("a"), Var::new("b")]).is_none());
    }

    #[test]
    fn retargeted_recipe_applies_to_renamed_nest() {
        let e = entry("gemm", 64);
        // The same canonical GEMM but with loops named x, y, z.
        let p = parse_program(
            "program gemm2 { param N = 64;
               array A[N][N]; array B[N][N]; array C[N][N];
               for x in 0..N { for y in 0..N { for z in 0..N {
                 C[x][z] += A[x][y] * B[y][z];
               } } } }",
        )
        .unwrap();
        let nest = p.loop_nests()[0];
        let chain: Vec<Var> = nest.nested_iterators();
        let recipe = TuningDatabase::retarget(&e, &chain).unwrap();
        let tiled = recipe.apply_to_nest(nest).unwrap();
        assert!(tiled.schedule.parallel);
        assert_eq!(tiled.iter, Var::new("x_t"));
    }
}
