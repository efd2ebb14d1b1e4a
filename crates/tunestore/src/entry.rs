//! The stored form of one tuning-database entry and its binary codec.

use loop_ir::expr::Var;
use transforms::{Recipe, Transform, TransformTag};

use crate::codec::{ByteReader, ByteWriter};
use crate::error::{Result, StoreError};

/// One persisted tuning-database record: the structural-hash key of the
/// (normalized) source nest, the nest-scoped cost-model seconds of the
/// winning recipe, the performance embedding, the recipe, the perfect-chain
/// iterators it refers to, and the provenance string.
///
/// This mirrors `daisy::DatabaseEntry` field for field; it lives here (with
/// the embedding as a plain `Vec<f64>`) so the codec does not depend on the
/// scheduler crate.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredEntry {
    /// Structural hash of the source loop nest (`loop_ir::structural_hash_node`).
    pub key: u64,
    /// Nest-scoped cost-model seconds of the winning recipe when it was
    /// found (the seeding program's whole-program cost minus the other
    /// nodes' baseline); used to rank duplicate keys during insert/merge,
    /// comparably across seeding programs.
    pub cost: f64,
    /// Performance-embedding feature vector of the source nest.
    pub embedding: Vec<f64>,
    /// The optimization recipe.
    pub recipe: Recipe,
    /// Perfect-chain iterators of the source nest, outermost first.
    pub chain: Vec<Var>,
    /// Name of the benchmark / nest the entry was derived from.
    pub source: String,
}

impl StoredEntry {
    /// Encodes the entry onto a writer.
    pub fn encode(&self, w: &mut ByteWriter) {
        w.u64(self.key);
        w.f64(self.cost);
        w.u32(self.embedding.len() as u32);
        for &f in &self.embedding {
            w.f64(f);
        }
        encode_recipe(&self.recipe, w);
        w.u32(self.chain.len() as u32);
        for v in &self.chain {
            w.string(v.as_str());
        }
        w.string(&self.source);
    }

    /// Decodes one entry from a reader. Never panics: corrupted or truncated
    /// input yields an `Err`, and so does a NaN or infinite cost or
    /// embedding feature, which no cost model or embedding produces and
    /// which would leave duplicate-key ranking and neighbour order without
    /// a meaning.
    pub fn decode(r: &mut ByteReader<'_>) -> Result<Self> {
        let key = r.u64("entry key")?;
        let finite = |value: f64, what: &str| {
            if value.is_finite() {
                Ok(value)
            } else {
                Err(StoreError::Corrupt(format!(
                    "entry {key:016x} holds a non-finite {what}"
                )))
            }
        };
        let cost = finite(r.f64("entry cost")?, "cost")?;
        let dim = r.count(8, "embedding length")?;
        let mut embedding = Vec::with_capacity(dim);
        for _ in 0..dim {
            embedding.push(finite(r.f64("embedding feature")?, "embedding feature")?);
        }
        let recipe = decode_recipe(r)?;
        let chain_len = r.count(4, "chain length")?;
        let mut chain = Vec::with_capacity(chain_len);
        for _ in 0..chain_len {
            chain.push(Var::new(r.string("chain iterator")?));
        }
        let source = r.string("entry source")?;
        Ok(StoredEntry {
            key,
            cost,
            embedding,
            recipe,
            chain,
            source,
        })
    }
}

/// Encodes a recipe: the step count (u32), then each step as its
/// [`TransformTag`] byte followed by its operands.
pub fn encode_recipe(recipe: &Recipe, w: &mut ByteWriter) {
    w.u32(recipe.steps.len() as u32);
    for step in &recipe.steps {
        w.u8(step.tag() as u8);
        match step {
            Transform::Tile { tiles } => {
                w.u32(tiles.len() as u32);
                for (v, size) in tiles {
                    w.string(v.as_str());
                    w.i64(*size);
                }
            }
            Transform::Parallelize { iter } | Transform::Vectorize { iter } => {
                w.string(iter.as_str());
            }
            Transform::Unroll { iter, factor } => {
                w.string(iter.as_str());
                w.u32(*factor);
            }
        }
    }
}

/// Decodes a recipe written by [`encode_recipe`].
pub fn decode_recipe(r: &mut ByteReader<'_>) -> Result<Recipe> {
    let step_count = r.count(1, "step count")?;
    let mut steps = Vec::with_capacity(step_count);
    for _ in 0..step_count {
        let tag_byte = r.u8("step tag")?;
        let tag = TransformTag::from_wire(tag_byte)
            .ok_or_else(|| StoreError::Corrupt(format!("unknown transform tag {tag_byte}")))?;
        steps.push(match tag {
            TransformTag::Tile => {
                let n = r.count(12, "tile count")?;
                let mut tiles = Vec::with_capacity(n);
                for _ in 0..n {
                    let v = Var::new(r.string("tile iterator")?);
                    let size = r.i64("tile size")?;
                    tiles.push((v, size));
                }
                Transform::Tile { tiles }
            }
            TransformTag::Parallelize => Transform::Parallelize {
                iter: Var::new(r.string("parallelize iterator")?),
            },
            TransformTag::Vectorize => Transform::Vectorize {
                iter: Var::new(r.string("vectorize iterator")?),
            },
            TransformTag::Unroll => Transform::Unroll {
                iter: Var::new(r.string("unroll iterator")?),
                factor: r.u32("unroll factor")?,
            },
        });
    }
    Ok(Recipe::new(steps))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_entry() -> StoredEntry {
        StoredEntry {
            key: 0x1234_5678_9ABC_DEF0,
            cost: 0.0123,
            embedding: vec![1.0, -2.5, 0.0, 3.25],
            recipe: Recipe::new(vec![
                Transform::Tile {
                    tiles: vec![(Var::new("i"), 32), (Var::new("j"), 64)],
                },
                Transform::Parallelize {
                    iter: Var::new("i_t"),
                },
                Transform::Vectorize {
                    iter: Var::new("j"),
                },
                Transform::Unroll {
                    iter: Var::new("k"),
                    factor: 4,
                },
            ]),
            chain: vec![Var::new("i"), Var::new("k"), Var::new("j")],
            source: "gemm#0".to_string(),
        }
    }

    #[test]
    fn entry_round_trips() {
        let entry = sample_entry();
        let mut w = ByteWriter::new();
        entry.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let decoded = StoredEntry::decode(&mut r).unwrap();
        assert_eq!(decoded, entry);
        assert!(r.is_exhausted());
    }

    #[test]
    fn every_truncation_point_errors() {
        let entry = sample_entry();
        let mut w = ByteWriter::new();
        entry.encode(&mut w);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = ByteReader::new(&bytes[..cut]);
            assert!(
                StoredEntry::decode(&mut r).is_err(),
                "decoding a {cut}-byte prefix must fail"
            );
        }
    }

    #[test]
    fn unknown_tags_are_corrupt() {
        // 0 (interchange) and 5 (fission) are retired tags; 250 was never one.
        for tag in [0, 5, 250] {
            let mut w = ByteWriter::new();
            w.u32(1); // one step
            w.u8(tag);
            let bytes = w.into_bytes();
            assert!(
                matches!(
                    decode_recipe(&mut ByteReader::new(&bytes)),
                    Err(StoreError::Corrupt(_))
                ),
                "tag {tag}"
            );
        }
    }
}
