//! Optimization recipes: reusable sequences of loop transformations.
//!
//! The paper's transfer-tuning database stores "pairs of an embedding for the
//! loop nest and transformation sequences including loop interchange, tiling,
//! parallelization and vectorization" (§4). [`Recipe`] is that transformation
//! sequence; the `daisy` crate stores and retrieves recipes by embedding
//! similarity and applies them to normalized loop nests.

use std::fmt;

use loop_ir::expr::Var;
use loop_ir::nest::{BlasKind, Loop, Node};

use crate::annotate::{mark_parallel, mark_unroll, mark_vectorize};
use crate::error::{Result, TransformError};
use crate::fission::distribute_all;
use crate::interchange::interchange;
use crate::tiling::tile_band;

/// A single loop transformation step.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Transform {
    /// Permute the perfect chain into the given iterator order.
    Interchange {
        /// New loop order, outermost first.
        order: Vec<Var>,
    },
    /// Tile the listed iterators with the given tile sizes.
    Tile {
        /// `(iterator, tile size)` pairs.
        tiles: Vec<(Var, i64)>,
    },
    /// Execute the loop with the given iterator on multiple threads.
    Parallelize {
        /// Target loop iterator.
        iter: Var,
    },
    /// Execute the loop with the given iterator with SIMD instructions.
    Vectorize {
        /// Target loop iterator.
        iter: Var,
    },
    /// Unroll the loop with the given iterator.
    Unroll {
        /// Target loop iterator.
        iter: Var,
        /// Unroll factor (≥ 2).
        factor: u32,
    },
    /// Distribute every top-level body node of the nest into its own loop.
    Fission,
}

/// Stable one-byte discriminants for [`Transform`] variants.
///
/// Binary codecs that persist recipes (the `tunestore` crate) write these
/// values to disk, so they are part of the on-disk format: never renumber an
/// existing tag, only append new variants at the end.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum TransformTag {
    /// [`Transform::Interchange`].
    Interchange = 0,
    /// [`Transform::Tile`].
    Tile = 1,
    /// [`Transform::Parallelize`].
    Parallelize = 2,
    /// [`Transform::Vectorize`].
    Vectorize = 3,
    /// [`Transform::Unroll`].
    Unroll = 4,
    /// [`Transform::Fission`].
    Fission = 5,
}

impl TransformTag {
    /// Decodes a wire byte back into a tag. Returns `None` for bytes no
    /// known variant uses (a corrupted or future-format file).
    pub fn from_wire(byte: u8) -> Option<Self> {
        match byte {
            0 => Some(TransformTag::Interchange),
            1 => Some(TransformTag::Tile),
            2 => Some(TransformTag::Parallelize),
            3 => Some(TransformTag::Vectorize),
            4 => Some(TransformTag::Unroll),
            5 => Some(TransformTag::Fission),
            _ => None,
        }
    }
}

impl Transform {
    /// The stable wire tag of this variant.
    pub fn tag(&self) -> TransformTag {
        match self {
            Transform::Interchange { .. } => TransformTag::Interchange,
            Transform::Tile { .. } => TransformTag::Tile,
            Transform::Parallelize { .. } => TransformTag::Parallelize,
            Transform::Vectorize { .. } => TransformTag::Vectorize,
            Transform::Unroll { .. } => TransformTag::Unroll,
            Transform::Fission => TransformTag::Fission,
        }
    }
}

/// Stable byte encoding of a recipe's optional BLAS marker (`0` = none).
/// Like [`TransformTag`], these values are persisted — never renumber.
pub fn blas_to_wire(kind: Option<BlasKind>) -> u8 {
    match kind {
        None => 0,
        Some(BlasKind::Gemm) => 1,
        Some(BlasKind::Syrk) => 2,
        Some(BlasKind::Syr2k) => 3,
        Some(BlasKind::Gemv) => 4,
    }
}

/// Decodes a BLAS marker byte. Returns `None` (outer) for unknown bytes.
pub fn blas_from_wire(byte: u8) -> Option<Option<BlasKind>> {
    match byte {
        0 => Some(None),
        1 => Some(Some(BlasKind::Gemm)),
        2 => Some(Some(BlasKind::Syrk)),
        3 => Some(Some(BlasKind::Syr2k)),
        4 => Some(Some(BlasKind::Gemv)),
        _ => None,
    }
}

impl fmt::Display for Transform {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Transform::Interchange { order } => {
                write!(f, "interchange(")?;
                for (i, v) in order.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, ")")
            }
            Transform::Tile { tiles } => {
                write!(f, "tile(")?;
                for (i, (v, s)) in tiles.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}:{s}")?;
                }
                write!(f, ")")
            }
            Transform::Parallelize { iter } => write!(f, "parallelize({iter})"),
            Transform::Vectorize { iter } => write!(f, "vectorize({iter})"),
            Transform::Unroll { iter, factor } => write!(f, "unroll({iter}, {factor})"),
            Transform::Fission => write!(f, "fission"),
        }
    }
}

/// A transformation sequence, optionally ending in a BLAS idiom replacement.
///
/// When `blas` is set, the loop nest is recognized as the corresponding
/// BLAS-3 kernel and should be replaced wholesale by a library call; the
/// replacement itself is performed by the idiom-detection pass in the `daisy`
/// crate because it needs to re-derive the call arguments from the nest.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Recipe {
    /// Transformation steps applied in order.
    pub steps: Vec<Transform>,
    /// BLAS kernel this nest should be replaced with, if any.
    pub blas: Option<BlasKind>,
}

impl Recipe {
    /// The empty recipe (leaves the nest unchanged).
    pub fn identity() -> Self {
        Recipe::default()
    }

    /// A recipe consisting of the given steps.
    pub fn new(steps: Vec<Transform>) -> Self {
        Recipe { steps, blas: None }
    }

    /// A recipe that replaces the nest with a BLAS library call.
    pub fn blas(kind: BlasKind) -> Self {
        Recipe {
            steps: Vec::new(),
            blas: Some(kind),
        }
    }

    /// Appends a step.
    pub fn then(mut self, step: Transform) -> Self {
        self.steps.push(step);
        self
    }

    /// True if the recipe performs no transformation at all.
    pub fn is_identity(&self) -> bool {
        self.steps.is_empty() && self.blas.is_none()
    }

    /// Applies the transformation steps to a loop nest, returning the
    /// resulting nodes (fission can produce several sibling nests; later
    /// steps are applied to every resulting nest that contains their target
    /// iterator).
    ///
    /// The `blas` marker is *not* handled here — callers performing idiom
    /// replacement must check [`Recipe::blas`] first.
    ///
    /// # Errors
    /// Propagates the first transformation error (unknown iterator, illegal
    /// factor, non-perfect nest, …).
    pub fn apply_to_nest(&self, nest: &Loop) -> Result<Vec<Node>> {
        let mut nests: Vec<Loop> = vec![nest.clone()];
        for step in &self.steps {
            nests = self.apply_step(step, nests)?;
        }
        Ok(nests.into_iter().map(Node::Loop).collect())
    }

    fn apply_step(&self, step: &Transform, nests: Vec<Loop>) -> Result<Vec<Loop>> {
        let mut out = Vec::with_capacity(nests.len());
        let mut applied = false;
        for mut nest in nests {
            let has = |iter: &Var| nest.has_iterator(iter);
            match step {
                Transform::Fission => {
                    out.extend(distribute_all(nest));
                    applied = true;
                }
                Transform::Interchange { order } => {
                    if order.iter().all(has) {
                        out.push(interchange(&nest, order)?);
                        applied = true;
                    } else {
                        out.push(nest);
                    }
                }
                Transform::Tile { tiles } => {
                    if tiles.iter().all(|(v, _)| has(v)) {
                        out.push(tile_band(&nest, tiles)?);
                        applied = true;
                    } else {
                        out.push(nest);
                    }
                }
                Transform::Parallelize { iter } => {
                    if has(iter) {
                        mark_parallel(&mut nest, iter)?;
                        applied = true;
                    }
                    out.push(nest);
                }
                Transform::Vectorize { iter } => {
                    if has(iter) {
                        mark_vectorize(&mut nest, iter)?;
                        applied = true;
                    }
                    out.push(nest);
                }
                Transform::Unroll { iter, factor } => {
                    if has(iter) {
                        mark_unroll(&mut nest, iter, *factor)?;
                        applied = true;
                    }
                    out.push(nest);
                }
            }
        }
        if !applied {
            if let Some(iter) = step_target(step) {
                return Err(TransformError::UnknownLoop(iter));
            }
        }
        Ok(out)
    }
}

fn step_target(step: &Transform) -> Option<Var> {
    match step {
        Transform::Interchange { order } => order.first().cloned(),
        Transform::Tile { tiles } => tiles.first().map(|(v, _)| v.clone()),
        Transform::Parallelize { iter }
        | Transform::Vectorize { iter }
        | Transform::Unroll { iter, .. } => Some(iter.clone()),
        Transform::Fission => None,
    }
}

impl fmt::Display for Recipe {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(kind) = self.blas {
            return write!(f, "replace-with-{kind}");
        }
        if self.steps.is_empty() {
            return write!(f, "identity");
        }
        for (i, step) in self.steps.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(f, "{step}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interchange::perfect_chain;
    use loop_ir::prelude::*;

    fn gemm_nest() -> Loop {
        let update = Computation::reduction(
            "S1",
            ArrayRef::new("C", vec![var("i"), var("j")]),
            BinOp::Add,
            load("A", vec![var("i"), var("k")]) * load("B", vec![var("k"), var("j")]),
        );
        match for_loop(
            "i",
            cst(0),
            var("NI"),
            vec![for_loop(
                "j",
                cst(0),
                var("NJ"),
                vec![for_loop(
                    "k",
                    cst(0),
                    var("NK"),
                    vec![Node::Computation(update)],
                )],
            )],
        ) {
            Node::Loop(l) => l,
            _ => unreachable!(),
        }
    }

    #[test]
    fn typical_gemm_recipe() {
        // tile all three loops, parallelize the outer tile loop, vectorize j.
        let recipe = Recipe::new(vec![
            Transform::Tile {
                tiles: vec![
                    (Var::new("i"), 32),
                    (Var::new("j"), 32),
                    (Var::new("k"), 32),
                ],
            },
            Transform::Parallelize {
                iter: Var::new("i_t"),
            },
            Transform::Vectorize {
                iter: Var::new("j"),
            },
        ]);
        let out = recipe.apply_to_nest(&gemm_nest()).unwrap();
        assert_eq!(out.len(), 1);
        let nest = out[0].as_loop().unwrap();
        assert_eq!(nest.iter, Var::new("i_t"));
        assert!(nest.schedule.parallel);
        let j_point = perfect_chain(nest)
            .find(|l| l.iter == Var::new("j"))
            .unwrap();
        assert!(j_point.schedule.vectorize);
    }

    #[test]
    fn interchange_then_parallelize() {
        let recipe = Recipe::new(vec![
            Transform::Interchange {
                order: vec![Var::new("j"), Var::new("k"), Var::new("i")],
            },
            Transform::Parallelize {
                iter: Var::new("j"),
            },
        ]);
        let out = recipe.apply_to_nest(&gemm_nest()).unwrap();
        let nest = out[0].as_loop().unwrap();
        assert_eq!(nest.iter, Var::new("j"));
        assert!(nest.schedule.parallel);
    }

    #[test]
    fn fission_recipe_produces_multiple_nests() {
        let s1 = Computation::assign("A1", ArrayRef::new("X", vec![var("i")]), fconst(0.0));
        let s2 = Computation::assign("A2", ArrayRef::new("Y", vec![var("i")]), fconst(1.0));
        let nest = match for_loop(
            "i",
            cst(0),
            var("N"),
            vec![Node::Computation(s1), Node::Computation(s2)],
        ) {
            Node::Loop(l) => l,
            _ => unreachable!(),
        };
        let recipe = Recipe::new(vec![
            Transform::Fission,
            Transform::Vectorize {
                iter: Var::new("i"),
            },
        ]);
        let out = recipe.apply_to_nest(&nest).unwrap();
        assert_eq!(out.len(), 2);
        // the vectorize step applies to every resulting nest containing i.
        assert!(out.iter().all(|n| n.as_loop().unwrap().schedule.vectorize));
    }

    #[test]
    fn unknown_target_is_an_error() {
        let recipe = Recipe::new(vec![Transform::Parallelize {
            iter: Var::new("zzz"),
        }]);
        assert!(matches!(
            recipe.apply_to_nest(&gemm_nest()),
            Err(TransformError::UnknownLoop(_))
        ));
    }

    #[test]
    fn blas_recipe_is_not_applied_structurally() {
        let recipe = Recipe::blas(BlasKind::Gemm);
        assert_eq!(recipe.blas, Some(BlasKind::Gemm));
        assert!(!recipe.is_identity());
        // apply_to_nest ignores the marker and returns the nest unchanged.
        let out = recipe.apply_to_nest(&gemm_nest()).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].as_loop().unwrap(), &gemm_nest());
    }

    #[test]
    fn identity_recipe() {
        let recipe = Recipe::identity();
        assert!(recipe.is_identity());
        let out = recipe.apply_to_nest(&gemm_nest()).unwrap();
        assert_eq!(out[0].as_loop().unwrap(), &gemm_nest());
        assert_eq!(recipe.to_string(), "identity");
    }

    #[test]
    fn wire_tags_round_trip() {
        let steps = [
            Transform::Interchange { order: vec![] },
            Transform::Tile { tiles: vec![] },
            Transform::Parallelize {
                iter: Var::new("i"),
            },
            Transform::Vectorize {
                iter: Var::new("i"),
            },
            Transform::Unroll {
                iter: Var::new("i"),
                factor: 2,
            },
            Transform::Fission,
        ];
        for step in &steps {
            let tag = step.tag();
            assert_eq!(TransformTag::from_wire(tag as u8), Some(tag));
        }
        assert_eq!(TransformTag::from_wire(200), None);
        for kind in [
            None,
            Some(BlasKind::Gemm),
            Some(BlasKind::Syrk),
            Some(BlasKind::Syr2k),
            Some(BlasKind::Gemv),
        ] {
            assert_eq!(blas_from_wire(blas_to_wire(kind)), Some(kind));
        }
        assert_eq!(blas_from_wire(99), None);
    }

    #[test]
    fn display_lists_steps() {
        let recipe = Recipe::new(vec![
            Transform::Interchange {
                order: vec![Var::new("i"), Var::new("k"), Var::new("j")],
            },
            Transform::Tile {
                tiles: vec![(Var::new("i"), 16)],
            },
            Transform::Unroll {
                iter: Var::new("k"),
                factor: 4,
            },
        ]);
        let text = recipe.to_string();
        assert!(text.contains("interchange(i, k, j)"));
        assert!(text.contains("tile(i:16)"));
        assert!(text.contains("unroll(k, 4)"));
        assert_eq!(
            Recipe::blas(BlasKind::Syrk).to_string(),
            "replace-with-dsyrk"
        );
    }
}
