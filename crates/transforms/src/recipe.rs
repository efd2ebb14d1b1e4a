//! Optimization recipes: reusable sequences of loop transformations.
//!
//! The paper's transfer-tuning database stores "pairs of an embedding for the
//! loop nest and transformation sequences including loop interchange, tiling,
//! parallelization and vectorization" (§4). [`Recipe`] is that transformation
//! sequence, without the interchange: a priori normalization fixes every
//! loop order before any recipe is looked up, so choosing the order is
//! normalization's job, and a recipe only tiles and marks the nest it is
//! given. The `daisy` crate stores and retrieves recipes by embedding
//! similarity and applies them to normalized loop nests; BLAS idioms are
//! replaced by its idiom pass, not by a recipe.

use std::fmt;

use loop_ir::expr::Var;
use loop_ir::nest::Loop;

use crate::annotate::{mark_parallel, mark_unroll, mark_vectorize};
use crate::error::{Result, TransformError};
use crate::tiling::tile_band;

/// A single loop transformation step.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Transform {
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
}

/// Stable one-byte discriminants for [`Transform`] variants.
///
/// Binary codecs that persist recipes (the `tunestore` crate) write these
/// values to disk, so they are part of the on-disk format: never renumber an
/// existing tag or reuse a retired one (0 was interchange, 5 fission), only
/// append new variants at the end.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum TransformTag {
    /// [`Transform::Tile`].
    Tile = 1,
    /// [`Transform::Parallelize`].
    Parallelize = 2,
    /// [`Transform::Vectorize`].
    Vectorize = 3,
    /// [`Transform::Unroll`].
    Unroll = 4,
}

impl TransformTag {
    /// Decodes a wire byte back into a tag. Returns `None` for bytes no
    /// known variant uses (a corrupted file, or a retired tag).
    pub fn from_wire(byte: u8) -> Option<Self> {
        match byte {
            1 => Some(TransformTag::Tile),
            2 => Some(TransformTag::Parallelize),
            3 => Some(TransformTag::Vectorize),
            4 => Some(TransformTag::Unroll),
            _ => None,
        }
    }
}

impl Transform {
    /// The stable wire tag of this variant.
    pub fn tag(&self) -> TransformTag {
        match self {
            Transform::Tile { .. } => TransformTag::Tile,
            Transform::Parallelize { .. } => TransformTag::Parallelize,
            Transform::Vectorize { .. } => TransformTag::Vectorize,
            Transform::Unroll { .. } => TransformTag::Unroll,
        }
    }

    /// Applies this step to `nest`.
    ///
    /// # Errors
    /// [`TransformError::UnknownLoop`] naming the step's first iterator when
    /// the nest lacks any iterator the step names; otherwise the error of
    /// the transformation itself.
    fn apply(&self, mut nest: Loop) -> Result<Loop> {
        let unknown = |iter: &Var| Err(TransformError::UnknownLoop(iter.clone()));
        match self {
            Transform::Tile { tiles } => {
                if let Some((first, _)) = tiles.first() {
                    if !tiles.iter().all(|(v, _)| nest.has_iterator(v)) {
                        return unknown(first);
                    }
                }
                return tile_band(&nest, tiles);
            }
            Transform::Parallelize { iter }
            | Transform::Vectorize { iter }
            | Transform::Unroll { iter, .. }
                if !nest.has_iterator(iter) =>
            {
                return unknown(iter);
            }
            Transform::Parallelize { iter } => mark_parallel(&mut nest, iter)?,
            Transform::Vectorize { iter } => mark_vectorize(&mut nest, iter)?,
            Transform::Unroll { iter, factor } => mark_unroll(&mut nest, iter, *factor)?,
        }
        Ok(nest)
    }
}

impl fmt::Display for Transform {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
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
        }
    }
}

/// A transformation sequence: it rewrites one loop nest into one loop nest.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Recipe {
    /// Transformation steps applied in order.
    pub steps: Vec<Transform>,
}

impl Recipe {
    /// The empty recipe (leaves the nest unchanged).
    pub fn identity() -> Self {
        Recipe::default()
    }

    /// A recipe consisting of the given steps.
    pub fn new(steps: Vec<Transform>) -> Self {
        Recipe { steps }
    }

    /// Appends a step.
    pub fn then(mut self, step: Transform) -> Self {
        self.steps.push(step);
        self
    }

    /// True if the recipe performs no transformation at all.
    pub fn is_identity(&self) -> bool {
        self.steps.is_empty()
    }

    /// Applies the transformation steps to a loop nest, in order, and
    /// returns the rewritten nest.
    ///
    /// # Errors
    /// Propagates the first transformation error (unknown iterator, illegal
    /// factor, non-perfect nest, …).
    pub fn apply_to_nest(&self, nest: &Loop) -> Result<Loop> {
        self.steps
            .iter()
            .try_fold(nest.clone(), |nest, step| step.apply(nest))
    }
}

impl fmt::Display for Recipe {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
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
        let nest = recipe.apply_to_nest(&gemm_nest()).unwrap();
        assert_eq!(nest.iter, Var::new("i_t"));
        assert!(nest.schedule.parallel);
        let j_point = perfect_chain(&nest)
            .find(|l| l.iter == Var::new("j"))
            .unwrap();
        assert!(j_point.schedule.vectorize);
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
    fn identity_recipe() {
        let recipe = Recipe::identity();
        assert!(recipe.is_identity());
        assert_eq!(recipe.apply_to_nest(&gemm_nest()).unwrap(), gemm_nest());
        assert_eq!(recipe.to_string(), "identity");
    }

    #[test]
    fn wire_tags_round_trip() {
        let steps = [
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
        ];
        for step in &steps {
            let tag = step.tag();
            assert_eq!(TransformTag::from_wire(tag as u8), Some(tag));
        }
        // 0 (interchange) and 5 (fission) are retired, never reused.
        for retired in [0, 5, 200] {
            assert_eq!(TransformTag::from_wire(retired), None);
        }
    }

    #[test]
    fn display_lists_steps() {
        let recipe = Recipe::new(vec![
            Transform::Tile {
                tiles: vec![(Var::new("i"), 16)],
            },
            Transform::Unroll {
                iter: Var::new("k"),
                factor: 4,
            },
        ]);
        assert_eq!(recipe.to_string(), "tile(i:16); unroll(k, 4)");
    }
}
