//! Array declarations and array references (memory accesses).

use std::collections::BTreeMap;
use std::fmt;

use crate::expr::{AffineExpr, AffineFold, Expr, Var};

/// A data container declaration: a multi-dimensional array of `f64` elements
/// with symbolic extents, laid out in row-major order.
#[derive(Clone, PartialEq, Debug)]
pub struct Array {
    /// Name of the array.
    pub name: Var,
    /// Symbolic extent of every dimension, outermost first.
    pub dims: Vec<Expr>,
    /// Size of one element in bytes. Defaults to 8 (`f64`).
    pub elem_size: usize,
}

impl Array {
    /// Creates an array with `f64` elements.
    pub fn new(name: impl Into<Var>, dims: Vec<Expr>) -> Self {
        Array {
            name: name.into(),
            dims,
            elem_size: 8,
        }
    }

    /// Creates an array from named parameters as extents, the common case for
    /// PolyBench-style kernels (`A[NI][NK]`).
    pub fn with_param_dims(name: impl Into<Var>, dims: &[&str]) -> Self {
        Array::new(name, dims.iter().map(|d| Expr::Var(Var::new(*d))).collect())
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// Concrete extents under the given parameter bindings.
    ///
    /// Returns `None` if any extent cannot be evaluated.
    pub fn concrete_dims(&self, bindings: &BTreeMap<Var, i64>) -> Option<Vec<i64>> {
        self.dims.iter().map(|d| d.eval(bindings)).collect()
    }

    /// Total number of elements under the given bindings; `None` when an
    /// extent cannot be evaluated or the product leaves `i64`.
    pub fn len(&self, bindings: &BTreeMap<Var, i64>) -> Option<i64> {
        self.dims
            .iter()
            .try_fold(1i64, |len, dim| len.checked_mul(dim.eval(bindings)?))
    }

    /// Returns true if the array has zero elements under the given bindings.
    pub fn is_empty(&self, bindings: &BTreeMap<Var, i64>) -> bool {
        self.len(bindings).map(|n| n == 0).unwrap_or(true)
    }

    /// Row-major linear strides (in elements) for each dimension, under the
    /// given parameter bindings. The innermost (last) dimension has stride 1.
    /// `None` when an extent — the outermost too, though no stride uses it —
    /// cannot be evaluated, or a stride leaves `i64`.
    pub fn strides(&self, bindings: &BTreeMap<Var, i64>) -> Option<Vec<i64>> {
        let mut strides = vec![0; self.rank()];
        self.fill_strides(bindings, &mut strides)?;
        Some(strides)
    }

    /// [`strides`](Self::strides), written into one slot per dimension.
    fn fill_strides(&self, bindings: &BTreeMap<Var, i64>, strides: &mut [i64]) -> Option<()> {
        debug_assert_eq!(strides.len(), self.rank(), "one stride per dimension");
        let mut stride = 1i64;
        for k in (0..self.rank()).rev() {
            strides[k] = stride;
            let extent = self.dims[k].eval(bindings)?;
            if k > 0 {
                stride = stride.checked_mul(extent)?;
            }
        }
        Some(())
    }

    /// Calls `f` with the row-major [`strides`](Self::strides), kept in a
    /// buffer on the stack (on the heap past rank 8); `None` where
    /// `strides` is.
    pub fn with_strides<R>(
        &self,
        bindings: &BTreeMap<Var, i64>,
        f: impl FnOnce(&[i64]) -> R,
    ) -> Option<R> {
        const INLINE: usize = 8;
        let mut inline = [0i64; INLINE];
        let mut heap = Vec::new();
        let strides = match inline.get_mut(..self.rank()) {
            Some(slice) => slice,
            None => {
                heap.resize(self.rank(), 0);
                heap.as_mut_slice()
            }
        };
        self.fill_strides(bindings, strides)?;
        Some(f(strides))
    }

    /// Total size in bytes under the given bindings; `None` as for
    /// [`len`](Self::len).
    pub fn size_bytes(&self, bindings: &BTreeMap<Var, i64>) -> Option<i64> {
        self.len(bindings)?
            .checked_mul(i64::try_from(self.elem_size).ok()?)
    }
}

impl fmt::Display for Array {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name)?;
        for d in &self.dims {
            write!(f, "[{d}]")?;
        }
        Ok(())
    }
}

/// A reference to an array element: the array name plus one symbolic
/// subscript expression per dimension.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct ArrayRef {
    /// Name of the accessed array.
    pub array: Var,
    /// Subscript expressions, outermost dimension first.
    pub indices: Vec<Expr>,
}

impl ArrayRef {
    /// Creates an array reference.
    pub fn new(array: impl Into<Var>, indices: Vec<Expr>) -> Self {
        ArrayRef {
            array: array.into(),
            indices,
        }
    }

    /// Creates a rank-0 (scalar container) reference.
    pub fn scalar(array: impl Into<Var>) -> Self {
        ArrayRef {
            array: array.into(),
            indices: Vec::new(),
        }
    }

    /// Number of subscripts.
    pub fn rank(&self) -> usize {
        self.indices.len()
    }

    /// Affine normal form of every subscript after folding the given
    /// parameter bindings into the expressions (so `A[b * KLEV + k]` with a
    /// known `KLEV` is still affine in `b` and `k`).
    pub fn affine_indices_with(&self, bindings: &BTreeMap<Var, i64>) -> Option<Vec<AffineExpr>> {
        self.indices
            .iter()
            .map(|e| e.affine_with(bindings))
            .collect()
    }

    /// The linearized (row-major) access offset as an affine expression over
    /// iterators and parameters, given the array declaration and parameter
    /// bindings used to resolve dimension extents.
    ///
    /// This is the quantity whose per-iterator coefficients are the access
    /// strides minimized by the stride-minimization normalization pass.
    /// `None` when a subscript is not affine or a coefficient leaves `i64`.
    pub fn linear_offset(
        &self,
        array: &Array,
        bindings: &BTreeMap<Var, i64>,
    ) -> Option<AffineExpr> {
        if array.rank() != self.rank() {
            return None;
        }
        array
            .with_strides(bindings, |strides| self.linearize(strides, bindings))
            .flatten()
    }

    /// `Σ stride · index` over the subscripts, folded; see
    /// [`linear_offset`](Self::linear_offset).
    fn linearize(&self, strides: &[i64], bindings: &BTreeMap<Var, i64>) -> Option<AffineExpr> {
        let mut out = AffineExpr::default();
        let mut fold = AffineFold::new(bindings);
        let folded = self
            .indices
            .iter()
            .zip(strides)
            .try_for_each(|(idx, &stride)| fold.add(idx, stride, &mut |v, c| out.add_folded(v, c)));
        if folded.is_some() {
            return Some(out.without_zero_terms());
        }
        // The reference: each subscript's form, scaled and summed, checked.
        let mut acc = AffineExpr::constant(0);
        for (idx, &stride) in self.indices.iter().zip(strides) {
            acc = acc.checked_add(idx.affine_with(bindings)?.checked_scaled(stride)?, 1)?;
        }
        Some(acc)
    }

    /// Substitutes a variable in every subscript.
    pub fn substitute(&self, v: &Var, replacement: &Expr) -> ArrayRef {
        ArrayRef {
            array: self.array.clone(),
            indices: self
                .indices
                .iter()
                .map(|e| e.substitute(v, replacement))
                .collect(),
        }
    }

    /// Returns true if any subscript references the variable.
    pub fn uses_var(&self, v: &Var) -> bool {
        self.indices.iter().any(|e| e.uses_var(v))
    }
}

impl fmt::Display for ArrayRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.array)?;
        for idx in &self.indices {
            write!(f, "[{idx}]")?;
        }
        Ok(())
    }
}

/// The direction of a memory access.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AccessKind {
    /// The access reads the element.
    Read,
    /// The access writes the element.
    Write,
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessKind::Read => f.write_str("read"),
            AccessKind::Write => f.write_str("write"),
        }
    }
}

/// A memory access: an [`ArrayRef`] of a computation, borrowed, together
/// with its direction.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Access<'a> {
    /// The referenced element.
    pub array_ref: &'a ArrayRef,
    /// Whether the element is read or written.
    pub kind: AccessKind,
}

impl<'a> Access<'a> {
    /// Creates a read access.
    pub fn read(array_ref: &'a ArrayRef) -> Self {
        Access {
            array_ref,
            kind: AccessKind::Read,
        }
    }

    /// Creates a write access.
    pub fn write(array_ref: &'a ArrayRef) -> Self {
        Access {
            array_ref,
            kind: AccessKind::Write,
        }
    }

    /// Returns true if the access is a write.
    pub fn is_write(&self) -> bool {
        self.kind == AccessKind::Write
    }
}

impl fmt::Display for Access<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.kind, self.array_ref)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{cst, var};

    fn bindings() -> BTreeMap<Var, i64> {
        [(Var::new("N"), 10), (Var::new("M"), 20)]
            .into_iter()
            .collect()
    }

    #[test]
    fn concrete_dims_and_len() {
        let a = Array::with_param_dims("A", &["N", "M"]);
        assert_eq!(a.rank(), 2);
        assert_eq!(a.concrete_dims(&bindings()), Some(vec![10, 20]));
        assert_eq!(a.len(&bindings()), Some(200));
        assert_eq!(a.size_bytes(&bindings()), Some(1600));
        assert!(!a.is_empty(&bindings()));
    }

    #[test]
    fn row_major_strides() {
        let a = Array::with_param_dims("A", &["N", "M"]);
        assert_eq!(a.strides(&bindings()), Some(vec![20, 1]));
        let b = Array::new("B", vec![cst(4), cst(5), cst(6)]);
        assert_eq!(b.strides(&BTreeMap::new()), Some(vec![30, 6, 1]));
    }

    #[test]
    fn missing_binding_gives_none() {
        let a = Array::with_param_dims("A", &["K"]);
        assert_eq!(a.concrete_dims(&bindings()), None);
        assert_eq!(a.len(&bindings()), None);
        assert!(a.is_empty(&bindings()));
    }

    #[test]
    fn linear_offset_reflects_row_major_layout() {
        let a = Array::with_param_dims("A", &["N", "M"]);
        // A[i][j] -> 20*i + j under N=10, M=20.
        let r = ArrayRef::new("A", vec![var("i"), var("j")]);
        let off = r.linear_offset(&a, &bindings()).unwrap();
        assert_eq!(off.coefficient(&Var::new("i")), 20);
        assert_eq!(off.coefficient(&Var::new("j")), 1);
    }

    #[test]
    fn linear_offset_transposed_access() {
        let a = Array::with_param_dims("A", &["N", "M"]);
        // A[j][i] -> 20*j + i: the stride along i is now 1.
        let r = ArrayRef::new("A", vec![var("j"), var("i")]);
        let off = r.linear_offset(&a, &bindings()).unwrap();
        assert_eq!(off.coefficient(&Var::new("i")), 1);
        assert_eq!(off.coefficient(&Var::new("j")), 20);
    }

    #[test]
    fn linear_offset_rank_mismatch_is_none() {
        let a = Array::with_param_dims("A", &["N", "M"]);
        for indices in [vec![], vec![var("i")], vec![var("i"), var("j"), var("k")]] {
            assert_eq!(
                ArrayRef::new("A", indices).linear_offset(&a, &bindings()),
                None
            );
        }
    }

    /// `strides`, `with_strides` and `linear_offset` answer `None` together.
    fn assert_no_layout(array: &Array, r: &ArrayRef, bindings: &BTreeMap<Var, i64>) {
        assert_eq!(array.strides(bindings), None);
        assert_eq!(array.with_strides(bindings, <[i64]>::to_vec), None);
        assert_eq!(r.linear_offset(array, bindings), None);
    }

    #[test]
    fn an_outermost_extent_that_does_not_evaluate_has_no_layout() {
        // No stride uses the outermost extent, and still it must evaluate.
        let a = Array::with_param_dims("A", &["K", "N"]);
        let r = ArrayRef::new("A", vec![var("i"), var("j")]);
        assert_no_layout(&a, &r, &bindings());
        let scalar_like = Array::with_param_dims("S", &["K"]);
        assert_no_layout(
            &scalar_like,
            &ArrayRef::new("S", vec![var("i")]),
            &bindings(),
        );
    }

    #[test]
    fn an_inner_stride_product_that_leaves_i64_has_no_layout() {
        let huge = [(Var::new("H"), 1i64 << 62)].into_iter().collect();
        // Strides [4·2^62, 4, 1]: the outermost one leaves `i64`.
        let a = Array::new("A", vec![cst(2), var("H"), cst(4)]);
        let r = ArrayRef::new("A", vec![var("i"), var("j"), var("k")]);
        assert_no_layout(&a, &r, &huge);
        // A zero extent further out does not rescue it.
        let z = Array::new("Z", vec![cst(0), cst(3), var("H"), cst(4)]);
        let r = ArrayRef::new("Z", vec![var("h"), var("i"), var("j"), var("k")]);
        assert_no_layout(&z, &r, &huge);
    }

    #[test]
    fn offsets_of_every_rank_match_the_row_major_sum() {
        // Ranks 0 through 9, past the eight strides kept on the stack.
        for rank in 0..=9usize {
            let dims: Vec<i64> = (0..rank as i64).map(|k| k + 2).collect();
            let array = Array::new("A", dims.iter().map(|&d| cst(d)).collect());
            let iters: Vec<Var> = (0..rank).map(|k| Var::new(format!("i{k}"))).collect();
            let r = ArrayRef::new("A", iters.iter().map(|v| var(v.clone()) + cst(1)).collect());
            let strides: Vec<i64> = (0..rank).map(|k| dims[k + 1..].iter().product()).collect();
            assert_eq!(array.strides(&BTreeMap::new()), Some(strides.clone()));
            assert_eq!(
                array.with_strides(&BTreeMap::new(), <[i64]>::to_vec),
                Some(strides.clone())
            );
            let expected = AffineExpr::from_terms(
                iters.iter().cloned().zip(strides.iter().copied()),
                strides.iter().sum(),
            );
            assert_eq!(
                r.linear_offset(&array, &BTreeMap::new()),
                Some(expected),
                "rank {rank}"
            );
        }
    }

    #[test]
    fn array_ref_substitution() {
        let r = ArrayRef::new("A", vec![var("i") + cst(1), var("j")]);
        let s = r.substitute(&Var::new("i"), &var("ii"));
        assert!(s.uses_var(&Var::new("ii")));
        assert!(!s.uses_var(&Var::new("i")));
        assert!(s.uses_var(&Var::new("j")));
    }

    #[test]
    fn scalar_reference_has_rank_zero() {
        let r = ArrayRef::scalar("tmp");
        assert_eq!(r.rank(), 0);
        assert_eq!(format!("{r}"), "tmp");
    }

    #[test]
    fn access_kinds() {
        let r = ArrayRef::new("A", vec![var("i")]);
        assert!(Access::write(&r).is_write());
        assert!(!Access::read(&r).is_write());
    }

    #[test]
    fn display_formats() {
        let a = Array::with_param_dims("A", &["N", "M"]);
        assert_eq!(format!("{a}"), "A[N][M]");
        let r = ArrayRef::new("A", vec![var("i"), var("j") + cst(1)]);
        assert_eq!(format!("{r}"), "A[i][(j + 1)]");
    }
}
