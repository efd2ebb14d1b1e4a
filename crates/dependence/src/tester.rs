//! Pairwise dependence testing between two affine accesses.
//!
//! The test is a combination of the GCD test and Banerjee-style bound
//! checking, applied dimension by dimension under the constraints implied by
//! a candidate direction vector over the common loops. It is conservative:
//! it answers "no dependence" only when a dimension's equation provably has
//! no solution over the iterations the vector allows. It is also symmetric:
//! exchanging source and destination and reversing the vector gives the
//! same answer.
//!
//! # Dense rows
//!
//! An access is lowered once (`SubscriptTable::lower`) against the loops that
//! enclose its computation, outermost first. Subscript dimension `d` becomes
//! the integer row
//!
//! ```text
//! rows[d * (depth + 1) ..][..depth + 1] = [constant, c_0, …, c_{depth-1}]
//! ```
//!
//! with the program's parameters folded into `constant` and `c_k` the
//! coefficient of the `k`-th enclosing loop's iterator. A symbol that is
//! neither a bound parameter nor an enclosing iterator is kept as a
//! `FreeTerm`: an unbounded unknown shared by both sides of a pair. The
//! terms come from the one affine fold of the IR, [`AffineFold`], scattered
//! as they are found; what it declines is scattered from the reference
//! `fold_params(..).as_affine()`. So a row is exactly the subscript's
//! [`Expr::affine_with`](loop_ir::expr::Expr::affine_with) form, as in
//! [`crate::reference`] — degenerate subscripts (`0·(i·j)`, `(i·j)−(i·j)`,
//! `x/1`) included — and a subscript without one (not affine, or leaving
//! `i64`) has no rows and may depend on anything.
//!
//! # The unknowns and the polygon
//!
//! A pair of accesses is tested through a `LoopPairing` of the two loop
//! stacks. For one dimension the equation `src − dst = 0` has these
//! unknowns:
//!
//! * a loop of only one side: its iterator over that loop's bounds;
//! * a common loop with source bounds `S = [sl, sh]` and destination bounds
//!   `D = [dl, dh]`: the source iteration `s` and the destination iteration
//!   `d`, a point of the level's *polygon*
//!
//!   ```text
//!   s ∈ S,  d ∈ D,  d − s ∈ band    with band  `=`: {0}   `<`: [1, ∞)
//!                                              `>`: (−∞, −1]   `*`: ℤ
//!   ```
//!
//! * a symbol that is neither (a `FreeTerm`): unbounded.
//!
//! The equation may have a solution when the GCD of the non-zero
//! coefficients divides the constant and the interval of the left-hand side
//! contains zero. A common loop whose subscripts carry `cs · s` and
//! `cd · d` adds `cs − cd` to the GCD under `=` and `cs`, `cd` otherwise,
//! and the interval of `cs·s − cd·d` over its polygon. That interval is
//! exact: the polygon's vertices are integer points, where a linear function
//! takes its extremes. When `cs = cd` only the distance matters, and the
//! interval is `−cs · (band ∩ [dl − sh, dh − sl])` in closed form — nearly
//! every pair of a real program. An empty polygon refutes the vector
//! whatever the subscripts: it names no pair of iterations. So does an
//! empty range on a one-sided loop whose iterator has a non-zero
//! coefficient. Arithmetic that leaves `i128` answers "may depend".
//!
//! Exchanging source and destination and reversing the vector mirrors each
//! polygon (`(s, d) ↦ (d, s)`) and negates the equation with the same
//! unknowns: the GCD is the same and the exact interval is negated, so the
//! answer is too — unless a coefficient leaves `i64` one way round only,
//! where that way answers "may depend". The graph of a program therefore
//! does not hang on the order its statements are written in.
//!
//! # Refinement by relaxed prefixes
//!
//! [`crate::analyze`] needs every `=`/`<`/`>` vector over the `n` common
//! loops of a pair that may carry a dependence. Instead of testing all `3ⁿ`
//! it walks the levels outermost first and tests each *prefix* with the
//! undetermined levels relaxed to `*`. A refuted prefix refutes every
//! vector below it:
//!
//! * **Polygons nest.** The band of `*` contains those of `=`, `<` and `>`,
//!   while every other unknown keeps its range: each refined polygon lies
//!   inside the relaxed one. An empty relaxed polygon has empty refinements,
//!   and an interval over a polygon contains the interval over any part of
//!   it, so if the relaxed interval misses zero every refined interval does.
//! * **GCDs divide.** The relaxed level contributes `gcd(cs, cd)`, which is
//!   what `<` and `>` contribute and divides `cs − cd`, the contribution of
//!   `=`. A constant the relaxed GCD does not divide is divided by none of
//!   the refined ones (with no unknowns left the constant must be zero,
//!   which the same argument covers).
//!
//! Dimensions are tested one by one in both, so the argument applies per
//! dimension. Surviving leaves are tested exactly as before, and the walk
//! visits them in the lexicographic `=, <, >` order of the flat enumeration,
//! so the emitted vectors and their order are unchanged.
//!
//! The walk also skips, for a self pair, the vectors whose first non-`=`
//! level is `>`. Each is the mirror image of a `<` vector of the same two
//! accesses exchanged, which the pair loop visits too; by symmetry the two
//! get one answer and describe one edge, so the skip is exact.

use std::collections::BTreeMap;

use loop_ir::array::ArrayRef;
use loop_ir::expr::{AffineFold, Var};

use crate::types::Direction;

/// The numeric iteration range of one loop, `[lower, upper)`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LoopBound {
    /// Loop iterator.
    pub iter: Var,
    /// Inclusive lower bound.
    pub lower: i64,
    /// Exclusive upper bound.
    pub upper: i64,
}

impl LoopBound {
    /// Creates a loop bound record.
    pub fn new(iter: impl Into<Var>, lower: i64, upper: i64) -> Self {
        LoopBound {
            iter: iter.into(),
            lower,
            upper,
        }
    }

    /// The inclusive range of the iterator.
    fn range(&self) -> (i128, i128) {
        (i128::from(self.lower), i128::from(self.upper) - 1)
    }
}

/// An access together with the loops enclosing its computation (outermost
/// first) with evaluated numeric bounds.
#[derive(Clone, Debug)]
pub struct AccessContext<'a> {
    /// The accessed element.
    pub array_ref: &'a ArrayRef,
    /// All enclosing loops of the access, outermost first.
    pub loops: &'a [LoopBound],
}

/// Range of a symbol nothing is known about.
const FREE_RANGE: (i128, i128) = (i64::MIN as i128 / 4, i64::MAX as i128 / 4);

/// `coefficient · symbol` in dimension `dim` of a subscript, for a symbol
/// that is neither a bound parameter nor an enclosing loop iterator.
#[derive(Clone, Debug)]
struct FreeTerm {
    dim: usize,
    symbol: Var,
    coefficient: i64,
}

/// The subscripts of many accesses as dense integer rows (module docs), in
/// two flat tables: one analysis lowers every access into one table.
#[derive(Clone, Debug, Default)]
pub(crate) struct SubscriptTable {
    rows: Vec<i64>,
    free: Vec<FreeTerm>,
}

/// Where [`SubscriptTable::lower`] put the subscripts of one access.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Lowered {
    rank: usize,
    /// The first row and the length of all rows, or `None` when a subscript
    /// is not affine or does not fit: the access may touch any element.
    rows: Option<(usize, usize)>,
    free: (usize, usize),
}

impl SubscriptTable {
    /// Lowers `array_ref` against its enclosing `loops` (outermost first).
    pub(crate) fn lower(
        &mut self,
        array_ref: &ArrayRef,
        loops: &[LoopBound],
        params: &BTreeMap<Var, i64>,
    ) -> Lowered {
        let rank = array_ref.rank();
        let width = loops.len() + 1;
        let (first_row, first_free) = (self.rows.len(), self.free.len());
        self.rows.resize(first_row + rank * width, 0);
        let rows = &mut self.rows[first_row..];
        let free = &mut self.free;
        let affine = array_ref.indices.iter().enumerate().all(|(dim, index)| {
            let mut row = RowBuilder {
                loops,
                dim,
                row: &mut rows[dim * width..][..width],
                first_free: free.len(),
                free: &mut *free,
            };
            if AffineFold::new(params)
                .add(index, 1, &mut |v, c| row.scatter(v, c))
                .is_some()
            {
                return true;
            }
            // What the fold declines, the reference decides.
            row.clear();
            let Some(form) = index.fold_params(params).as_affine() else {
                return false;
            };
            row.scatter(None, form.constant_part());
            for (v, c) in form.terms() {
                row.scatter(Some(v), c);
            }
            true
        });
        if !affine {
            self.rows.truncate(first_row);
            self.free.truncate(first_free);
        }
        Lowered {
            rank,
            rows: affine.then_some((first_row, rank * width)),
            free: (first_free, self.free.len() - first_free),
        }
    }

    /// The subscripts `lowered` describes.
    pub(crate) fn get(&self, lowered: Lowered) -> Subscripts<'_> {
        let (first, len) = lowered.free;
        Subscripts {
            rank: lowered.rank,
            rows: lowered.rows.map(|(first, len)| &self.rows[first..][..len]),
            free: &self.free[first..][..len],
        }
    }
}

/// The subscripts of one access as dense integer rows (module docs).
#[derive(Clone, Copy, Debug)]
pub(crate) struct Subscripts<'a> {
    rank: usize,
    /// `rank` rows of `depth + 1` integers, or `None` when a subscript is
    /// not affine or does not fit: the access may touch any element.
    rows: Option<&'a [i64]>,
    free: &'a [FreeTerm],
}

impl Subscripts<'_> {
    fn free_coefficient(&self, dim: usize, symbol: &Var) -> Option<i64> {
        self.free
            .iter()
            .find(|t| t.dim == dim && &t.symbol == symbol)
            .map(|t| t.coefficient)
    }
}

/// Scatters the terms of one subscript's affine form into its row: the
/// constant into column 0, an enclosing iterator into its slot's column,
/// any other symbol into a [`FreeTerm`].
struct RowBuilder<'a> {
    loops: &'a [LoopBound],
    dim: usize,
    row: &'a mut [i64],
    /// The free terms of this row start here.
    first_free: usize,
    free: &'a mut Vec<FreeTerm>,
}

impl RowBuilder<'_> {
    /// Adds `c · v` (`c` for `None`). The terms come from one
    /// [`AffineFold`] or one [`AffineExpr`](loop_ir::expr::AffineExpr), so
    /// every sum fits `i64`.
    fn scatter(&mut self, v: Option<&Var>, c: i64) {
        let Some(v) = v else {
            self.row[0] += c;
            return;
        };
        if let Some(slot) = self.loops.iter().position(|l| &l.iter == v) {
            self.row[1 + slot] += c;
            return;
        }
        match self.free[self.first_free..]
            .iter_mut()
            .find(|t| &t.symbol == v)
        {
            Some(term) => term.coefficient += c,
            None => self.free.push(FreeTerm {
                dim: self.dim,
                symbol: v.clone(),
                coefficient: c,
            }),
        }
    }

    /// Forgets what a declined fold scattered.
    fn clear(&mut self) {
        self.row.fill(0);
        self.free.truncate(self.first_free);
    }
}

/// A loop common to both computations of a pair.
#[derive(Clone, Copy, Debug)]
struct CommonLoop {
    /// Position in the source's loop stack.
    src: usize,
    /// Position in the destination's loop stack.
    dst: usize,
}

/// How the loop stacks of two computations line up: the common loops
/// (matched by iterator name, in the order given) and the loops only one
/// side has. One pairing is refilled for pair after pair.
#[derive(Clone, Debug, Default)]
pub(crate) struct LoopPairing {
    common: Vec<CommonLoop>,
    src_only: Vec<usize>,
    dst_only: Vec<usize>,
}

impl LoopPairing {
    /// Pairs the two stacks over `common`, whose iterators must enclose both
    /// sides.
    pub(crate) fn pair(&mut self, src: &[LoopBound], dst: &[LoopBound], common: &[Var]) {
        let slot = |loops: &[LoopBound], iter: &Var| {
            loops
                .iter()
                .position(|l| &l.iter == iter)
                .expect("a common loop encloses both computations")
        };
        let rest = |loops: &[LoopBound], out: &mut Vec<usize>| {
            out.clear();
            out.extend((0..loops.len()).filter(|&k| !common.contains(&loops[k].iter)));
        };
        self.common.clear();
        self.common.extend(common.iter().map(|iter| CommonLoop {
            src: slot(src, iter),
            dst: slot(dst, iter),
        }));
        rest(src, &mut self.src_only);
        rest(dst, &mut self.dst_only);
    }
}

/// Two accesses to one array, ready for testing.
pub(crate) struct Pair<'a> {
    pub(crate) src: Subscripts<'a>,
    pub(crate) src_loops: &'a [LoopBound],
    pub(crate) dst: Subscripts<'a>,
    pub(crate) dst_loops: &'a [LoopBound],
    pub(crate) pairing: &'a LoopPairing,
}

impl Pair<'_> {
    /// May the two accesses touch one element under `levels`, one direction
    /// per common loop (`*` for a level left open; module docs)?
    pub(crate) fn may_depend(&self, levels: &[Direction]) -> bool {
        debug_assert_eq!(levels.len(), self.pairing.common.len());
        if self.src.rank != self.dst.rank {
            return false;
        }
        match (self.src.rows, self.dst.rows) {
            // Each dimension refutes an empty polygon itself.
            (Some(src_rows), Some(dst_rows)) if self.src.rank > 0 => {
                let (src_width, dst_width) = (self.src_loops.len() + 1, self.dst_loops.len() + 1);
                (0..self.src.rank).all(|dim| {
                    self.dimension_may_meet(
                        dim,
                        &src_rows[dim * src_width..][..src_width],
                        &dst_rows[dim * dst_width..][..dst_width],
                        levels,
                    )
                })
            }
            // Without rows to test, only an empty polygon refutes.
            _ => {
                let mut common = self.pairing.common.iter().zip(levels);
                common.all(|(c, &level)| self.polygon(c, level).is_some())
            }
        }
    }

    /// The iteration pairs of `common` under `level`; `None` when there are
    /// none.
    fn polygon(&self, common: &CommonLoop, level: Direction) -> Option<Polygon> {
        Polygon::new(
            self.src_loops[common.src].range(),
            self.dst_loops[common.dst].range(),
            level,
        )
    }

    /// The test of one dimension: may `src − dst = 0` hold over the
    /// iterations `levels` allow?
    fn dimension_may_meet(
        &self,
        dim: usize,
        src: &[i64],
        dst: &[i64],
        levels: &[Direction],
    ) -> bool {
        let mut equation = Equation::new(src[0].checked_sub(dst[0]));
        for &k in &self.pairing.src_only {
            if !equation.term(Some(src[1 + k]), self.src_loops[k].range()) {
                return false;
            }
        }
        for &k in &self.pairing.dst_only {
            if !equation.term(dst[1 + k].checked_neg(), self.dst_loops[k].range()) {
                return false;
            }
        }
        for (common, &level) in self.pairing.common.iter().zip(levels) {
            let Some(polygon) = self.polygon(common, level) else {
                return false;
            };
            let (cs, cd) = (src[1 + common.src], dst[1 + common.dst]);
            if (cs, cd) == (0, 0) {
                continue;
            }
            if level == Direction::Eq {
                equation.divisor(cs.checked_sub(cd));
            } else {
                equation.divisor(Some(cs));
                equation.divisor(Some(cd));
            }
            equation.span(polygon.range(cs, cd));
        }
        for term in self.src.free.iter().filter(|t| t.dim == dim) {
            let other = self.dst.free_coefficient(dim, &term.symbol).unwrap_or(0);
            equation.term(term.coefficient.checked_sub(other), FREE_RANGE);
        }
        for term in self.dst.free.iter().filter(|t| t.dim == dim) {
            if self.src.free_coefficient(dim, &term.symbol).is_none() {
                equation.term(term.coefficient.checked_neg(), FREE_RANGE);
            }
        }
        equation.may_hold()
    }
}

/// `constant + Σ coefficient · unknown = 0`, accumulated unknown by unknown
/// into what the GCD and interval tests need.
struct Equation {
    constant: i64,
    /// GCD of the non-zero coefficients; zero while there are none.
    gcd: u64,
    /// Bounds of the left-hand side over the unknowns.
    min: i128,
    max: i128,
    /// Some step left `i64` / `i128`: nothing can be concluded.
    overflowed: bool,
}

impl Equation {
    /// The equation with no unknowns yet; `None` is a constant that does
    /// not fit.
    fn new(constant: Option<i64>) -> Self {
        let c = constant.unwrap_or(0);
        Equation {
            constant: c,
            gcd: 0,
            min: i128::from(c),
            max: i128::from(c),
            overflowed: constant.is_none(),
        }
    }

    /// Adds `coefficient · unknown` with the unknown in `range`; `None` is a
    /// coefficient that does not fit. Returns `false` when the term alone
    /// refutes the equation: the unknown matters and its range is empty.
    fn term(&mut self, coefficient: Option<i64>, range: (i128, i128)) -> bool {
        let Some(c) = coefficient else {
            self.overflowed = true;
            return true;
        };
        if c == 0 {
            return true;
        }
        if range.0 > range.1 {
            return false;
        }
        self.divisor(Some(c));
        self.span(scaled(i128::from(c), range));
        true
    }

    /// Folds a coefficient into the GCD; `None` is one that does not fit.
    fn divisor(&mut self, coefficient: Option<i64>) {
        match coefficient {
            Some(c) => self.gcd = gcd(self.gcd, c.unsigned_abs()),
            None => self.overflowed = true,
        }
    }

    /// Adds a term whose least and greatest value over the unknowns are
    /// `range`; `None` is a range that does not fit.
    fn span(&mut self, range: Option<(i128, i128)>) {
        let sum = range.and_then(|(least, most)| {
            Some((self.min.checked_add(least)?, self.max.checked_add(most)?))
        });
        match sum {
            Some((min, max)) => (self.min, self.max) = (min, max),
            None => self.overflowed = true,
        }
    }

    fn may_hold(&self) -> bool {
        if self.overflowed {
            return true;
        }
        if self.gcd == 0 {
            return self.constant == 0;
        }
        self.constant.unsigned_abs().is_multiple_of(self.gcd) && self.min <= 0 && 0 <= self.max
    }
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// The least and greatest value of `c · x` for `x` in `[lo, hi]`, or `None`
/// if one leaves `i128`.
fn scaled(c: i128, (lo, hi): (i128, i128)) -> Option<(i128, i128)> {
    let (at_lo, at_hi) = (c.checked_mul(lo)?, c.checked_mul(hi)?);
    Some(if c > 0 {
        (at_lo, at_hi)
    } else {
        (at_hi, at_lo)
    })
}

/// The polygon of one common loop under one level (module docs): `s` in
/// the source's inclusive bounds, `d` in the destination's, and `d − s` in
/// `distance`, the level's band clipped to the distances the bounds allow.
#[derive(Clone, Debug)]
struct Polygon {
    s: (i128, i128),
    d: (i128, i128),
    distance: (i128, i128),
}

impl Polygon {
    /// `None` when no pair of iterations lies in the polygon.
    fn new(s: (i128, i128), d: (i128, i128), level: Direction) -> Option<Self> {
        let (mut lo, mut hi) = (d.0 - s.1, d.1 - s.0);
        match level {
            Direction::Eq => (lo, hi) = (lo.max(0), hi.min(0)),
            Direction::Lt => lo = lo.max(1),
            Direction::Gt => hi = hi.min(-1),
            Direction::Any => {}
        }
        let nonempty = s.0 <= s.1 && d.0 <= d.1 && lo <= hi;
        nonempty.then_some(Polygon {
            s,
            d,
            distance: (lo, hi),
        })
    }

    /// The least and greatest value of `cs·s − cd·d` over the polygon, or
    /// `None` if one leaves `i128`.
    fn range(&self, cs: i64, cd: i64) -> Option<(i128, i128)> {
        let (cs, cd) = (i128::from(cs), i128::from(cd));
        if cs == cd {
            // `cs·s − cs·d = −cs·(d − s)`: only the distance matters.
            return scaled(-cs, self.distance);
        }
        // A vertex ends one of the sides `s = sl`, `s = sh`, `d = dl`,
        // `d = dh`: the other two, `d − s` constant, are parallel.
        let (lo, hi) = self.distance;
        let mut range: Option<(i128, i128)> = None;
        let mut vertex = |s: i128, d: i128| {
            let v = cs.checked_mul(s)?.checked_sub(cd.checked_mul(d)?)?;
            range = Some(range.map_or((v, v), |(least, most)| (least.min(v), most.max(v))));
            Some(())
        };
        for s in [self.s.0, self.s.1] {
            let (first, last) = (self.d.0.max(s + lo), self.d.1.min(s + hi));
            if first <= last {
                vertex(s, first)?;
                vertex(s, last)?;
            }
        }
        for d in [self.d.0, self.d.1] {
            let (first, last) = (self.s.0.max(d - hi), self.s.1.min(d - lo));
            if first <= last {
                vertex(first, d)?;
                vertex(last, d)?;
            }
        }
        range
    }
}

/// Tests whether a dependence from `src` to `dst` may exist under the given
/// direction vector over `common` loops (outermost first).
///
/// `params` supplies values for symbolic parameters appearing in subscripts.
/// Returns `true` (conservatively) if any subscript is not affine. An entry
/// of `common` that does not enclose both sides constrains nothing: each
/// side's loop of that name stays an independent unknown.
pub fn may_depend(
    src: &AccessContext<'_>,
    dst: &AccessContext<'_>,
    common: &[Var],
    directions: &[Direction],
    params: &BTreeMap<Var, i64>,
) -> bool {
    debug_assert_eq!(common.len(), directions.len());
    if src.array_ref.array != dst.array_ref.array {
        return false;
    }
    let encloses = |loops: &[LoopBound], iter: &Var| loops.iter().any(|l| &l.iter == iter);
    let (shared, levels): (Vec<Var>, Vec<Direction>) = common
        .iter()
        .zip(directions)
        .filter(|(iter, _)| encloses(src.loops, iter) && encloses(dst.loops, iter))
        .map(|(iter, direction)| (iter.clone(), *direction))
        .unzip();
    let mut table = SubscriptTable::default();
    let lowered_src = table.lower(src.array_ref, src.loops, params);
    let lowered_dst = table.lower(dst.array_ref, dst.loops, params);
    let mut pairing = LoopPairing::default();
    pairing.pair(src.loops, dst.loops, &shared);
    Pair {
        src: table.get(lowered_src),
        src_loops: src.loops,
        dst: table.get(lowered_dst),
        dst_loops: dst.loops,
        pairing: &pairing,
    }
    .may_depend(&levels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use loop_ir::expr::{cst, var, Expr};

    fn params() -> BTreeMap<Var, i64> {
        BTreeMap::new()
    }

    fn bounds(list: &[(&str, i64, i64)]) -> Vec<LoopBound> {
        list.iter()
            .map(|(n, lo, hi)| LoopBound::new(*n, *lo, *hi))
            .collect()
    }

    #[test]
    fn identical_access_same_iteration_depends() {
        let r = ArrayRef::new("A", vec![var("i")]);
        let loops = bounds(&[("i", 0, 10)]);
        let src = AccessContext {
            array_ref: &r,
            loops: &loops,
        };
        let dst = AccessContext {
            array_ref: &r,
            loops: &loops,
        };
        assert!(may_depend(
            &src,
            &dst,
            &[Var::new("i")],
            &[Direction::Eq],
            &params()
        ));
    }

    #[test]
    fn same_subscript_cannot_depend_across_iterations() {
        // A[i] written in iteration i is never touched by iteration i' != i.
        let r = ArrayRef::new("A", vec![var("i")]);
        let loops = bounds(&[("i", 0, 10)]);
        let src = AccessContext {
            array_ref: &r,
            loops: &loops,
        };
        let dst = AccessContext {
            array_ref: &r,
            loops: &loops,
        };
        assert!(!may_depend(
            &src,
            &dst,
            &[Var::new("i")],
            &[Direction::Lt],
            &params()
        ));
        assert!(!may_depend(
            &src,
            &dst,
            &[Var::new("i")],
            &[Direction::Gt],
            &params()
        ));
    }

    #[test]
    fn shifted_subscript_depends_across_one_iteration() {
        // S1 writes A[i]; S2 reads A[i-1]: flow carried with distance 1.
        let w = ArrayRef::new("A", vec![var("i")]);
        let r = ArrayRef::new("A", vec![var("i") - cst(1)]);
        let loops = bounds(&[("i", 0, 10)]);
        let src = AccessContext {
            array_ref: &w,
            loops: &loops,
        };
        let dst = AccessContext {
            array_ref: &r,
            loops: &loops,
        };
        assert!(may_depend(
            &src,
            &dst,
            &[Var::new("i")],
            &[Direction::Lt],
            &params()
        ));
        // but not in the same iteration and not backwards at distance >= 1.
        assert!(!may_depend(
            &src,
            &dst,
            &[Var::new("i")],
            &[Direction::Eq],
            &params()
        ));
        assert!(!may_depend(
            &src,
            &dst,
            &[Var::new("i")],
            &[Direction::Gt],
            &params()
        ));
    }

    #[test]
    fn gcd_test_rejects_parity_mismatch() {
        // A[2*i] vs A[2*i + 1] can never alias.
        let even = ArrayRef::new("A", vec![var("i") * cst(2)]);
        let odd = ArrayRef::new("A", vec![var("i") * cst(2) + cst(1)]);
        let loops = bounds(&[("i", 0, 100)]);
        let src = AccessContext {
            array_ref: &even,
            loops: &loops,
        };
        let dst = AccessContext {
            array_ref: &odd,
            loops: &loops,
        };
        for dir in [Direction::Lt, Direction::Eq, Direction::Gt, Direction::Any] {
            assert!(!may_depend(&src, &dst, &[Var::new("i")], &[dir], &params()));
        }
    }

    #[test]
    fn banerjee_rejects_disjoint_ranges() {
        // A[i] vs A[i + 100] with i in [0, 50): ranges never overlap.
        let a = ArrayRef::new("A", vec![var("i")]);
        let b = ArrayRef::new("A", vec![var("i") + cst(100)]);
        let loops = bounds(&[("i", 0, 50)]);
        let src = AccessContext {
            array_ref: &a,
            loops: &loops,
        };
        let dst = AccessContext {
            array_ref: &b,
            loops: &loops,
        };
        assert!(!may_depend(
            &src,
            &dst,
            &[Var::new("i")],
            &[Direction::Any],
            &params()
        ));
    }

    #[test]
    fn two_dimensional_independent_dims() {
        // A[i][j] and A[i][j+1]: dependence only with j carrying distance 1.
        let w = ArrayRef::new("A", vec![var("i"), var("j")]);
        let r = ArrayRef::new("A", vec![var("i"), var("j") + cst(1)]);
        let loops = bounds(&[("i", 0, 10), ("j", 0, 10)]);
        let src = AccessContext {
            array_ref: &w,
            loops: &loops,
        };
        let dst = AccessContext {
            array_ref: &r,
            loops: &loops,
        };
        let common = [Var::new("i"), Var::new("j")];
        assert!(may_depend(
            &src,
            &dst,
            &common,
            &[Direction::Eq, Direction::Gt],
            &params()
        ));
        assert!(!may_depend(
            &src,
            &dst,
            &common,
            &[Direction::Eq, Direction::Eq],
            &params()
        ));
        assert!(!may_depend(
            &src,
            &dst,
            &common,
            &[Direction::Lt, Direction::Eq],
            &params()
        ));
    }

    #[test]
    fn reduction_target_depends_across_non_subscript_loop() {
        // C[i] += ... inside loops i, k: the k loop relates identical C[i]
        // elements across iterations.
        let c = ArrayRef::new("C", vec![var("i")]);
        let loops = bounds(&[("i", 0, 10), ("k", 0, 10)]);
        let src = AccessContext {
            array_ref: &c,
            loops: &loops,
        };
        let dst = AccessContext {
            array_ref: &c,
            loops: &loops,
        };
        let common = [Var::new("i"), Var::new("k")];
        assert!(may_depend(
            &src,
            &dst,
            &common,
            &[Direction::Eq, Direction::Lt],
            &params()
        ));
        assert!(!may_depend(
            &src,
            &dst,
            &common,
            &[Direction::Lt, Direction::Eq],
            &params()
        ));
    }

    #[test]
    fn different_arrays_never_depend() {
        let a = ArrayRef::new("A", vec![var("i")]);
        let b = ArrayRef::new("B", vec![var("i")]);
        let loops = bounds(&[("i", 0, 10)]);
        let src = AccessContext {
            array_ref: &a,
            loops: &loops,
        };
        let dst = AccessContext {
            array_ref: &b,
            loops: &loops,
        };
        assert!(!may_depend(
            &src,
            &dst,
            &[Var::new("i")],
            &[Direction::Any],
            &params()
        ));
    }

    #[test]
    fn uncommon_loops_are_existential() {
        // src: A[k] inside loop k (0..10); dst: A[j] inside loop j (20..30).
        // The ranges of the subscripts are disjoint, so no dependence.
        let a = ArrayRef::new("A", vec![var("k")]);
        let b = ArrayRef::new("A", vec![var("j")]);
        let src_loops = bounds(&[("k", 0, 10)]);
        let dst_loops = bounds(&[("j", 20, 30)]);
        let src = AccessContext {
            array_ref: &a,
            loops: &src_loops,
        };
        let dst = AccessContext {
            array_ref: &b,
            loops: &dst_loops,
        };
        assert!(!may_depend(&src, &dst, &[], &[], &params()));
        // Overlapping ranges do depend.
        let dst_loops2 = bounds(&[("j", 5, 30)]);
        let dst2 = AccessContext {
            array_ref: &b,
            loops: &dst_loops2,
        };
        assert!(may_depend(&src, &dst2, &[], &[], &params()));
    }

    #[test]
    fn parameters_are_substituted() {
        // A[i + N] vs A[i] with N = 100 and i in [0, 50): disjoint.
        let shifted = ArrayRef::new("A", vec![var("i") + var("N")]);
        let plain = ArrayRef::new("A", vec![var("i")]);
        let loops = bounds(&[("i", 0, 50)]);
        let src = AccessContext {
            array_ref: &shifted,
            loops: &loops,
        };
        let dst = AccessContext {
            array_ref: &plain,
            loops: &loops,
        };
        let mut p = BTreeMap::new();
        p.insert(Var::new("N"), 100);
        assert!(!may_depend(
            &src,
            &dst,
            &[Var::new("i")],
            &[Direction::Any],
            &p
        ));
        // Without a binding the parameter is unbounded, so be conservative.
        assert!(may_depend(
            &src,
            &dst,
            &[Var::new("i")],
            &[Direction::Any],
            &params()
        ));
    }

    #[test]
    fn non_affine_subscript_is_conservative() {
        let nonaffine = ArrayRef::new("A", vec![var("i") * var("i")]);
        let plain = ArrayRef::new("A", vec![var("i")]);
        let loops = bounds(&[("i", 0, 10)]);
        let src = AccessContext {
            array_ref: &nonaffine,
            loops: &loops,
        };
        let dst = AccessContext {
            array_ref: &plain,
            loops: &loops,
        };
        assert!(may_depend(
            &src,
            &dst,
            &[Var::new("i")],
            &[Direction::Lt],
            &params()
        ));
    }

    #[test]
    fn degenerate_subscripts_are_tested_as_the_reference_tests_them() {
        // PR 13's list: production called these non-affine ("may depend")
        // while the reference simplified them.
        let ij = || var("i") * var("j");
        let loops = bounds(&[("i", 0, 10), ("j", 0, 10)]);
        let common = [Var::new("i"), Var::new("j")];
        let next = ArrayRef::new("A", vec![var("i") + cst(1)]);
        let directions = [Direction::Eq, Direction::Lt, Direction::Gt, Direction::Any];
        for degenerate in [
            cst(0) * ij() + var("i"),
            ij() - ij() + var("i"),
            Expr::Div(Box::new(var("i")), Box::new(cst(1))),
        ] {
            let r = ArrayRef::new("A", vec![degenerate]);
            let src = AccessContext {
                array_ref: &r,
                loops: &loops,
            };
            let dst = AccessContext {
                array_ref: &next,
                loops: &loops,
            };
            for outer in directions {
                for inner in directions {
                    assert_eq!(
                        may_depend(&src, &dst, &common, &[outer, inner], &params()),
                        crate::reference::may_depend(
                            &src,
                            &dst,
                            &common,
                            &[outer, inner],
                            &params()
                        ),
                        "{r} vs {next} under ({outer:?}, {inner:?})"
                    );
                }
            }
            // A[i] and A[i + 1] never meet in one iteration of `i`.
            let same_i = [Direction::Eq, Direction::Any];
            assert!(!may_depend(&src, &dst, &common, &same_i, &params()), "{r}");
        }
    }

    #[test]
    fn single_trip_loop_cannot_carry() {
        let r = ArrayRef::new("A", vec![cst(0)]);
        let loops = bounds(&[("i", 0, 1)]);
        let src = AccessContext {
            array_ref: &r,
            loops: &loops,
        };
        let dst = AccessContext {
            array_ref: &r,
            loops: &loops,
        };
        assert!(!may_depend(
            &src,
            &dst,
            &[Var::new("i")],
            &[Direction::Lt],
            &params()
        ));
        assert!(may_depend(
            &src,
            &dst,
            &[Var::new("i")],
            &[Direction::Eq],
            &params()
        ));
    }

    #[test]
    fn coefficients_whose_difference_leaves_i64_are_conservative() {
        // (MAX - -2) does not fit: nothing is concluded, in any build mode.
        let a = ArrayRef::new("A", vec![var("i") * cst(i64::MAX)]);
        let b = ArrayRef::new("A", vec![var("i") * cst(-2) + cst(1)]);
        let loops = bounds(&[("i", 0, 4)]);
        let src = AccessContext {
            array_ref: &a,
            loops: &loops,
        };
        let dst = AccessContext {
            array_ref: &b,
            loops: &loops,
        };
        assert!(may_depend(
            &src,
            &dst,
            &[Var::new("i")],
            &[Direction::Eq],
            &params()
        ));
    }

    #[test]
    fn a_common_entry_enclosing_one_side_only_constrains_nothing() {
        // `k` encloses the source only: its `<` is dropped, and the source's
        // `k` stays an unknown of its own over 20..30, away from j in 0..10.
        let a = ArrayRef::new("A", vec![var("k")]);
        let b = ArrayRef::new("A", vec![var("j")]);
        let src_loops = bounds(&[("k", 20, 30)]);
        let dst_loops = bounds(&[("j", 0, 10)]);
        let src = AccessContext {
            array_ref: &a,
            loops: &src_loops,
        };
        let dst = AccessContext {
            array_ref: &b,
            loops: &dst_loops,
        };
        let common = [Var::new("k")];
        assert!(!may_depend(
            &src,
            &dst,
            &common,
            &[Direction::Lt],
            &params()
        ));
        let overlapping = bounds(&[("j", 0, 25)]);
        let dst = AccessContext {
            array_ref: &b,
            loops: &overlapping,
        };
        assert!(may_depend(&src, &dst, &common, &[Direction::Lt], &params()));
    }

    #[test]
    fn a_relaxed_level_contains_each_of_its_refinements() {
        // A[2i] -> A[2i + 3]: odd distance, refuted by the GCD at every
        // level choice and already by the relaxed prefix.
        let a = ArrayRef::new("A", vec![var("i") * cst(2)]);
        let b = ArrayRef::new("A", vec![var("i") * cst(2) + cst(3)]);
        let loops = bounds(&[("i", 0, 10)]);
        // A[2i] -> A[2i + 4] survives relaxed and as `>` only.
        let c = ArrayRef::new("A", vec![var("i") * cst(2) + cst(4)]);
        let no_params = params();
        let mut table = SubscriptTable::default();
        let [src, dst, far] = [&a, &b, &c].map(|r| table.lower(r, &loops, &no_params));
        let mut pairing = LoopPairing::default();
        pairing.pair(&loops, &loops, &[Var::new("i")]);
        let pair = |dst| Pair {
            src: table.get(src),
            src_loops: &loops,
            dst: table.get(dst),
            dst_loops: &loops,
            pairing: &pairing,
        };
        assert!(!pair(dst).may_depend(&[Direction::Any]));
        assert!(pair(far).may_depend(&[Direction::Any]));
        assert!(!pair(far).may_depend(&[Direction::Eq]));
        assert!(!pair(far).may_depend(&[Direction::Lt]));
        assert!(pair(far).may_depend(&[Direction::Gt]));
    }

    #[test]
    fn both_iterations_stay_inside_their_own_bounds() {
        // A[5 - i] against A[i], i in 3..6: the source touches A[0..=2], the
        // destination A[3..=5]. A destination iteration left free of its
        // bounds (d = s ± δ) met the source one way round, not the other.
        let reversed = ArrayRef::new("A", vec![cst(5) - var("i")]);
        let plain = ArrayRef::new("A", vec![var("i")]);
        // Both ways round under `direction`: reversed -> plain, then
        // plain -> reversed with the vector reversed.
        let both_ways = |loops: &[LoopBound], direction| {
            let (r, p) = (
                AccessContext {
                    array_ref: &reversed,
                    loops,
                },
                AccessContext {
                    array_ref: &plain,
                    loops,
                },
            );
            let i = [Var::new("i")];
            let backwards = [crate::graph::reverse(direction)];
            (
                may_depend(&r, &p, &i, &[direction], &params()),
                may_depend(&p, &r, &i, &backwards, &params()),
            )
        };
        let loops = bounds(&[("i", 3, 6)]);
        for direction in [Direction::Eq, Direction::Lt, Direction::Gt, Direction::Any] {
            assert_eq!(
                both_ways(&loops, direction),
                (false, false),
                "{direction:?}"
            );
        }
        // With i in 2..6 they meet at A[3] (s = 2, d = 3) and A[2] (s = 3,
        // d = 2): `<` and `>` one way, `>` and `<` the other, never `=`.
        let wider = bounds(&[("i", 2, 6)]);
        for (direction, meets) in [
            (Direction::Eq, false),
            (Direction::Lt, true),
            (Direction::Gt, true),
        ] {
            assert_eq!(
                both_ways(&wider, direction),
                (meets, meets),
                "{direction:?}"
            );
        }
    }

    #[test]
    fn a_polygon_with_no_pair_of_iterations_refutes_whatever_the_subscripts() {
        // One subscript not affine, the other constant: nothing else refutes.
        let square = ArrayRef::new("A", vec![var("i") * var("i")]);
        let zero = ArrayRef::new("A", vec![cst(0)]);
        let (src_loops, dst_loops) = (bounds(&[("i", 0, 4)]), bounds(&[("i", 6, 9)]));
        let src = AccessContext {
            array_ref: &square,
            loops: &src_loops,
        };
        let dst = AccessContext {
            array_ref: &zero,
            loops: &dst_loops,
        };
        let i = [Var::new("i")];
        // d − s is at least 3: never equal, never backwards.
        assert!(!may_depend(&src, &dst, &i, &[Direction::Eq], &params()));
        assert!(!may_depend(&src, &dst, &i, &[Direction::Gt], &params()));
        assert!(may_depend(&src, &dst, &i, &[Direction::Lt], &params()));
        // A zero-trip loop on one side has no iterations at all.
        let empty = bounds(&[("i", 4, 4)]);
        let dst = AccessContext {
            array_ref: &zero,
            loops: &empty,
        };
        assert!(!may_depend(&src, &dst, &i, &[Direction::Any], &params()));
    }
}
