//! The naive dependence analysis the production path is checked against:
//! every access pair of every computation pair, all `3ⁿ` direction vectors
//! materialised, each tested on a freshly built system of string-named
//! variables and [`AffineExpr`] arithmetic. A common loop under `=` is one
//! variable inside both loops' bounds; under `<`, `>` or `*` it is a source
//! and a destination variable tied by their distance, each inside its own
//! loop's bounds, and the extremes of a tie are found along the destination
//! iteration — not at the production tester's polygon vertices.
//!
//! Compiled for this crate's tests and behind the `test-support` feature
//! (the `fuzz` oracle); nothing on a production call path names it. It is
//! unchecked arithmetic throughout: feed it sane programs only.

use std::collections::BTreeMap;
use std::sync::Arc;

use loop_ir::array::Access;
use loop_ir::expr::{AffineExpr, Var};
use loop_ir::nest::Computation;
use loop_ir::program::Program;
use loop_ir::visit::CompContext;

use crate::graph::{common_iterators, loop_bound, make_dep, reverse, DependenceGraph};
use crate::tester::{AccessContext, LoopBound};
use crate::types::{Dependence, Direction};

/// A symbolic variable of the dependence system with its inclusive range.
#[derive(Clone, Debug)]
struct BoxVar {
    name: Var,
    min: i64,
    max: i64,
}

/// A common loop under `<`, `>` or `*`: the source iteration `s` and the
/// destination iteration `d` are variables of their own, each inside its
/// own loop's bounds, tied by `d − s ∈ [min_distance, max_distance]`
/// (`None`: unbounded on that side).
#[derive(Clone, Debug)]
struct Tie {
    s: BoxVar,
    d: BoxVar,
    min_distance: Option<i64>,
    max_distance: Option<i64>,
}

impl Tie {
    /// The source partners of destination iteration `d`:
    /// `s ∈ [max(sl, d − max_distance), min(sh, d − min_distance)]`.
    fn partners(&self, d: i128) -> (i128, i128) {
        let (sl, sh) = (i128::from(self.s.min), i128::from(self.s.max));
        let lo = self.max_distance.map_or(sl, |m| sl.max(d - i128::from(m)));
        let hi = self.min_distance.map_or(sh, |m| sh.min(d - i128::from(m)));
        (lo, hi)
    }

    /// The destination iterations that have a partner: `d ∈ D` with
    /// `sl + min_distance ≤ d ≤ sh + max_distance`.
    fn destinations(&self) -> (i128, i128) {
        let (sl, sh) = (i128::from(self.s.min), i128::from(self.s.max));
        if sl > sh {
            return (1, 0);
        }
        let (dl, dh) = (i128::from(self.d.min), i128::from(self.d.max));
        let lo = self.min_distance.map_or(dl, |m| dl.max(sl + i128::from(m)));
        let hi = self.max_distance.map_or(dh, |m| dh.min(sh + i128::from(m)));
        (lo, hi)
    }

    /// The least and greatest value of `a·s + b·d` over the tied pairs,
    /// walking `d` through its range. For one `d`, `a·s` is extreme at an
    /// end of the partners; as `d` moves those ends move with it, until a
    /// bound of `s` stops them — at `d = sl + max_distance` or
    /// `d = sh + min_distance`. Between those points the extremes are linear
    /// in `d`, so the ends of the range and those points are the only
    /// candidates.
    fn range(&self, a: i128, b: i128) -> (i128, i128) {
        let (first, last) = self.destinations();
        let (sl, sh) = (i128::from(self.s.min), i128::from(self.s.max));
        let turns = [
            self.max_distance.map(|m| sl + i128::from(m)),
            self.min_distance.map(|m| sh + i128::from(m)),
        ];
        let values: Vec<i128> = [first, last]
            .into_iter()
            .chain(turns.into_iter().flatten())
            .filter(|d| (first..=last).contains(d))
            .flat_map(|d| {
                let (lo, hi) = self.partners(d);
                [a * lo + b * d, a * hi + b * d]
            })
            .collect();
        (
            *values.iter().min().expect("a tie has destinations"),
            *values.iter().max().expect("a tie has destinations"),
        )
    }
}

/// The unknowns of one test: loops of one side and common loops under `=`
/// as boxes, the other common loops as ties.
#[derive(Default)]
struct System {
    boxes: Vec<BoxVar>,
    ties: Vec<Tie>,
}

/// [`crate::tester::may_depend`] without its dense rows, its polygon
/// vertices or its closed form: the same question asked of a symbolic
/// system, each tie parametrised by its destination iteration.
pub fn may_depend(
    src: &AccessContext<'_>,
    dst: &AccessContext<'_>,
    common: &[Var],
    directions: &[Direction],
    params: &BTreeMap<Var, i64>,
) -> bool {
    debug_assert_eq!(common.len(), directions.len());
    if src.array_ref.array != dst.array_ref.array || src.array_ref.rank() != dst.array_ref.rank() {
        return false;
    }
    let inclusive = |side: &str, bound: &LoopBound| BoxVar {
        name: Var::new(format!("{side}${}", bound.iter)),
        min: bound.lower,
        max: bound.upper - 1,
    };
    let find = |loops: &[LoopBound], iter: &Var| loops.iter().find(|b| &b.iter == iter).cloned();

    // Build the variable space and the substitutions applied to the
    // source-side / destination-side subscripts.
    let mut system = System::default();
    let mut src_subst: BTreeMap<Var, AffineExpr> = BTreeMap::new();
    let mut dst_subst: BTreeMap<Var, AffineExpr> = BTreeMap::new();
    let mut shared = Vec::new();
    for (iter, dir) in common.iter().zip(directions) {
        let (Some(sb), Some(db)) = (find(src.loops, iter), find(dst.loops, iter)) else {
            continue;
        };
        shared.push(iter.clone());
        let (s, d) = (inclusive("s", &sb), inclusive("d", &db));
        let (min_distance, max_distance) = match dir {
            // The same iteration, inside both loops' bounds: one variable.
            Direction::Eq => {
                let same = BoxVar {
                    min: s.min.max(d.min),
                    max: s.max.min(d.max),
                    ..d
                };
                if same.min > same.max {
                    return false;
                }
                src_subst.insert(iter.clone(), AffineExpr::var(same.name.clone()));
                dst_subst.insert(iter.clone(), AffineExpr::var(same.name.clone()));
                system.boxes.push(same);
                continue;
            }
            Direction::Lt => (Some(1), None),
            Direction::Gt => (None, Some(-1)),
            Direction::Any => (None, None),
        };
        src_subst.insert(iter.clone(), AffineExpr::var(s.name.clone()));
        dst_subst.insert(iter.clone(), AffineExpr::var(d.name.clone()));
        let tie = Tie {
            s,
            d,
            min_distance,
            max_distance,
        };
        let (first, last) = tie.destinations();
        if first > last {
            return false;
        }
        system.ties.push(tie);
    }
    for (side, loops, subst) in [
        ("s", src.loops, &mut src_subst),
        ("d", dst.loops, &mut dst_subst),
    ] {
        for bound in loops.iter().filter(|b| !shared.contains(&b.iter)) {
            let v = inclusive(side, bound);
            subst.insert(bound.iter.clone(), AffineExpr::var(v.name.clone()));
            system.boxes.push(v);
        }
    }

    let (Some(src_idx), Some(dst_idx)) = (
        src.array_ref.affine_indices_with(params),
        dst.array_ref.affine_indices_with(params),
    ) else {
        // Non-affine subscripts: assume the dependence exists.
        return true;
    };
    // Per-dimension equation: rewrite(src subscript) - rewrite(dst subscript) = 0.
    for (sdim, ddim) in src_idx.iter().zip(&dst_idx) {
        let diff = rewrite(sdim, &src_subst) - rewrite(ddim, &dst_subst);
        if !equation_may_have_solution(&diff, &system) {
            return false;
        }
    }
    true
}

/// Substitutes the iterators of a parameter-folded subscript with their
/// renamed forms; any other symbol stays, an unbounded unknown.
fn rewrite(subscript: &AffineExpr, subst: &BTreeMap<Var, AffineExpr>) -> AffineExpr {
    let mut out = AffineExpr::constant(subscript.constant_part());
    for (v, c) in subscript.terms() {
        let replacement = subst
            .get(v)
            .cloned()
            .unwrap_or_else(|| AffineExpr::var(v.clone()));
        out = out + replacement.scaled(c);
    }
    out
}

/// GCD test plus interval (Banerjee) test: does `expr = 0` possibly have an
/// integer solution with every variable inside its box or tie?
fn equation_may_have_solution(expr: &AffineExpr, system: &System) -> bool {
    let constant = expr.constant_part();
    let coefficients: BTreeMap<Var, i64> = expr.terms().map(|(v, c)| (v.clone(), c)).collect();
    if coefficients.is_empty() {
        return constant == 0;
    }

    let gcd = coefficients
        .values()
        .map(|c| c.unsigned_abs())
        .fold(0u64, gcd_u64);
    if gcd != 0 && !constant.unsigned_abs().is_multiple_of(gcd) {
        return false;
    }

    // Interval test: min/max of the expression over the system must
    // straddle 0.
    let mut min = constant as i128;
    let mut max = constant as i128;
    let coefficient = |v: &Var| coefficients.get(v).copied().unwrap_or(0) as i128;
    for tie in &system.ties {
        let (lo, hi) = tie.range(coefficient(&tie.s.name), coefficient(&tie.d.name));
        min += lo;
        max += hi;
    }
    let tied = |v: &Var| system.ties.iter().any(|t| &t.s.name == v || &t.d.name == v);
    for (v, c) in coefficients.iter().filter(|(v, _)| !tied(v)) {
        let (lo, hi) = system
            .boxes
            .iter()
            .find(|b| &b.name == v)
            .map(|b| (b.min as i128, b.max as i128))
            // Unknown symbols (unbound parameters) are unbounded.
            .unwrap_or((i64::MIN as i128 / 4, i64::MAX as i128 / 4));
        if lo > hi {
            return false;
        }
        let c = *c as i128;
        if c >= 0 {
            min += c * lo;
            max += c * hi;
        } else {
            min += c * hi;
            max += c * lo;
        }
    }
    min <= 0 && 0 <= max
}

fn gcd_u64(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd_u64(b, a % b)
    }
}

/// [`crate::analyze`] by flat enumeration over [`may_depend`].
pub fn analyze(program: &Program) -> DependenceGraph {
    let contexts = program.computation_contexts();
    let loop_bounds: Vec<Vec<LoopBound>> = contexts
        .iter()
        .map(|ctx| {
            ctx.loops
                .iter()
                .map(|l| loop_bound(l, &program.params))
                .collect()
        })
        .collect();
    let mut graph = DependenceGraph::default();
    for (i, src_ctx) in contexts.iter().enumerate() {
        for (j, dst_ctx) in contexts.iter().enumerate().skip(i) {
            analyze_pair(
                program,
                (src_ctx, &loop_bounds[i]),
                (dst_ctx, &loop_bounds[j]),
                i == j,
                &mut graph.deps,
            );
        }
    }
    graph
}

fn analyze_pair(
    program: &Program,
    (src_ctx, src_bounds): (&CompContext<'_>, &[LoopBound]),
    (dst_ctx, dst_bounds): (&CompContext<'_>, &[LoopBound]),
    is_self: bool,
    out: &mut Vec<Dependence>,
) {
    let common: Arc<[Var]> = common_iterators(src_bounds, dst_bounds).cloned().collect();
    let (src_id, dst_id) = (src_ctx.computation.id, dst_ctx.computation.id);
    fn accesses(c: &Computation) -> Vec<Access<'_>> {
        let mut out = Vec::new();
        c.for_each_access(|a| out.push(a));
        out
    }
    let (src_accesses, dst_accesses) =
        (accesses(src_ctx.computation), accesses(dst_ctx.computation));
    for sa in &src_accesses {
        for da in &dst_accesses {
            if sa.array_ref.array != da.array_ref.array || !(sa.is_write() || da.is_write()) {
                continue;
            }
            for directions in direction_vectors(common.len()) {
                // Skip the degenerate self pair in the same iteration: it is
                // the statement's own read-modify-write, not an ordering
                // constraint.
                if is_self && directions.iter().all(|d| *d == Direction::Eq) {
                    continue;
                }
                let negative =
                    directions.iter().find(|d| **d != Direction::Eq) == Some(&Direction::Gt);
                if negative && is_self {
                    // For a self pair the reversed vector is enumerated
                    // anyway; skip duplicates.
                    continue;
                }
                let src_acc = AccessContext {
                    array_ref: sa.array_ref,
                    loops: src_bounds,
                };
                let dst_acc = AccessContext {
                    array_ref: da.array_ref,
                    loops: dst_bounds,
                };
                if !may_depend(&src_acc, &dst_acc, &common, &directions, &program.params) {
                    continue;
                }
                out.push(if negative {
                    // The dependence actually flows from dst to src with
                    // the reversed direction vector.
                    let reversed = directions.iter().map(|d| reverse(*d)).collect();
                    make_dep(dst_id, src_id, *da, *sa, common.clone(), reversed)
                } else {
                    make_dep(src_id, dst_id, *sa, *da, common.clone(), directions)
                });
            }
        }
    }
}

/// Enumerates all direction vectors over `n` common loops.
pub fn direction_vectors(n: usize) -> Vec<Vec<Direction>> {
    let mut out = vec![Vec::new()];
    for _ in 0..n {
        let mut next = Vec::with_capacity(out.len() * 3);
        for prefix in &out {
            for d in [Direction::Eq, Direction::Lt, Direction::Gt] {
                let mut v = prefix.clone();
                v.push(d);
                next.push(v);
            }
        }
        out = next;
    }
    out
}
