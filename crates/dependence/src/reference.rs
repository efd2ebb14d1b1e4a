//! The naive dependence analysis the production path is checked against:
//! every access pair of every computation pair, all `3ⁿ` direction vectors
//! materialised, each tested on a freshly built system of string-named
//! variables and [`AffineExpr`] arithmetic.
//!
//! Compiled for this crate's tests and behind the `test-support` feature
//! (the `fuzz` oracle); nothing on a production call path names it. It is
//! unchecked arithmetic throughout: feed it sane programs only.

use std::collections::BTreeMap;

use loop_ir::expr::{AffineExpr, Var};
use loop_ir::program::Program;
use loop_ir::visit::CompContext;

use crate::graph::{common_loops, loop_bounds, make_dep, reverse, DependenceGraph};
use crate::tester::{AccessContext, LoopBound};
use crate::types::{Dependence, Direction};

/// A symbolic variable of the dependence system with its inclusive range.
#[derive(Clone, Debug)]
struct BoxVar {
    name: Var,
    min: i64,
    max: i64,
}

fn extent(bound: &LoopBound) -> i64 {
    (bound.upper - bound.lower).max(0)
}

/// [`crate::tester::may_depend`] as it was before the dense-row kernel.
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
    let (Some(src_idx), Some(dst_idx)) = (
        src.array_ref.affine_indices_with(params),
        dst.array_ref.affine_indices_with(params),
    ) else {
        // Non-affine subscripts: assume the dependence exists.
        return true;
    };

    // Build the variable space: source iterators `s$name`, destination
    // iterators `d$name`, and per-direction distance variables `delta$name`.
    let mut vars: Vec<BoxVar> = Vec::new();
    // substitutions applied to source-side / destination-side subscripts.
    let mut src_subst: BTreeMap<Var, AffineExpr> = BTreeMap::new();
    let mut dst_subst: BTreeMap<Var, AffineExpr> = BTreeMap::new();

    for bound in src.loops {
        if !common.contains(&bound.iter) {
            let name = Var::new(format!("s${}", bound.iter));
            vars.push(BoxVar {
                name: name.clone(),
                min: bound.lower,
                max: bound.upper - 1,
            });
            src_subst.insert(bound.iter.clone(), AffineExpr::var(name));
        }
    }
    for bound in dst.loops {
        if !common.contains(&bound.iter) {
            let name = Var::new(format!("d${}", bound.iter));
            vars.push(BoxVar {
                name: name.clone(),
                min: bound.lower,
                max: bound.upper - 1,
            });
            dst_subst.insert(bound.iter.clone(), AffineExpr::var(name));
        }
    }

    for (iter, dir) in common.iter().zip(directions) {
        let src_bound = src.loops.iter().find(|b| &b.iter == iter);
        let dst_bound = dst.loops.iter().find(|b| &b.iter == iter);
        let (Some(sb), Some(db)) = (src_bound, dst_bound) else {
            continue;
        };
        let base = Var::new(format!("s${}", iter));
        vars.push(BoxVar {
            name: base.clone(),
            min: sb.lower,
            max: sb.upper - 1,
        });
        src_subst.insert(iter.clone(), AffineExpr::var(base.clone()));
        match dir {
            Direction::Eq => {
                dst_subst.insert(iter.clone(), AffineExpr::var(base));
            }
            Direction::Lt | Direction::Gt => {
                // dst iteration strictly later (earlier): d = s ± delta,
                // delta >= 1.
                let extent = extent(sb).max(extent(db));
                if extent <= 1 {
                    return false;
                }
                let delta = Var::new(format!("delta${}", iter));
                vars.push(BoxVar {
                    name: delta.clone(),
                    min: 1,
                    max: extent - 1,
                });
                let (base, delta) = (AffineExpr::var(base), AffineExpr::var(delta));
                let shifted = if *dir == Direction::Lt {
                    base + delta
                } else {
                    base - delta
                };
                dst_subst.insert(iter.clone(), shifted);
            }
            Direction::Any => {
                let name = Var::new(format!("d${}", iter));
                vars.push(BoxVar {
                    name: name.clone(),
                    min: db.lower,
                    max: db.upper - 1,
                });
                dst_subst.insert(iter.clone(), AffineExpr::var(name));
            }
        }
    }

    // Per-dimension equation: rewrite(src subscript) - rewrite(dst subscript) = 0.
    for (sdim, ddim) in src_idx.iter().zip(&dst_idx) {
        let diff = rewrite(sdim, &src_subst) - rewrite(ddim, &dst_subst);
        if !equation_may_have_solution(&diff, &vars) {
            return false;
        }
    }
    true
}

/// Substitutes the iterators of a parameter-folded subscript with their
/// renamed/shifted forms; any other symbol stays, an unbounded unknown.
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
/// integer solution with every variable inside its box?
fn equation_may_have_solution(expr: &AffineExpr, vars: &[BoxVar]) -> bool {
    let constant = expr.constant_part();
    let coefficients: Vec<(Var, i64)> = expr.terms().map(|(v, c)| (v.clone(), c)).collect();
    if coefficients.is_empty() {
        return constant == 0;
    }

    let gcd = coefficients
        .iter()
        .map(|(_, c)| c.unsigned_abs())
        .fold(0u64, gcd_u64);
    if gcd != 0 && !constant.unsigned_abs().is_multiple_of(gcd) {
        return false;
    }

    // Interval test: min/max of the expression over the box must straddle 0.
    let mut min = constant as i128;
    let mut max = constant as i128;
    for (v, c) in &coefficients {
        let (lo, hi) = vars
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
        .map(|ctx| loop_bounds(ctx, &program.params))
        .collect();
    let mut graph = DependenceGraph {
        deps: Vec::new(),
        order: contexts.iter().map(|c| c.computation.id).collect(),
    };
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
    let common = common_loops(src_bounds, dst_bounds);
    let (src_id, dst_id) = (src_ctx.computation.id, dst_ctx.computation.id);
    for sa in &src_ctx.computation.accesses() {
        for da in &dst_ctx.computation.accesses() {
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
                    make_dep(dst_id, src_id, *da, *sa, &common, reversed)
                } else {
                    make_dep(src_id, dst_id, *sa, *da, &common, directions)
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
