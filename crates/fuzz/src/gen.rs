//! Seeded, deterministic generator of arbitrary legal affine programs.
//!
//! Every program this module emits is valid by construction — it passes
//! [`Program::validate`], round-trips through the textual frontend
//! ([`loop_ir::source::to_source`]), and executes without out-of-bounds
//! accesses, because subscripts are drawn from a menu whose numeric range
//! is known at generation time and array extents are sized to cover it.
//! Within that envelope the generator deliberately covers the shapes the
//! run-compression and lowering fast paths must not get wrong: imperfect
//! nests (statements between loop levels), parametric and triangular
//! bounds, zero-trip domains, strided domains, negative strides (reversal
//! subscripts), super-line strides (scaled subscripts), stencil-staggered
//! accesses (`A[i + k]` families sharing one array), scalar reductions onto
//! rank-1 accumulators, loop-invariant accesses and multi-statement bodies
//! chained through earlier statements' outputs.

use std::collections::BTreeMap;

use loop_ir::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Size and shape envelope of generated programs.
#[derive(Debug, Clone)]
pub struct GenConfig {
    /// Maximum number of top-level loop nests (at least 1).
    pub max_nests: usize,
    /// Maximum loop depth per nest (at least 1).
    pub max_depth: usize,
    /// Maximum statements directly inside one loop body.
    pub max_stmts: usize,
    /// Inclusive upper bound for the size parameter `N` (at least 4).
    pub max_extent: i64,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            max_nests: 3,
            max_depth: 3,
            max_stmts: 3,
            max_extent: 10,
        }
    }
}

/// One iterator in scope during generation, with the largest value it can
/// attain (bounds are numeric under the program's parameter bindings, so
/// this is exact; zero-trip loops conservatively report `lower`).
#[derive(Debug, Clone)]
struct ScopeIter {
    name: String,
    max_value: i64,
}

/// The menu entry chosen for one subscript dimension: the expression plus
/// the exclusive extent it needs the array dimension to have.
struct Subscript {
    expr: Expr,
    extent: i64,
}

struct Gen {
    rng: StdRng,
    n: i64,
    arrays: BTreeMap<String, Vec<i64>>,
    /// Arrays already written by an earlier statement — candidates for
    /// chained reads (the dependences normalization must respect).
    written: Vec<String>,
    next_array: usize,
    next_stmt: usize,
    next_iter: usize,
    has_scalar_param: bool,
}

/// Generates the deterministic program for `seed` within `config`'s
/// envelope. Equal seeds and configs yield identical programs.
pub fn generate(seed: u64, config: &GenConfig) -> Program {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(4..config.max_extent.max(4) + 1);
    let mut g = Gen {
        rng,
        n,
        arrays: BTreeMap::new(),
        written: Vec::new(),
        next_array: 0,
        next_stmt: 0,
        next_iter: 0,
        has_scalar_param: false,
    };

    let nests = g.rng.gen_range(1..config.max_nests.max(1) + 1);
    let mut body = Vec::new();
    for _ in 0..nests {
        let depth = g.rng.gen_range(1..config.max_depth.max(1) + 1);
        let node = g.gen_nest(depth, config, &mut Vec::new());
        body.push(node);
    }
    // A program whose every loop is zero-trip is legal but dull; ensure at
    // least one statement executes by appending a scalar-only statement at
    // top level some of the time, and always when nothing else could run.
    if body.iter().all(|n| !matches!(n, Node::Computation(_))) && g.rng.gen_bool(0.3) {
        let stmt = g.gen_statement(&[]);
        body.push(stmt);
    }

    let mut builder = Program::builder(format!("fuzz_{seed:016x}")).param("N", g.n);
    if g.has_scalar_param {
        builder = builder.scalar("alpha", 1.5);
    }
    let arrays: Vec<(String, Vec<i64>)> = g
        .arrays
        .iter()
        .map(|(n, e)| (n.clone(), e.clone()))
        .collect();
    for (name, extents) in arrays {
        let dims = extents.iter().map(|&e| g.extent_expr(e)).collect();
        builder = builder.array_with_dims(name.as_str(), dims);
    }
    for node in body {
        builder = builder.node(node);
    }
    builder
        .build()
        .expect("generated programs are valid by construction")
}

impl Gen {
    /// Generates one loop nest of at most `depth` levels. `scope` carries
    /// the enclosing iterators; statements may appear before and after the
    /// inner loop (imperfect nests).
    fn gen_nest(&mut self, depth: usize, config: &GenConfig, scope: &mut Vec<ScopeIter>) -> Node {
        if depth == 0 {
            return self.gen_statement(scope);
        }
        let iter = format!("i{}", self.next_iter);
        self.next_iter += 1;
        let (lower, upper, step, max_value) = self.gen_bounds(scope);

        scope.push(ScopeIter {
            name: iter.clone(),
            max_value,
        });
        let mut body = Vec::new();
        let stmts = self.rng.gen_range(1..config.max_stmts.max(1) + 1);
        let inner_at = if depth > 1 {
            Some(self.rng.gen_range(0..stmts + 1))
        } else {
            None
        };
        for s in 0..=stmts {
            if Some(s) == inner_at {
                let inner = self.gen_nest(depth - 1, config, scope);
                body.push(inner);
            }
            if s < stmts {
                let stmt = self.gen_statement(scope);
                body.push(stmt);
            }
        }
        scope.pop();

        let mut l = match for_loop(iter.as_str(), lower, upper, body) {
            Node::Loop(l) => l,
            _ => unreachable!("for_loop builds a loop node"),
        };
        l.step = step;
        Node::Loop(l)
    }

    /// Draws loop bounds from the menu: parametric `0..N`, constant,
    /// possibly zero-trip constant-to-parametric, and triangular bounds in
    /// either direction off an enclosing iterator. Returns the bounds, the
    /// step and the largest value the iterator can attain.
    fn gen_bounds(&mut self, scope: &[ScopeIter]) -> (Expr, Expr, i64, i64) {
        let step = *[1, 1, 1, 2, 3].choose(&mut self.rng);
        let n = self.n;
        // Largest attained value for a *fixed* lower bound: the last
        // in-domain multiple of `step`; an empty domain conservatively
        // reports `lo` so subscript extents stay safe.
        let last = |lo: i64, hi: i64| {
            if hi > lo {
                lo + (hi - 1 - lo) / step * step
            } else {
                lo
            }
        };
        let outer = scope.choose_cloned(&mut self.rng);
        let (lower, upper, max_value) = match (self.rng.gen_range(0..6u32), outer) {
            // Triangular: outer..N (lower triangle). The lower bound varies
            // per outer iteration, so any value up to N - 1 is attainable
            // regardless of the step.
            (0, Some(o)) => (var(o.name.as_str()), var("N"), n - 1),
            // Triangular: 0..outer + 1 (upper bound tracks the outer iterator).
            (1, Some(o)) => (
                cst(0),
                var(o.name.as_str()) + cst(1),
                last(0, o.max_value + 1),
            ),
            // Constant domain, possibly empty.
            (2, _) => {
                let lo = self.rng.gen_range(0..n);
                let hi = self.rng.gen_range(0..n + 1);
                (cst(lo), cst(hi), last(lo, hi))
            }
            // Constant lower edge into the parametric extent.
            (3, _) => {
                let lo = self.rng.gen_range(1..n);
                (cst(lo), var("N"), last(lo, n))
            }
            // The plain parametric domain, weighted heaviest.
            _ => (cst(0), var("N"), last(0, n)),
        };
        (lower, upper, step, max_value)
    }

    /// Generates one computation statement whose accesses are in bounds by
    /// construction for the iterators in `scope`.
    fn gen_statement(&mut self, scope: &[ScopeIter]) -> Node {
        let name = format!("S{}", self.next_stmt);
        self.next_stmt += 1;

        // Scalar reduction onto a rank-1 accumulator, plain reduction onto
        // an indexed target, or a plain assignment.
        let kind = self.rng.gen_range(0..10u32);
        let reduction = match kind {
            0..=2 if !scope.is_empty() => {
                Some(*[BinOp::Add, BinOp::Add, BinOp::Mul].choose(&mut self.rng))
            }
            _ => None,
        };
        let scalar_target = reduction.is_some() && self.rng.gen_bool(0.4);

        let target = if scalar_target {
            // A scalar reduction: every iteration accumulates into one cell.
            let array = self.fresh_array(vec![1]);
            ArrayRef::new(array, vec![cst(0)])
        } else {
            let rank = if scope.is_empty() {
                1
            } else {
                self.rng.gen_range(1..scope.len().min(2) + 1)
            };
            let subs = self.gen_subscripts(rank, scope, false);
            let extents = subs.iter().map(|s| s.extent).collect();
            let array = self.fresh_array(extents);
            ArrayRef::new(array, subs.into_iter().map(|s| s.expr).collect())
        };

        let value = self.gen_value(scope);
        let comp = match reduction {
            Some(op) => Computation::reduction(name, target.clone(), op, value),
            None => Computation::assign(name, target.clone(), value),
        };
        self.written.push(target.array.to_string());
        Node::Computation(comp)
    }

    /// Generates the right-hand side: one to three loads (possibly chained
    /// through earlier outputs, possibly stencil-staggered off one array)
    /// combined with `+ - * min`, an optional scalar parameter factor and a
    /// constant term. A quarter of bodies with an iterator in scope instead
    /// start from a multi-tap stencil family — 2-5 reads of *one* shared
    /// array at mixed-sign constant offsets, the shape the stagger-merged
    /// cache fast path and the analytic tier both special-case.
    fn gen_value(&mut self, scope: &[ScopeIter]) -> ScalarExpr {
        let mut value = match self.gen_stencil(scope) {
            Some(stencil) => stencil,
            None => self.gen_load(scope),
        };
        if self.rng.gen_bool(0.35) {
            // Stencil stagger: a second load of the *same* shape family.
            let second = self.gen_load(scope);
            value = match self.rng.gen_range(0..3u32) {
                0 => value + second,
                1 => value * second,
                _ => ScalarExpr::Binary(BinOp::Min, Box::new(value), Box::new(second)),
            };
        }
        if self.rng.gen_bool(0.25) {
            self.has_scalar_param = true;
            value = value * param("alpha");
        }
        match self.rng.gen_range(0..4u32) {
            0 => value + fconst(1.0),
            1 => value * fconst(0.5),
            2 => value - fconst(0.25),
            _ => value,
        }
    }

    /// With probability 1/4 (and an iterator in scope), generates a
    /// stencil-heavy load family: 2-5 taps `A[i + pad + k]` off one fresh
    /// shared array, with tap offsets `k` drawn from `[-4, 4]` so spreads
    /// mix signs, straddle 64-byte line boundaries and include duplicate
    /// taps. The pad keeps every tap in bounds.
    fn gen_stencil(&mut self, scope: &[ScopeIter]) -> Option<ScalarExpr> {
        if scope.is_empty() || !self.rng.gen_bool(0.25) {
            return None;
        }
        let it = scope.choose(&mut self.rng).clone();
        let taps = self.rng.gen_range(2..6usize);
        const PAD: i64 = 4;
        let array = self.fresh_array(vec![it.max_value + 1 + 2 * PAD]);
        let mut value: Option<ScalarExpr> = None;
        for _ in 0..taps {
            let k = self.rng.gen_range(-PAD..PAD + 1);
            let tap = load(array.clone(), vec![var(it.name.as_str()) + cst(PAD + k)]);
            value = Some(match value {
                Some(v) => v + tap,
                None => tap,
            });
        }
        value
    }

    /// Generates one load. Prefers re-reading an array an earlier statement
    /// wrote (a real dependence) when one fits the scope; otherwise loads a
    /// fresh input array shaped for a newly drawn subscript tuple.
    fn gen_load(&mut self, scope: &[ScopeIter]) -> ScalarExpr {
        if !self.written.is_empty() && self.rng.gen_bool(0.45) {
            let candidate = self
                .written
                .choose_cloned(&mut self.rng)
                .expect("written is non-empty");
            let extents = self.arrays[&candidate].clone();
            if let Some(indices) = self.subscripts_within(&extents, scope) {
                return load(candidate, indices);
            }
        }
        let rank = if scope.is_empty() {
            1
        } else {
            self.rng.gen_range(1..scope.len().min(2) + 1)
        };
        let subs = self.gen_subscripts(rank, scope, true);
        let extents: Vec<i64> = subs.iter().map(|s| s.extent).collect();
        let array = self.fresh_array(extents);
        load(array, subs.into_iter().map(|s| s.expr).collect())
    }

    /// Draws `rank` subscripts from the menu. `allow_stagger` additionally
    /// permits constant-offset (stencil) forms.
    fn gen_subscripts(
        &mut self,
        rank: usize,
        scope: &[ScopeIter],
        allow_stagger: bool,
    ) -> Vec<Subscript> {
        // Distinct iterators per dimension where possible, so rank-2
        // accesses get genuine 2-D footprints (and transposes on reuse).
        let mut picks: Vec<ScopeIter> = scope.to_vec();
        picks.shuffle(&mut self.rng);
        (0..rank)
            .map(|d| {
                let it = picks.get(d % picks.len().max(1)).cloned();
                self.gen_subscript(it, allow_stagger)
            })
            .collect()
    }

    fn gen_subscript(&mut self, it: Option<ScopeIter>, allow_stagger: bool) -> Subscript {
        let Some(it) = it else {
            let c = self.rng.gen_range(0..2);
            return Subscript {
                expr: cst(c),
                extent: c + 1,
            };
        };
        match self.rng.gen_range(0..8u32) {
            // Reversal: `max - i`, a negative access stride.
            0 => Subscript {
                expr: cst(it.max_value) - var(it.name.as_str()),
                extent: it.max_value + 1,
            },
            // Stencil stagger: `i + k`.
            1 | 2 if allow_stagger => {
                let k = self.rng.gen_range(1..3);
                Subscript {
                    expr: var(it.name.as_str()) + cst(k),
                    extent: it.max_value + 1 + k,
                }
            }
            // Scaled: `2 * i`, a super-line stride on rank-1 arrays.
            3 => Subscript {
                expr: cst(2) * var(it.name.as_str()),
                extent: 2 * it.max_value + 1,
            },
            // Loop-invariant constant.
            4 => {
                let c = self.rng.gen_range(0..2);
                Subscript {
                    expr: cst(c),
                    extent: c + 1,
                }
            }
            // The plain iterator, weighted heaviest.
            _ => Subscript {
                expr: var(it.name.as_str()),
                extent: it.max_value + 1,
            },
        }
    }

    /// Tries to build an in-bounds subscript tuple for an *existing* array
    /// with the given per-dimension extents; `None` when some dimension
    /// cannot be covered from the current scope.
    fn subscripts_within(&mut self, extents: &[i64], scope: &[ScopeIter]) -> Option<Vec<Expr>> {
        let mut picks: Vec<ScopeIter> = scope.to_vec();
        picks.shuffle(&mut self.rng);
        extents
            .iter()
            .enumerate()
            .map(|(d, &extent)| {
                // Prefer an iterator that fits the dimension; fall back to
                // a constant, which always fits (extents are >= 1).
                let fitting = picks
                    .iter()
                    .cycle()
                    .skip(d)
                    .take(picks.len())
                    .find(|it| it.max_value < extent);
                match fitting {
                    Some(it) if self.rng.gen_bool(0.8) => {
                        if it.max_value < extent && self.rng.gen_bool(0.2) {
                            // Reversed re-read of the fitting range.
                            Some(cst(it.max_value) - var(it.name.as_str()))
                        } else {
                            Some(var(it.name.as_str()))
                        }
                    }
                    _ => Some(cst(self.rng.gen_range(0..extent))),
                }
            })
            .collect()
    }

    /// Declares a fresh array sized exactly for `extents`.
    fn fresh_array(&mut self, extents: Vec<i64>) -> String {
        let name = format!("A{}", self.next_array);
        self.next_array += 1;
        self.arrays.insert(name.clone(), extents);
        name
    }

    /// Renders a numeric extent as a declaration expression, preferring the
    /// parametric form when the extent is tied to `N` so declarations stay
    /// symbolic like hand-written benchmarks.
    fn extent_expr(&mut self, extent: i64) -> Expr {
        if extent == self.n {
            var("N")
        } else if extent > self.n && extent <= self.n + 3 {
            var("N") + cst(extent - self.n)
        } else {
            cst(extent)
        }
    }
}

/// Deterministic choice helpers over the shim RNG.
trait ChooseExt<T> {
    fn choose(&self, rng: &mut StdRng) -> &T;
}

impl<T> ChooseExt<T> for [T] {
    fn choose(&self, rng: &mut StdRng) -> &T {
        &self[rng.gen_range(0..self.len())]
    }
}

trait ChooseCloned<T: Clone> {
    fn choose_cloned(&self, rng: &mut StdRng) -> Option<T>;
}

impl<T: Clone> ChooseCloned<T> for [T] {
    fn choose_cloned(&self, rng: &mut StdRng) -> Option<T> {
        if self.is_empty() {
            None
        } else {
            Some(self[rng.gen_range(0..self.len())].clone())
        }
    }
}

trait ShuffleExt {
    fn shuffle(&mut self, rng: &mut StdRng);
}

impl<T> ShuffleExt for Vec<T> {
    fn shuffle(&mut self, rng: &mut StdRng) {
        for i in (1..self.len()).rev() {
            let j = rng.gen_range(0..i + 1);
            self.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let config = GenConfig::default();
        for seed in 0..50 {
            assert_eq!(generate(seed, &config), generate(seed, &config));
        }
    }

    #[test]
    fn generated_programs_validate() {
        let config = GenConfig::default();
        for seed in 0..500 {
            let p = generate(seed, &config);
            p.validate()
                .unwrap_or_else(|e| panic!("seed {seed}: invalid program: {e}"));
        }
    }

    #[test]
    fn the_shape_menu_is_actually_reached() {
        // Across a modest seed range the generator must produce each of the
        // shapes the fast paths special-case.
        let config = GenConfig::default();
        let mut reversal = false;
        let mut strided = false;
        let mut scalar_red = false;
        let mut multi_nest = false;
        for seed in 0..300 {
            let p = generate(seed, &config);
            let text = p.to_string();
            reversal |= text.contains("- i");
            strided |= text.contains(" step ");
            scalar_red |= p
                .computations()
                .iter()
                .any(|c| c.reduction.is_some() && c.target.indices == vec![cst(0)]);
            multi_nest |= p.loop_nests().len() > 1;
        }
        assert!(reversal, "no reversal subscript in 300 seeds");
        assert!(strided, "no strided loop in 300 seeds");
        assert!(scalar_red, "no scalar reduction in 300 seeds");
        assert!(multi_nest, "no multi-nest program in 300 seeds");
    }

    #[test]
    fn stencil_families_are_generated_with_three_plus_taps() {
        // The stagger-merged cache path only engages at >= 3 same-array
        // taps within one line span, so the generator must reach wide tap
        // families, not just pairs.
        let config = GenConfig::default();
        let mut widest = 0usize;
        for seed in 0..300 {
            let p = generate(seed, &config);
            for comp in p.computations() {
                let mut per_array: BTreeMap<String, usize> = BTreeMap::new();
                comp.value.for_each_load(&mut |r| {
                    *per_array.entry(r.array.to_string()).or_default() += 1;
                });
                widest = widest.max(per_array.values().copied().max().unwrap_or(0));
            }
        }
        assert!(
            widest >= 3,
            "no 3+-tap same-array stencil family in 300 seeds (widest {widest})"
        );
    }
}
