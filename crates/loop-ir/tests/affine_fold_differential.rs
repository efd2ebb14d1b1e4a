//! The affine fold against the trees it replaced.
//!
//! `Expr::affine_with` and `ArrayRef::linear_offset` fold a subscript into
//! affine form without building a tree. Their reference semantics is the
//! old composition: `fold_params(..)` (substitute, then `simplify`), then
//! `as_affine()`, summed as `Σ stride · subscript` for `linear_offset`. That
//! composition panicked or wrapped on overflow, so it is frozen here and
//! replayed in exact arithmetic, recording whether any step left `i64`:
//! where none did, the fold must give its value; where one did, `None`.
//!
//! The generator aims at what the fold has to get right: `/ % min max` the
//! fold declines, the identities `simplify` applies (`x − x`, `0·(i·j)`,
//! `x/1`, `min(x, x)`), parameters that shadow iterators, and constants near
//! `i64::MAX`.

use std::collections::{BTreeMap, BTreeSet};

use loop_ir::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

const ITERATORS: [&str; 3] = ["i", "j", "k"];

/// Bindings: two parameters, and now and then one named like an iterator.
fn bindings(rng: &mut StdRng) -> BTreeMap<Var, i64> {
    let mut out = BTreeMap::from([(Var::new("N"), 7), (Var::new("M"), -3)]);
    if rng.gen_bool(0.3) {
        out.insert(Var::new("i"), constant(rng));
    }
    out
}

/// Mostly small constants, one in four at an `i64` boundary.
fn constant(rng: &mut StdRng) -> i64 {
    const SMALL: [i64; 8] = [0, 1, -1, 2, 3, -5, 10, 64];
    const LARGE: [i64; 8] = [
        i64::MAX,
        i64::MAX - 1,
        i64::MIN,
        i64::MIN + 1,
        1 << 62,
        -(1 << 62),
        3_037_000_499, // ⌊√MAX⌋
        i64::MAX / 2 + 1,
    ];
    if rng.gen_bool(0.25) {
        *LARGE.choose(rng).unwrap()
    } else {
        *SMALL.choose(rng).unwrap()
    }
}

fn leaf(rng: &mut StdRng) -> Expr {
    match rng.gen_range(0..10) {
        0..=3 => var(*ITERATORS.choose(rng).unwrap()),
        4..=5 => var(*["N", "M"].choose(rng).unwrap()),
        _ => cst(constant(rng)),
    }
}

fn subscript(rng: &mut StdRng, depth: u32) -> Expr {
    if depth == 0 || rng.gen_bool(0.25) {
        return leaf(rng);
    }
    let sub = |rng: &mut StdRng| Box::new(subscript(rng, depth - 1));
    match rng.gen_range(0..20) {
        0..=3 => Expr::Add(sub(rng), sub(rng)),
        4..=6 => Expr::Sub(sub(rng), sub(rng)),
        7..=10 => Expr::Mul(sub(rng), sub(rng)),
        11 => Expr::Neg(sub(rng)),
        12 => Expr::Div(sub(rng), sub(rng)),
        13 => Expr::Mod(sub(rng), sub(rng)),
        14 => Expr::Min(sub(rng), sub(rng)),
        15 => Expr::Max(sub(rng), sub(rng)),
        // The identities `simplify` knows and the fold does not.
        16 => {
            let x = sub(rng);
            Expr::Sub(x.clone(), x)
        }
        17 => Expr::Mul(Box::new(cst(0)), sub(rng)),
        18 => Expr::Div(sub(rng), Box::new(cst(1))),
        _ => {
            let x = sub(rng);
            Expr::Min(x.clone(), x)
        }
    }
}

/// `(terms, constant)` of an affine form as the old `AffineExpr` kept it.
type Form = (BTreeMap<Var, i64>, i64);

/// The old `fold_params` / `simplify` / `as_affine`, every step in `i128`.
#[derive(Default)]
struct Frozen {
    /// Some step of the old code left `i64` (it panicked or wrapped).
    overflowed: bool,
}

impl Frozen {
    fn fit(&mut self, wide: i128) -> i64 {
        i64::try_from(wide).unwrap_or_else(|_| {
            self.overflowed = true;
            0
        })
    }

    fn fold_params(&mut self, e: &Expr, bindings: &BTreeMap<Var, i64>) -> Expr {
        let mut out = e.clone();
        let mut vars = BTreeSet::new();
        e.for_each_var(&mut |v| {
            vars.insert(v.clone());
        });
        for v in vars {
            if let Some(value) = bindings.get(&v) {
                out = out.substitute(&v, &cst(*value));
            }
        }
        self.simplify(&out)
    }

    fn simplify(&mut self, e: &Expr) -> Expr {
        let wide = |x: i64| i128::from(x);
        match e {
            Expr::Const(_) | Expr::Var(_) => e.clone(),
            Expr::Add(a, b) => match (self.simplify(a), self.simplify(b)) {
                (Expr::Const(x), Expr::Const(y)) => cst(self.fit(wide(x) + wide(y))),
                (Expr::Const(0), rhs) => rhs,
                (lhs, Expr::Const(0)) => lhs,
                (lhs, rhs) => lhs + rhs,
            },
            Expr::Sub(a, b) => match (self.simplify(a), self.simplify(b)) {
                (Expr::Const(x), Expr::Const(y)) => cst(self.fit(wide(x) - wide(y))),
                (lhs, Expr::Const(0)) => lhs,
                (lhs, rhs) if lhs == rhs => cst(0),
                (lhs, rhs) => lhs - rhs,
            },
            Expr::Mul(a, b) => match (self.simplify(a), self.simplify(b)) {
                (Expr::Const(x), Expr::Const(y)) => cst(self.fit(wide(x) * wide(y))),
                (Expr::Const(0), _) | (_, Expr::Const(0)) => cst(0),
                (Expr::Const(1), rhs) => rhs,
                (lhs, Expr::Const(1)) => lhs,
                (lhs, rhs) => lhs * rhs,
            },
            Expr::Div(a, b) => match (self.simplify(a), self.simplify(b)) {
                (Expr::Const(x), Expr::Const(y)) if y != 0 => {
                    cst(self.fit(wide(x).div_euclid(wide(y))))
                }
                (lhs, Expr::Const(1)) => lhs,
                (lhs, rhs) => Expr::Div(Box::new(lhs), Box::new(rhs)),
            },
            Expr::Mod(a, b) => match (self.simplify(a), self.simplify(b)) {
                // `MIN % -1` panicked in `i64` although the remainder is 0.
                (Expr::Const(x), Expr::Const(y)) if y != 0 => match x.checked_rem_euclid(y) {
                    Some(r) => cst(r),
                    None => cst(self.fit(i128::MAX)),
                },
                (lhs, rhs) => Expr::Mod(Box::new(lhs), Box::new(rhs)),
            },
            Expr::Min(a, b) => match (self.simplify(a), self.simplify(b)) {
                (Expr::Const(x), Expr::Const(y)) => cst(x.min(y)),
                (lhs, rhs) if lhs == rhs => lhs,
                (lhs, rhs) => Expr::Min(Box::new(lhs), Box::new(rhs)),
            },
            Expr::Max(a, b) => match (self.simplify(a), self.simplify(b)) {
                (Expr::Const(x), Expr::Const(y)) => cst(x.max(y)),
                (lhs, rhs) if lhs == rhs => lhs,
                (lhs, rhs) => Expr::Max(Box::new(lhs), Box::new(rhs)),
            },
            Expr::Neg(a) => match self.simplify(a) {
                Expr::Const(x) => cst(self.fit(-wide(x))),
                Expr::Neg(inner) => *inner,
                other => -other,
            },
        }
    }

    /// `a + b`, dropping zero coefficients as `add_term` did.
    fn add(&mut self, (mut terms, constant): Form, (rhs, c): Form) -> Form {
        let constant = self.fit(i128::from(constant) + i128::from(c));
        for (v, c) in rhs {
            let sum = self.fit(i128::from(terms.get(&v).copied().unwrap_or(0)) + i128::from(c));
            terms.insert(v, sum);
        }
        terms.retain(|_, c| *c != 0);
        (terms, constant)
    }

    fn scaled(&mut self, (terms, constant): Form, factor: i64) -> Form {
        if factor == 0 {
            return (BTreeMap::new(), 0);
        }
        let mut scale = |x: i64| self.fit(i128::from(x) * i128::from(factor));
        let terms = terms.into_iter().map(|(v, c)| (v, scale(c))).collect();
        (terms, scale(constant))
    }

    fn as_affine(&mut self, e: &Expr) -> Option<Form> {
        match e {
            Expr::Const(c) => Some((BTreeMap::new(), *c)),
            Expr::Var(v) => Some((BTreeMap::from([(v.clone(), 1)]), 0)),
            Expr::Add(a, b) => {
                let (a, b) = (self.as_affine(a)?, self.as_affine(b)?);
                Some(self.add(a, b))
            }
            // `a - b` was `a + (-b)`: `-b` is computed, and may overflow, first.
            Expr::Sub(a, b) => {
                let (a, b) = (self.as_affine(a)?, self.as_affine(b)?);
                let negated = self.scaled(b, -1);
                Some(self.add(a, negated))
            }
            Expr::Neg(a) => {
                let a = self.as_affine(a)?;
                Some(self.scaled(a, -1))
            }
            Expr::Mul(a, b) => {
                let (a, b) = (self.as_affine(a)?, self.as_affine(b)?);
                match (a.0.is_empty(), b.0.is_empty()) {
                    (true, _) => Some(self.scaled(b, a.1)),
                    (false, true) => Some(self.scaled(a, b.1)),
                    (false, false) => None,
                }
            }
            Expr::Div(..) | Expr::Mod(..) | Expr::Min(..) | Expr::Max(..) => None,
        }
    }
}

fn affine(form: Option<Form>) -> Option<AffineExpr> {
    form.map(|(terms, constant)| AffineExpr::from_terms(terms, constant))
}

/// The old `fold_params(..).as_affine()`, or `None` and whether it overflowed.
fn old_affine(e: &Expr, bindings: &BTreeMap<Var, i64>) -> (Option<AffineExpr>, bool) {
    let mut frozen = Frozen::default();
    let folded = frozen.fold_params(e, bindings);
    let form = frozen.as_affine(&folded);
    (affine(form), frozen.overflowed)
}

/// The old `linear_offset`: unchecked strides, then `Σ stride · subscript`.
fn old_linear_offset(
    r: &ArrayRef,
    array: &Array,
    bindings: &BTreeMap<Var, i64>,
) -> (Option<AffineExpr>, bool) {
    let mut frozen = Frozen::default();
    let Some(dims) = array.concrete_dims(bindings) else {
        return (None, false);
    };
    let mut strides = vec![1i64; dims.len()];
    for d in (0..dims.len().saturating_sub(1)).rev() {
        strides[d] = frozen.fit(i128::from(strides[d + 1]) * i128::from(dims[d + 1]));
    }
    if strides.len() != r.indices.len() {
        return (None, frozen.overflowed);
    }
    let mut acc: Form = (BTreeMap::new(), 0);
    for (idx, stride) in r.indices.iter().zip(strides) {
        let folded = frozen.fold_params(idx, bindings);
        let Some(form) = frozen.as_affine(&folded) else {
            return (None, frozen.overflowed);
        };
        let scaled = frozen.scaled(form, stride);
        acc = frozen.add(acc, scaled);
    }
    (affine(Some(acc)), frozen.overflowed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn the_fold_is_the_old_tree_composition_or_none_where_that_overflowed(seed in 0..u64::MAX) {
        let rng = &mut StdRng::seed_from_u64(seed);
        let bindings = bindings(rng);
        for _ in 0..8 {
            let e = subscript(rng, 5);
            let (old, overflowed) = old_affine(&e, &bindings);
            let expected = if overflowed { None } else { old };
            prop_assert_eq!(e.affine_with(&bindings), expected.clone(), "{} under {:?}", e, bindings);
            // The reference itself is checked now: it never wraps either.
            prop_assert_eq!(e.fold_params(&bindings).as_affine(), expected, "{}", e);
        }
    }

    #[test]
    fn linear_offset_is_the_old_composition_or_none_where_that_overflowed(seed in 0..u64::MAX) {
        let rng = &mut StdRng::seed_from_u64(seed);
        let bindings = bindings(rng);
        let rank = rng.gen_range(1..4);
        let dims = (0..rank)
            .map(|_| match rng.gen_range(0..4) {
                0 => var("N"),
                1 => cst(*[0, 1, 2, 1 << 31, 1 << 40, i64::MAX].choose(rng).unwrap()),
                _ => cst(rng.gen_range(1..9)),
            })
            .collect();
        let array = Array::new("A", dims);
        for _ in 0..4 {
            let r = ArrayRef::new("A", (0..rank).map(|_| subscript(rng, 4)).collect());
            let (old, overflowed) = old_linear_offset(&r, &array, &bindings);
            let expected = if overflowed { None } else { old };
            prop_assert_eq!(r.linear_offset(&array, &bindings), expected, "{} in {}", r, array);
        }
    }
}

/// PR 13's list of subscripts the production dependence tester used to call
/// non-affine while the reference simplified them: the fold declines them and
/// the reference decides.
#[test]
fn degenerate_subscripts_take_the_reference_form() {
    let none = BTreeMap::new();
    let ij = || var("i") * var("j");
    for (e, form) in [
        (cst(0) * ij(), AffineExpr::constant(0)),
        (ij() - ij(), AffineExpr::constant(0)),
        (
            Expr::Div(Box::new(var("x")), Box::new(cst(1))),
            AffineExpr::var(Var::new("x")),
        ),
        (
            Expr::Min(Box::new(var("i")), Box::new(var("i"))),
            AffineExpr::var(Var::new("i")),
        ),
    ] {
        assert_eq!(e.affine_with(&none), Some(form), "{e}");
    }
    // Folded parameters make `/ % min max` constants.
    let n = BTreeMap::from([(Var::new("N"), 9)]);
    let e = var("i") + Expr::Div(Box::new(var("N")), Box::new(cst(2)));
    assert_eq!(
        e.affine_with(&n),
        Some(AffineExpr::from_terms([(Var::new("i"), 1)], 4))
    );
    // Cancelled iterators leave no zero coefficient behind.
    assert_eq!(
        (var("i") + var("j") - var("i")).affine_with(&none),
        Some(AffineExpr::var(Var::new("j")))
    );
}

#[test]
fn an_overflow_anywhere_is_none() {
    let none = BTreeMap::new();
    let big = || cst(i64::MAX);
    for e in [
        big() + cst(1),
        var("i") * big() + var("i") * big(),
        -(cst(i64::MIN)),
        // Dropped by `0 · x` and `x − x`, but folded (and overflowed) first.
        cst(0) * (big() + cst(1)),
        (big() + cst(1)) - (big() + cst(1)),
        Expr::Div(Box::new(cst(i64::MIN)), Box::new(cst(-1))),
    ] {
        assert_eq!(e.affine_with(&none), None, "{e}");
    }
    // No intermediate of the old composition leaves i64 here, although a
    // left-to-right running sum of the terms would.
    let e = big() + (big() - big());
    assert_eq!(e.affine_with(&none), Some(AffineExpr::constant(i64::MAX)));
    // `N * N` elements: the row stride fits, the array does not.
    let n = BTreeMap::from([(Var::new("N"), 1i64 << 62)]);
    let array = Array::with_param_dims("A", &["N", "N"]);
    assert_eq!(array.strides(&n), Some(vec![1 << 62, 1]));
    assert_eq!(array.len(&n), None);
    assert_eq!(array.size_bytes(&n), None);
    let deep = Array::with_param_dims("B", &["N", "N", "N"]);
    assert_eq!(deep.strides(&n), None);
    let r = ArrayRef::new("B", vec![var("i"), var("j"), var("k")]);
    assert_eq!(r.linear_offset(&deep, &n), None);
}

/// `for_each_access` lends the computation's own references, loads in evaluation
/// order — through both `select` operands and both branches — then the
/// reduction's read of the target, then the write.
#[test]
fn accesses_borrow_in_evaluation_order() {
    let value = ScalarExpr::select(
        load("A", vec![var("i")]),
        CmpOp::Gt,
        load("B", vec![var("i")]),
        load("C", vec![var("i")]) * load("D", vec![var("i")]),
        load("E", vec![var("i")]),
    );
    let comp = Computation::reduction("S0", ArrayRef::new("T", vec![var("i")]), BinOp::Add, value);
    let mut accesses = Vec::new();
    comp.for_each_access(|a| accesses.push(a));
    assert_eq!(accesses.len(), comp.access_count());
    let order: Vec<(&str, bool)> = accesses
        .iter()
        .map(|a| (a.array_ref.array.as_str(), a.is_write()))
        .collect();
    assert_eq!(
        order,
        [
            ("A", false),
            ("B", false),
            ("C", false),
            ("D", false),
            ("E", false),
            ("T", false),
            ("T", true),
        ]
    );
    let mut loads = Vec::new();
    comp.value.for_each_load(&mut |r| loads.push(r));
    assert_eq!(loads.len(), 5);
    for (access, load) in accesses.iter().zip(&loads) {
        assert!(std::ptr::eq(access.array_ref, *load));
    }
    assert!(std::ptr::eq(accesses[5].array_ref, &comp.target));
    assert!(std::ptr::eq(accesses[6].array_ref, comp.write()));
}

/// Affine, non-affine and overflowing subscripts each make up a fair share
/// of what the generator draws, so neither property passes vacuously.
#[test]
fn the_generator_reaches_every_outcome() {
    let mut counts = [0u32; 3];
    for seed in 0..512 {
        let rng = &mut StdRng::seed_from_u64(seed);
        let bindings = bindings(rng);
        for _ in 0..8 {
            let (form, overflowed) = old_affine(&subscript(rng, 5), &bindings);
            counts[match (form, overflowed) {
                (_, true) => 2,
                (Some(_), false) => 0,
                (None, false) => 1,
            }] += 1;
        }
    }
    println!("affine / non-affine / overflowed: {counts:?}");
    assert!(counts.iter().all(|&n| n >= 512 * 8 / 20), "{counts:?}");
}
