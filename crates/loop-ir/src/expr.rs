//! Symbolic integer expressions used for loop bounds and array subscripts.
//!
//! The paper's lifted representation keeps loop iterators, domains and data
//! accesses as symbolic expressions (§3.1). [`Expr`] is that expression
//! language: integer arithmetic over loop iterators and symbolic size
//! parameters. [`AffineExpr`] is its affine normal form, which is what the
//! dependence analysis and the stride computation operate on.

use std::borrow::Borrow;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::ops::{Add, Mul, Neg, Sub};
use std::sync::Arc;

/// A variable name: a loop iterator or a symbolic parameter such as an array
/// extent.
///
/// The name is an immutable shared string: a clone bumps a reference count
/// instead of copying bytes, and every node copy, loop bound, dependence and
/// affine term clones names. Equality, order, hash and `Debug` are those of
/// the *contents* — two `Var`s made from equal strings are interchangeable
/// wherever they came from, and there is no intern table to consult or leak.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Default)]
pub struct Var(Arc<str>);

impl Var {
    /// Creates a variable with the given name.
    pub fn new(name: impl Into<Arc<str>>) -> Self {
        Var(name.into())
    }

    /// Returns the variable name as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

/// A `Var` orders, compares and hashes as its name does, so maps keyed by
/// `Var` can be searched with a `&str`.
impl Borrow<str> for Var {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for Var {
    fn from(value: &str) -> Self {
        Var::new(value)
    }
}

impl From<String> for Var {
    fn from(value: String) -> Self {
        Var::new(value)
    }
}

impl From<&Var> for Var {
    fn from(value: &Var) -> Self {
        value.clone()
    }
}

/// A symbolic integer expression.
///
/// Expressions appear as loop bounds and as array subscripts. They are
/// deliberately small: the normalization passes only require affine
/// subscripts, but `Div`/`Mod`/`Min`/`Max` are kept so that tiled loops and
/// boundary conditions can be represented faithfully.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Expr {
    /// An integer literal.
    Const(i64),
    /// A loop iterator or symbolic parameter.
    Var(Var),
    /// Sum of two expressions.
    Add(Box<Expr>, Box<Expr>),
    /// Difference of two expressions.
    Sub(Box<Expr>, Box<Expr>),
    /// Product of two expressions.
    Mul(Box<Expr>, Box<Expr>),
    /// Euclidean (floor) division.
    Div(Box<Expr>, Box<Expr>),
    /// Euclidean remainder.
    Mod(Box<Expr>, Box<Expr>),
    /// Minimum of two expressions.
    Min(Box<Expr>, Box<Expr>),
    /// Maximum of two expressions.
    Max(Box<Expr>, Box<Expr>),
    /// Arithmetic negation.
    Neg(Box<Expr>),
}

/// Builds a variable reference expression.
///
/// ```
/// use loop_ir::expr::{var, Expr, Var};
/// assert_eq!(var("i"), Expr::Var(Var::new("i")));
/// ```
pub fn var(name: impl Into<Var>) -> Expr {
    Expr::Var(name.into())
}

/// Builds an integer constant expression.
///
/// ```
/// use loop_ir::expr::{cst, Expr};
/// assert_eq!(cst(4), Expr::Const(4));
/// ```
pub fn cst(value: i64) -> Expr {
    Expr::Const(value)
}

impl Expr {
    /// Evaluates the expression under the given variable bindings.
    ///
    /// Returns `None` if a variable is unbound, a division by zero occurs or
    /// the value does not fit an `i64`.
    pub fn eval(&self, bindings: &BTreeMap<Var, i64>) -> Option<i64> {
        self.eval_with(&|v| bindings.get(v).copied())
    }

    /// [`Expr::eval`] with variables looked up by `value_of` instead of in
    /// a map.
    pub fn eval_with(&self, value_of: &impl Fn(&Var) -> Option<i64>) -> Option<i64> {
        let eval = |e: &Expr| e.eval_with(value_of);
        match self {
            Expr::Const(c) => Some(*c),
            Expr::Var(v) => value_of(v),
            Expr::Add(a, b) => eval(a)?.checked_add(eval(b)?),
            Expr::Sub(a, b) => eval(a)?.checked_sub(eval(b)?),
            Expr::Mul(a, b) => eval(a)?.checked_mul(eval(b)?),
            // The checked forms also refuse a zero divisor.
            Expr::Div(a, b) => eval(a)?.checked_div_euclid(eval(b)?),
            Expr::Mod(a, b) => eval(a)?.checked_rem_euclid(eval(b)?),
            Expr::Min(a, b) => Some(eval(a)?.min(eval(b)?)),
            Expr::Max(a, b) => Some(eval(a)?.max(eval(b)?)),
            Expr::Neg(a) => eval(a)?.checked_neg(),
        }
    }

    /// Calls `f` on every variable occurrence, left to right (a variable
    /// used twice is visited twice).
    pub fn for_each_var<'a>(&'a self, f: &mut impl FnMut(&'a Var)) {
        match self {
            Expr::Const(_) => {}
            Expr::Var(v) => f(v),
            Expr::Add(a, b)
            | Expr::Sub(a, b)
            | Expr::Mul(a, b)
            | Expr::Div(a, b)
            | Expr::Mod(a, b)
            | Expr::Min(a, b)
            | Expr::Max(a, b) => {
                a.for_each_var(f);
                b.for_each_var(f);
            }
            Expr::Neg(a) => a.for_each_var(f),
        }
    }

    /// Returns true if the expression references the given variable.
    pub fn uses_var(&self, v: &Var) -> bool {
        match self {
            Expr::Const(_) => false,
            Expr::Var(w) => w == v,
            Expr::Add(a, b)
            | Expr::Sub(a, b)
            | Expr::Mul(a, b)
            | Expr::Div(a, b)
            | Expr::Mod(a, b)
            | Expr::Min(a, b)
            | Expr::Max(a, b) => a.uses_var(v) || b.uses_var(v),
            Expr::Neg(a) => a.uses_var(v),
        }
    }

    /// Substitutes every occurrence of `v` by `replacement`.
    pub fn substitute(&self, v: &Var, replacement: &Expr) -> Expr {
        self.map_vars(&|w| (w == v).then(|| replacement.clone()))
    }

    /// The expression with every variable `replace` maps to `Some(e)`
    /// replaced by `e`, all at once.
    fn map_vars(&self, replace: &impl Fn(&Var) -> Option<Expr>) -> Expr {
        let map = |e: &Expr| Box::new(e.map_vars(replace));
        match self {
            Expr::Const(_) => self.clone(),
            Expr::Var(w) => replace(w).unwrap_or_else(|| self.clone()),
            Expr::Add(a, b) => Expr::Add(map(a), map(b)),
            Expr::Sub(a, b) => Expr::Sub(map(a), map(b)),
            Expr::Mul(a, b) => Expr::Mul(map(a), map(b)),
            Expr::Div(a, b) => Expr::Div(map(a), map(b)),
            Expr::Mod(a, b) => Expr::Mod(map(a), map(b)),
            Expr::Min(a, b) => Expr::Min(map(a), map(b)),
            Expr::Max(a, b) => Expr::Max(map(a), map(b)),
            Expr::Neg(a) => Expr::Neg(map(a)),
        }
    }

    /// Substitutes every variable that has a binding with its constant value
    /// and simplifies the result.
    ///
    /// `fold_params(..).as_affine()` is the reference semantics of
    /// [`affine_with`](Self::affine_with), which computes the same form
    /// without building either tree.
    pub fn fold_params(&self, bindings: &BTreeMap<Var, i64>) -> Expr {
        self.map_vars(&|v| bindings.get(v).map(|value| Expr::Const(*value)))
            .simplify()
    }

    /// Performs constant folding and identity simplifications.
    ///
    /// When folding some constant would leave `i64` the expression is
    /// returned unsimplified, so [`as_affine`](Self::as_affine) meets the
    /// same overflow and answers `None`.
    pub fn simplify(&self) -> Expr {
        self.checked_simplify().unwrap_or_else(|| self.clone())
    }

    /// [`simplify`](Self::simplify), or `None` when any constant fold
    /// overflows — also one in a subtree an identity (`0 * x`, `x - x`)
    /// would drop.
    fn checked_simplify(&self) -> Option<Expr> {
        let pair = |a: &Expr, b: &Expr| Some((a.checked_simplify()?, b.checked_simplify()?));
        Some(match self {
            Expr::Const(_) | Expr::Var(_) => self.clone(),
            Expr::Add(a, b) => match pair(a, b)? {
                (Expr::Const(x), Expr::Const(y)) => Expr::Const(x.checked_add(y)?),
                (Expr::Const(0), rhs) => rhs,
                (lhs, Expr::Const(0)) => lhs,
                (lhs, rhs) => Expr::Add(Box::new(lhs), Box::new(rhs)),
            },
            Expr::Sub(a, b) => match pair(a, b)? {
                (Expr::Const(x), Expr::Const(y)) => Expr::Const(x.checked_sub(y)?),
                (lhs, Expr::Const(0)) => lhs,
                (lhs, rhs) if lhs == rhs => Expr::Const(0),
                (lhs, rhs) => Expr::Sub(Box::new(lhs), Box::new(rhs)),
            },
            Expr::Mul(a, b) => match pair(a, b)? {
                (Expr::Const(x), Expr::Const(y)) => Expr::Const(x.checked_mul(y)?),
                (Expr::Const(0), _) | (_, Expr::Const(0)) => Expr::Const(0),
                (Expr::Const(1), rhs) => rhs,
                (lhs, Expr::Const(1)) => lhs,
                (lhs, rhs) => Expr::Mul(Box::new(lhs), Box::new(rhs)),
            },
            Expr::Div(a, b) => match pair(a, b)? {
                (Expr::Const(x), Expr::Const(y)) if y != 0 => Expr::Const(x.checked_div_euclid(y)?),
                (lhs, Expr::Const(1)) => lhs,
                (lhs, rhs) => Expr::Div(Box::new(lhs), Box::new(rhs)),
            },
            Expr::Mod(a, b) => match pair(a, b)? {
                (Expr::Const(x), Expr::Const(y)) if y != 0 => Expr::Const(x.checked_rem_euclid(y)?),
                (lhs, rhs) => Expr::Mod(Box::new(lhs), Box::new(rhs)),
            },
            Expr::Min(a, b) => match pair(a, b)? {
                (Expr::Const(x), Expr::Const(y)) => Expr::Const(x.min(y)),
                (lhs, rhs) if lhs == rhs => lhs,
                (lhs, rhs) => Expr::Min(Box::new(lhs), Box::new(rhs)),
            },
            Expr::Max(a, b) => match pair(a, b)? {
                (Expr::Const(x), Expr::Const(y)) => Expr::Const(x.max(y)),
                (lhs, rhs) if lhs == rhs => lhs,
                (lhs, rhs) => Expr::Max(Box::new(lhs), Box::new(rhs)),
            },
            Expr::Neg(a) => match a.checked_simplify()? {
                Expr::Const(x) => Expr::Const(x.checked_neg()?),
                Expr::Neg(inner) => *inner,
                other => Expr::Neg(Box::new(other)),
            },
        })
    }

    /// Attempts to convert the expression into its affine normal form.
    ///
    /// Returns `None` for non-affine expressions such as `i * j` or `i / 2`,
    /// and when a coefficient or the constant leaves `i64` on the way.
    pub fn as_affine(&self) -> Option<AffineExpr> {
        match self {
            Expr::Const(c) => Some(AffineExpr::constant(*c)),
            Expr::Var(v) => Some(AffineExpr::var(v.clone())),
            Expr::Add(a, b) => a.as_affine()?.checked_add(b.as_affine()?, 1),
            Expr::Sub(a, b) => a.as_affine()?.checked_add(b.as_affine()?, -1),
            Expr::Neg(a) => a.as_affine()?.checked_scaled(-1),
            Expr::Mul(a, b) => {
                let la = a.as_affine()?;
                let lb = b.as_affine()?;
                if let Some(c) = la.as_constant() {
                    lb.checked_scaled(c)
                } else {
                    la.checked_scaled(lb.as_constant()?)
                }
            }
            Expr::Div(_, _) | Expr::Mod(_, _) | Expr::Min(_, _) | Expr::Max(_, _) => None,
        }
    }

    /// The affine normal form of the expression with `bindings` folded in:
    /// exactly `self.fold_params(bindings).as_affine()`, including `None`
    /// wherever that overflows, but computed by an [`AffineFold`] that
    /// builds no tree. Only what the fold declines — `/ % min max` that do
    /// not fold to a constant, a product with no non-zero constant side, a
    /// sum whose terms could leave `i64` — is handed to the reference.
    pub fn affine_with(&self, bindings: &BTreeMap<Var, i64>) -> Option<AffineExpr> {
        let mut out = AffineExpr::default();
        match AffineFold::new(bindings).add(self, 1, &mut |v, c| out.add_folded(v, c)) {
            Some(()) => Some(out.without_zero_terms()),
            None => self.fold_params(bindings).as_affine(),
        }
    }

    /// Adds `factor · self` to `fold` term by term; `factor` is never zero.
    fn fold_into(
        &self,
        factor: i64,
        fold: &mut AffineFold<'_>,
        emit: &mut impl FnMut(Option<&Var>, i64),
    ) -> Option<()> {
        match self {
            Expr::Const(c) => fold.emit(None, factor, *c, emit),
            // Parameters win over iterators, as in `fold_params`.
            Expr::Var(v) => match fold.bindings.get(v) {
                Some(value) => fold.emit(None, factor, *value, emit),
                None => fold.emit(Some(v), factor, 1, emit),
            },
            Expr::Add(a, b) => {
                a.fold_into(factor, fold, emit)?;
                b.fold_into(factor, fold, emit)
            }
            Expr::Sub(a, b) => {
                a.fold_into(factor, fold, emit)?;
                b.fold_into(factor.checked_neg()?, fold, emit)
            }
            Expr::Neg(a) => a.fold_into(factor.checked_neg()?, fold, emit),
            // A side that evaluates is the constant `simplify` folds it to;
            // a zero side drops the other one unseen, which only the
            // reference knows how to treat.
            Expr::Mul(a, b) => match (a.eval(fold.bindings), b.eval(fold.bindings)) {
                (Some(0), _) | (_, Some(0)) | (None, None) => None,
                (Some(x), Some(y)) => fold.emit(None, factor, x.checked_mul(y)?, emit),
                (Some(c), None) => b.fold_into(factor.checked_mul(c)?, fold, emit),
                (None, Some(c)) => a.fold_into(factor.checked_mul(c)?, fold, emit),
            },
            Expr::Div(..) | Expr::Mod(..) | Expr::Min(..) | Expr::Max(..) => {
                fold.emit(None, factor, self.eval(fold.bindings)?, emit)
            }
        }
    }

    /// Returns `Some` constant value if the expression is a literal after
    /// simplification.
    pub fn as_const(&self) -> Option<i64> {
        match self.simplify() {
            Expr::Const(c) => Some(c),
            _ => None,
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Const(c) => write!(f, "{c}"),
            Expr::Var(v) => write!(f, "{v}"),
            Expr::Add(a, b) => write!(f, "({a} + {b})"),
            Expr::Sub(a, b) => write!(f, "({a} - {b})"),
            Expr::Mul(a, b) => write!(f, "({a} * {b})"),
            Expr::Div(a, b) => write!(f, "({a} / {b})"),
            Expr::Mod(a, b) => write!(f, "({a} % {b})"),
            Expr::Min(a, b) => write!(f, "min({a}, {b})"),
            Expr::Max(a, b) => write!(f, "max({a}, {b})"),
            Expr::Neg(a) => write!(f, "(-{a})"),
        }
    }
}

impl From<i64> for Expr {
    fn from(value: i64) -> Self {
        Expr::Const(value)
    }
}

impl From<Var> for Expr {
    fn from(value: Var) -> Self {
        Expr::Var(value)
    }
}

impl Add for Expr {
    type Output = Expr;
    fn add(self, rhs: Expr) -> Expr {
        Expr::Add(Box::new(self), Box::new(rhs))
    }
}

impl Sub for Expr {
    type Output = Expr;
    fn sub(self, rhs: Expr) -> Expr {
        Expr::Sub(Box::new(self), Box::new(rhs))
    }
}

impl Mul for Expr {
    type Output = Expr;
    fn mul(self, rhs: Expr) -> Expr {
        Expr::Mul(Box::new(self), Box::new(rhs))
    }
}

impl Neg for Expr {
    type Output = Expr;
    fn neg(self) -> Expr {
        Expr::Neg(Box::new(self))
    }
}

/// The one place a subscript becomes affine: a running sum of
/// `scale · expr` terms with parameters folded in, built without a tree.
/// [`Expr::affine_with`], [`ArrayRef::linear_offset`], the dependence
/// tester's rows and `exec` lowering all add through it.
///
/// [`add`](Self::add) hands each term to a sink as it is found — `(Some(v),
/// c)` for `c·v`, `(None, c)` for a constant — and sums the absolute values
/// of all terms (each taken unscaled too) into a magnitude it keeps within
/// `i64::MAX`. So every partial sum a sink forms fits `i64`, and so does
/// every intermediate value of the reference `fold_params(..).as_affine()`:
/// whenever the fold succeeds, the two agree.
///
/// [`ArrayRef::linear_offset`]: crate::array::ArrayRef::linear_offset
pub struct AffineFold<'b> {
    bindings: &'b BTreeMap<Var, i64>,
    /// Multiplies every term of the current [`add`](Self::add).
    scale: i64,
    magnitude: u64,
}

impl<'b> AffineFold<'b> {
    /// An empty sum; `bindings` are folded in as constants.
    pub fn new(bindings: &'b BTreeMap<Var, i64>) -> Self {
        AffineFold {
            bindings,
            scale: 1,
            magnitude: 0,
        }
    }

    /// Adds `scale · expr`. `None` when the fold declines `expr` (see
    /// [`Expr::affine_with`]) or the magnitude would leave `i64`: the terms
    /// emitted so far are then meaningless, and the caller asks the
    /// reference instead.
    pub fn add(
        &mut self,
        expr: &Expr,
        scale: i64,
        emit: &mut impl FnMut(Option<&Var>, i64),
    ) -> Option<()> {
        self.scale = scale;
        expr.fold_into(1, self, emit)
    }

    /// Emits `scale · factor · c`.
    fn emit(
        &mut self,
        var: Option<&Var>,
        factor: i64,
        c: i64,
        emit: &mut impl FnMut(Option<&Var>, i64),
    ) -> Option<()> {
        let unscaled = factor.checked_mul(c)?;
        let term = unscaled.checked_mul(self.scale)?;
        self.magnitude = self
            .magnitude
            .checked_add(unscaled.unsigned_abs().max(term.unsigned_abs()))
            .filter(|&m| m <= i64::MAX.unsigned_abs())?;
        emit(var, term);
        Some(())
    }
}

/// Affine normal form of an [`Expr`]: a sum of integer-scaled variables plus
/// a constant, `c0 + c1*v1 + c2*v2 + …`.
///
/// The dependence tests and the stride cost of the normalization pass operate
/// on this form because coefficients of loop iterators are exactly the access
/// strides along those iterators.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct AffineExpr {
    terms: BTreeMap<Var, i64>,
    constant: i64,
}

impl AffineExpr {
    /// The affine expression `c`.
    pub fn constant(c: i64) -> Self {
        AffineExpr {
            terms: BTreeMap::new(),
            constant: c,
        }
    }

    /// The affine expression `1 * v`.
    pub fn var(v: Var) -> Self {
        let mut terms = BTreeMap::new();
        terms.insert(v, 1);
        AffineExpr { terms, constant: 0 }
    }

    /// Builds an affine expression from explicit terms and a constant.
    pub fn from_terms(terms: impl IntoIterator<Item = (Var, i64)>, constant: i64) -> Self {
        let mut out = AffineExpr::constant(constant);
        for (v, c) in terms {
            out.add_term(v, c);
        }
        out
    }

    fn add_term(&mut self, v: Var, c: i64) {
        let entry = self.terms.entry(v).or_insert(0);
        *entry += c;
        if *entry == 0 {
            // Keep the map free of zero coefficients so equality is canonical.
            let key = self
                .terms
                .iter()
                .find(|(_, coeff)| **coeff == 0)
                .map(|(k, _)| k.clone());
            if let Some(key) = key {
                self.terms.remove(&key);
            }
        }
    }

    /// Returns the constant offset.
    pub fn constant_part(&self) -> i64 {
        self.constant
    }

    /// Returns the coefficient of `v` (zero if absent).
    pub fn coefficient(&self, v: &Var) -> i64 {
        self.terms.get(v).copied().unwrap_or(0)
    }

    /// Iterates over the non-zero terms in variable order.
    pub fn terms(&self) -> impl Iterator<Item = (&Var, i64)> {
        self.terms.iter().map(|(v, c)| (v, *c))
    }

    /// Returns the set of variables with non-zero coefficients.
    pub fn vars(&self) -> BTreeSet<Var> {
        self.terms.keys().cloned().collect()
    }

    /// Returns `Some(c)` if the expression is the constant `c`.
    pub fn as_constant(&self) -> Option<i64> {
        if self.terms.is_empty() {
            Some(self.constant)
        } else {
            None
        }
    }

    /// Multiplies every coefficient and the constant by `factor`.
    pub fn scaled(&self, factor: i64) -> Self {
        if factor == 0 {
            return AffineExpr::constant(0);
        }
        AffineExpr {
            terms: self
                .terms
                .iter()
                .map(|(v, c)| (v.clone(), c * factor))
                .collect(),
            constant: self.constant * factor,
        }
    }

    /// `self + sign · rhs` with every step checked; `sign` is 1 or -1.
    pub(crate) fn checked_add(mut self, rhs: AffineExpr, sign: i64) -> Option<AffineExpr> {
        self.constant = self.constant.checked_add(rhs.constant.checked_mul(sign)?)?;
        for (v, c) in rhs.terms {
            let entry = self.terms.entry(v).or_insert(0);
            *entry = entry.checked_add(c.checked_mul(sign)?)?;
        }
        Some(self.without_zero_terms())
    }

    /// [`scaled`](Self::scaled) with every product checked.
    pub(crate) fn checked_scaled(&self, factor: i64) -> Option<AffineExpr> {
        if factor == 0 {
            return Some(AffineExpr::constant(0));
        }
        Some(AffineExpr {
            terms: self
                .terms
                .iter()
                .map(|(v, c)| Some((v.clone(), c.checked_mul(factor)?)))
                .collect::<Option<_>>()?,
            constant: self.constant.checked_mul(factor)?,
        })
    }

    /// Adds one term an [`AffineFold`] emitted: the fold keeps every
    /// partial sum inside `i64`, and zero coefficients are dropped at the
    /// end by [`without_zero_terms`](Self::without_zero_terms).
    pub(crate) fn add_folded(&mut self, var: Option<&Var>, c: i64) {
        match var {
            Some(v) => *self.terms.entry(v.clone()).or_insert(0) += c,
            None => self.constant += c,
        }
    }

    /// Drops zero coefficients, so that equality is canonical.
    pub(crate) fn without_zero_terms(mut self) -> AffineExpr {
        self.terms.retain(|_, c| *c != 0);
        self
    }
}

impl Add for AffineExpr {
    type Output = AffineExpr;
    fn add(self, rhs: AffineExpr) -> AffineExpr {
        let mut out = self;
        out.constant += rhs.constant;
        for (v, c) in rhs.terms {
            out.add_term(v, c);
        }
        out
    }
}

impl Sub for AffineExpr {
    type Output = AffineExpr;
    fn sub(self, rhs: AffineExpr) -> AffineExpr {
        self + (-rhs)
    }
}

impl Neg for AffineExpr {
    type Output = AffineExpr;
    fn neg(self) -> AffineExpr {
        self.scaled(-1)
    }
}

impl fmt::Display for AffineExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (v, c) in &self.terms {
            if first {
                if *c == 1 {
                    write!(f, "{v}")?;
                } else {
                    write!(f, "{c}*{v}")?;
                }
                first = false;
            } else if *c >= 0 {
                write!(f, " + {c}*{v}")?;
            } else {
                write!(f, " - {}*{v}", -c)?;
            }
        }
        if first {
            write!(f, "{}", self.constant)?;
        } else if self.constant > 0 {
            write!(f, " + {}", self.constant)?;
        } else if self.constant < 0 {
            write!(f, " - {}", -self.constant)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bind(pairs: &[(&str, i64)]) -> BTreeMap<Var, i64> {
        pairs.iter().map(|(k, v)| (Var::new(*k), *v)).collect()
    }

    #[test]
    fn names_are_shared_and_compare_by_content() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Var>();

        let a = Var::new("jk");
        let shared = a.clone();
        assert!(std::ptr::eq(a.as_str(), shared.as_str()), "a clone shares");
        // A second allocation of the same name is the same variable...
        let b = Var::from(String::from("jk"));
        assert!(!std::ptr::eq(a.as_str(), b.as_str()));
        assert_eq!(a, b);
        assert_eq!(a.cmp(&b), std::cmp::Ordering::Equal);
        let terms: BTreeMap<Var, i64> = [(a.clone(), 1), (b, 2)].into_iter().collect();
        assert_eq!(terms.len(), 1);
        // ...and order and rendering are those of the text.
        assert!(Var::new("i") < Var::new("j") && Var::new("i1") < Var::new("i10"));
        assert_eq!(format!("{a:?} {a}"), "Var(\"jk\") jk");
        assert_eq!(Var::default().as_str(), "");
    }

    #[test]
    fn eval_basic_arithmetic() {
        let e = (var("i") + cst(3)) * cst(2) - var("j");
        assert_eq!(e.eval(&bind(&[("i", 5), ("j", 4)])), Some(12));
    }

    #[test]
    fn eval_unbound_variable_is_none() {
        assert_eq!(var("i").eval(&BTreeMap::new()), None);
    }

    #[test]
    fn eval_division_by_zero_is_none() {
        let e = Expr::Div(Box::new(cst(4)), Box::new(cst(0)));
        assert_eq!(e.eval(&BTreeMap::new()), None);
    }

    #[test]
    fn eval_overflow_is_none() {
        let n = bind(&[("N", 1 << 62)]);
        assert_eq!((var("N") * cst(4)).eval(&n), None);
        assert_eq!((var("N") + var("N")).eval(&n), None);
        assert_eq!((cst(i64::MIN) - cst(1)).eval(&n), None);
        assert_eq!((-cst(i64::MIN)).eval(&n), None);
        let e = Expr::Div(Box::new(cst(i64::MIN)), Box::new(cst(-1)));
        assert_eq!(e.eval(&n), None);
        assert_eq!((var("N") * cst(-2)).eval(&n), Some(i64::MIN));
    }

    #[test]
    fn eval_min_max_mod() {
        let e = Expr::Min(Box::new(var("i")), Box::new(cst(10)));
        assert_eq!(e.eval(&bind(&[("i", 12)])), Some(10));
        let e = Expr::Max(Box::new(var("i")), Box::new(cst(10)));
        assert_eq!(e.eval(&bind(&[("i", 12)])), Some(12));
        let e = Expr::Mod(Box::new(var("i")), Box::new(cst(5)));
        assert_eq!(e.eval(&bind(&[("i", 12)])), Some(2));
    }

    #[test]
    fn simplify_constant_folds() {
        let e = (cst(2) + cst(3)) * var("i");
        assert_eq!(
            e.simplify(),
            Expr::Mul(Box::new(cst(5)), Box::new(var("i")))
        );
    }

    #[test]
    fn simplify_identities() {
        assert_eq!((var("i") + cst(0)).simplify(), var("i"));
        assert_eq!((var("i") * cst(1)).simplify(), var("i"));
        assert_eq!((var("i") * cst(0)).simplify(), cst(0));
        assert_eq!((var("i") - var("i")).simplify(), cst(0));
        assert_eq!((-(-var("i"))).simplify(), var("i"));
    }

    #[test]
    fn vars_are_collected() {
        let e = var("i") * var("NJ") + var("j") - var("i");
        let mut vars = Vec::new();
        e.for_each_var(&mut |v| vars.push(v.as_str()));
        assert_eq!(vars, ["i", "NJ", "j", "i"]);
    }

    #[test]
    fn substitution_replaces_all_occurrences() {
        let e = var("i") + var("i") * cst(2);
        let s = e.substitute(&Var::new("i"), &cst(3));
        assert_eq!(s.eval(&BTreeMap::new()), Some(9));
    }

    #[test]
    fn affine_conversion_of_affine_expression() {
        let e = var("i") * cst(4) + var("j") - cst(7);
        let aff = e.as_affine().expect("affine");
        assert_eq!(aff.coefficient(&Var::new("i")), 4);
        assert_eq!(aff.coefficient(&Var::new("j")), 1);
        assert_eq!(aff.constant_part(), -7);
    }

    #[test]
    fn affine_conversion_rejects_products_of_variables() {
        assert!((var("i") * var("j")).as_affine().is_none());
        let div = Expr::Div(Box::new(var("i")), Box::new(cst(2)));
        assert!(div.as_affine().is_none());
    }

    #[test]
    fn affine_addition_cancels_terms() {
        let a = (var("i") - var("j")).as_affine().unwrap();
        let b = var("j").as_affine().unwrap();
        let sum = a + b;
        assert_eq!(sum.coefficient(&Var::new("j")), 0);
        assert_eq!(sum.vars().len(), 1);
    }

    #[test]
    fn affine_eval_matches_expr_eval() {
        let e = var("i") * cst(100) + var("j") * cst(-3) + cst(17);
        let aff = e.as_affine().unwrap();
        let bindings = bind(&[("i", 7), ("j", 13)]);
        let value = aff.terms().map(|(v, c)| c * bindings[v]).sum::<i64>() + aff.constant_part();
        assert_eq!(Some(value), e.eval(&bindings));
    }

    #[test]
    fn display_round_trips_visually() {
        let e = var("i") * cst(2) + cst(1);
        assert_eq!(format!("{e}"), "((i * 2) + 1)");
        let aff = e.as_affine().unwrap();
        assert_eq!(format!("{aff}"), "2*i + 1");
    }

    #[test]
    fn scaled_by_zero_is_constant_zero() {
        let aff = var("i").as_affine().unwrap().scaled(0);
        assert_eq!(aff, AffineExpr::constant(0));
    }

    #[test]
    fn uses_var_detects_presence() {
        let e = var("i") + var("j") * cst(2);
        assert!(e.uses_var(&Var::new("i")));
        assert!(e.uses_var(&Var::new("j")));
        assert!(!e.uses_var(&Var::new("k")));
    }
}
