//! The compiled loop-nest execution engine.
//!
//! Both executions the evaluation relies on — the semantic reference run of
//! [`crate::interp`] and the cache-trace walk of [`crate::trace`] — used to
//! walk the program tree with per-iteration `BTreeMap` bindings and a
//! symbolic `Expr::eval` per subscript. This module replaces that duplicated
//! hot path with a single lowering, [`CompiledProgram::lower`], performed
//! once per program:
//!
//! * **Flat storage and slot frames.** Arrays resolve to dense indices into
//!   the [`ProgramData`] storage vector; loop iterators and size parameters
//!   resolve to slots of a flat `i64` frame. No map lookups survive into the
//!   execution loop.
//! * **Affine offset/stride plans.** Every array access whose subscripts are
//!   affine over the iterators compiles to an affine form over frame slots,
//!   folded with the (unshadowed) parameter bindings. Inside an innermost
//!   loop the flat element offset of each access then advances by a constant
//!   stride per iteration, so both drivers run on incremental adds.
//! * **Closed-form zero-trip and constant-bound loops.** Bounds that fold to
//!   constants at lowering are evaluated exactly once; a loop whose domain is
//!   empty is skipped without touching its body, and statement/access counts
//!   of compiled innermost loops are computed as `trips * plan_len` instead
//!   of being accumulated per iteration.
//!
//! Two drivers share the lowering:
//!
//! * [`CompiledProgram::execute`] runs the program semantics over a
//!   [`ProgramData`] store — bit-identical array state to the retained
//!   tree-walking interpreter ([`crate::interp::reference`]) on every valid
//!   program, with full per-dimension bounds checking.
//! * [`CompiledProgram::stream`] emits the exact access trace into an
//!   [`AccessSink`], every compiled innermost loop as one closed-form
//!   lockstep [`crate::trace::StrideRun`] group ([`AccessSink::run_group`])
//!   built straight from the offset/stride plans — bit-identical to the
//!   retained symbolic walker ([`crate::trace::walk_accesses_symbolic`]).
//!
//! # Divergences on *invalid* programs
//!
//! Lowering is eager: unbound variables, non-positive steps and rank
//! mismatches are reported before anything executes, whereas the reference
//! walkers only failed upon reaching the offending node. Valid programs are
//! unaffected — in particular, a computation whose loads sit inside
//! [`ScalarExpr::Select`] branches (the boundary-condition idiom, where the
//! untaken branch may index out of bounds) is excluded from the semantic
//! fast path and executes with the reference's lazy evaluation. The
//! differential test suite pins the bit-identical behaviour on the whole
//! PolyBench + CLOUDSC corpus.

use std::collections::{BTreeMap, BTreeSet};

use loop_ir::array::AccessKind;
use loop_ir::expr::{AffineExpr, Expr, Var};
use loop_ir::nest::{trip_count, BlasCall, BlasKind, Computation, Loop, Node};
use loop_ir::program::Program;
use loop_ir::scalar::{BinOp, CmpOp, ScalarExpr, UnaryOp};

use crate::blas;
use crate::cache::AddressMap;
use crate::error::{MachineError, Result};
use crate::interp::ProgramData;
use crate::trace::{AccessSink, StrideRun, TraceEntry};

// ---------------------------------------------------------------------------
// Compiled forms
// ---------------------------------------------------------------------------

/// An affine integer expression over frame slots: `constant + Σ coeff·frame[slot]`.
#[derive(Debug, Clone, Default)]
struct CAffine {
    constant: i64,
    terms: Vec<(usize, i64)>,
}

impl CAffine {
    /// The value against the frame, or `None` when a product or sum leaves
    /// `i64`.
    fn checked_eval(&self, frame: &[i64]) -> Option<i64> {
        self.terms
            .iter()
            .try_fold(self.constant, |acc, &(slot, coeff)| {
                acc.checked_add(coeff.checked_mul(frame[slot])?)
            })
    }

    /// `(first, last, stride)`: the value at the first and the last of
    /// `trips` iterations of `slot` stepping by `step` from its frame value,
    /// and the change per iteration; `None` when any of them leaves `i64`.
    /// The value is monotonic in the one varying slot, so every iteration's
    /// value lies between the two endpoints.
    fn checked_run(
        &self,
        frame: &[i64],
        slot: usize,
        step: i64,
        trips: u64,
    ) -> Option<(i64, i64, i64)> {
        let first = self.checked_eval(frame)?;
        let stride = self.coeff(slot).checked_mul(step)?;
        let last = first.checked_add(stride.checked_mul(i64::try_from(trips - 1).ok()?)?)?;
        Some((first, last, stride))
    }

    /// Coefficient of the given slot (zero if absent).
    fn coeff(&self, slot: usize) -> i64 {
        self.terms
            .iter()
            .find(|(s, _)| *s == slot)
            .map(|(_, c)| *c)
            .unwrap_or(0)
    }
}

/// The row-major flat element offset `Σ stride · subscript` of compiled
/// affine subscripts, or `None` when a coefficient leaves `i64`.
fn flat_offset(dims: &[(CAffine, i64)], strides: &[i64]) -> Option<CAffine> {
    let mut flat = CAffine::default();
    for ((subscript, _), &stride) in dims.iter().zip(strides) {
        flat.constant = flat
            .constant
            .checked_add(subscript.constant.checked_mul(stride)?)?;
        for &(slot, coeff) in &subscript.terms {
            let scaled = coeff.checked_mul(stride)?;
            match flat.terms.iter_mut().find(|(s, _)| *s == slot) {
                Some(term) => term.1 = term.1.checked_add(scaled)?,
                None => flat.terms.push((slot, scaled)),
            }
        }
    }
    flat.terms.retain(|(_, c)| *c != 0);
    Some(flat)
}

/// A compiled integer expression. Affine expressions (the common case for
/// bounds and subscripts) evaluate without tree-walking; the general variants
/// mirror [`Expr`] with variables resolved to frame slots.
#[derive(Debug, Clone)]
enum CExpr {
    Const(i64),
    Affine(CAffine),
    Add(Box<CExpr>, Box<CExpr>),
    Sub(Box<CExpr>, Box<CExpr>),
    Mul(Box<CExpr>, Box<CExpr>),
    Div(Box<CExpr>, Box<CExpr>),
    Mod(Box<CExpr>, Box<CExpr>),
    Min(Box<CExpr>, Box<CExpr>),
    Max(Box<CExpr>, Box<CExpr>),
    Neg(Box<CExpr>),
}

impl CExpr {
    /// Evaluates against the frame; `None` on division by zero or when the
    /// value does not fit an `i64` (mirroring [`Expr::eval`]).
    fn eval(&self, frame: &[i64]) -> Option<i64> {
        match self {
            CExpr::Const(c) => Some(*c),
            CExpr::Affine(a) => a.checked_eval(frame),
            CExpr::Add(a, b) => a.eval(frame)?.checked_add(b.eval(frame)?),
            CExpr::Sub(a, b) => a.eval(frame)?.checked_sub(b.eval(frame)?),
            CExpr::Mul(a, b) => a.eval(frame)?.checked_mul(b.eval(frame)?),
            // The checked forms also refuse a zero divisor.
            CExpr::Div(a, b) => a.eval(frame)?.checked_div_euclid(b.eval(frame)?),
            CExpr::Mod(a, b) => a.eval(frame)?.checked_rem_euclid(b.eval(frame)?),
            CExpr::Min(a, b) => Some(a.eval(frame)?.min(b.eval(frame)?)),
            CExpr::Max(a, b) => Some(a.eval(frame)?.max(b.eval(frame)?)),
            CExpr::Neg(a) => a.eval(frame)?.checked_neg(),
        }
    }
}

/// A compiled bound: the compiled expression plus the source expression for
/// error messages (errors are the cold path; the clone is paid once at
/// lowering).
#[derive(Debug, Clone)]
struct CBound {
    compiled: CExpr,
    source: Expr,
}

impl CBound {
    fn eval(&self, frame: &[i64]) -> Result<i64> {
        self.compiled
            .eval(frame)
            .ok_or_else(|| MachineError::UnboundVariable(self.source.to_string()))
    }
}

/// One compiled memory access of a computation (or library-call operand).
#[derive(Debug, Clone)]
enum CAccess {
    /// All subscripts affine: per-dimension affine indices (for bounds
    /// checks) plus the precombined flat element offset.
    Affine {
        array: usize,
        is_write: bool,
        dims: Vec<(CAffine, i64)>,
        flat: CAffine,
    },
    /// At least one non-affine subscript: evaluated per dimension.
    Symbolic {
        array: usize,
        is_write: bool,
        indices: Vec<CBound>,
    },
}

impl CAccess {
    fn is_write(&self) -> bool {
        match self {
            CAccess::Affine { is_write, .. } | CAccess::Symbolic { is_write, .. } => *is_write,
        }
    }
}

/// A compiled scalar expression; mirrors [`ScalarExpr`] with loads resolved
/// to positions in the owning computation's access list and scalar
/// parameters folded to constants.
#[derive(Debug, Clone)]
enum CScalar {
    Load(usize),
    Const(f64),
    Index(Box<CBound>),
    Unary(UnaryOp, Box<CScalar>),
    Binary(BinOp, Box<CScalar>, Box<CScalar>),
    Select {
        lhs: Box<CScalar>,
        cmp: CmpOp,
        rhs: Box<CScalar>,
        then: Box<CScalar>,
        otherwise: Box<CScalar>,
    },
}

/// One instruction of a [`Postfix`] program.
#[derive(Debug, Clone, Copy)]
enum POp {
    /// Push the prefetched load at the given position.
    Load(u32),
    /// Push a constant.
    Const(f64),
    /// Pop one value, push `op(value)`.
    Unary(UnaryOp),
    /// Pop rhs then lhs, push `lhs op rhs`.
    Binary(BinOp),
    /// Pop otherwise, then, rhs, lhs; push `then` if `lhs cmp rhs` else
    /// `otherwise`. Both branches are evaluated — they are pure `f64`
    /// arithmetic, so the selected value is bit-identical to the
    /// short-circuiting tree walk.
    Select(CmpOp),
}

/// A scalar expression flattened to postfix form: no recursion, no error
/// plumbing, evaluated on a small value stack. Only expressions without
/// [`CScalar::Index`] leaves flatten (an `Index` can fail on division by
/// zero and needs the loop frame); the rest keep the tree walk.
#[derive(Debug, Clone)]
struct Postfix {
    ops: Vec<POp>,
}

impl Postfix {
    fn try_compile(e: &CScalar) -> Option<Postfix> {
        let mut ops = Vec::new();
        Self::flatten(e, &mut ops)?;
        Some(Postfix { ops })
    }

    fn flatten(e: &CScalar, ops: &mut Vec<POp>) -> Option<()> {
        match e {
            CScalar::Load(k) => ops.push(POp::Load(*k as u32)),
            CScalar::Const(c) => ops.push(POp::Const(*c)),
            CScalar::Index(_) => return None,
            CScalar::Unary(op, a) => {
                Self::flatten(a, ops)?;
                ops.push(POp::Unary(*op));
            }
            CScalar::Binary(op, a, b) => {
                Self::flatten(a, ops)?;
                Self::flatten(b, ops)?;
                ops.push(POp::Binary(*op));
            }
            CScalar::Select {
                lhs,
                cmp,
                rhs,
                then,
                otherwise,
            } => {
                Self::flatten(lhs, ops)?;
                Self::flatten(rhs, ops)?;
                Self::flatten(then, ops)?;
                Self::flatten(otherwise, ops)?;
                ops.push(POp::Select(*cmp));
            }
        }
        Some(())
    }

    /// Evaluates against prefetched loads. `stack` is caller-provided
    /// scratch, cleared here.
    fn eval(&self, loads: &[f64], stack: &mut Vec<f64>) -> f64 {
        stack.clear();
        for op in &self.ops {
            match *op {
                POp::Load(k) => stack.push(loads[k as usize]),
                POp::Const(c) => stack.push(c),
                POp::Unary(op) => {
                    let a = stack.pop().expect("postfix stack underflow");
                    stack.push(op.apply(a));
                }
                POp::Binary(op) => {
                    let rhs = stack.pop().expect("postfix stack underflow");
                    let lhs = stack.pop().expect("postfix stack underflow");
                    stack.push(op.apply(lhs, rhs));
                }
                POp::Select(cmp) => {
                    let otherwise = stack.pop().expect("postfix stack underflow");
                    let then = stack.pop().expect("postfix stack underflow");
                    let rhs = stack.pop().expect("postfix stack underflow");
                    let lhs = stack.pop().expect("postfix stack underflow");
                    stack.push(if cmp.apply(lhs, rhs) { then } else { otherwise });
                }
            }
        }
        stack.pop().expect("postfix leaves one value")
    }
}

/// A compiled computation. `accesses` is in [`Computation::accesses`] order:
/// the `n_loads` value loads, then (for reductions) the read of the target,
/// then the write of the target.
#[derive(Debug, Clone)]
struct CComp {
    accesses: Vec<CAccess>,
    n_loads: usize,
    reduction: Option<BinOp>,
    value: CScalar,
    /// Flattened form of `value`, used by the innermost fast path.
    postfix: Option<Postfix>,
    /// True when some load sits inside a select branch, i.e. the reference
    /// interpreter may never evaluate (or bounds-check) it.
    conditional_loads: bool,
}

/// True when a load of the expression sits inside a [`ScalarExpr::Select`]
/// `then`/`otherwise` branch (the comparison operands are always evaluated).
fn has_conditional_loads(e: &ScalarExpr) -> bool {
    match e {
        ScalarExpr::Load(_)
        | ScalarExpr::Const(_)
        | ScalarExpr::Param(_)
        | ScalarExpr::Index(_) => false,
        ScalarExpr::Unary(_, a) => has_conditional_loads(a),
        ScalarExpr::Binary(_, a, b) => has_conditional_loads(a) || has_conditional_loads(b),
        ScalarExpr::Select {
            lhs,
            rhs,
            then,
            otherwise,
            ..
        } => {
            has_conditional_loads(lhs)
                || has_conditional_loads(rhs)
                || !then.loads().is_empty()
                || !otherwise.loads().is_empty()
        }
    }
}

impl CComp {
    fn target(&self) -> &CAccess {
        self.accesses.last().expect("accesses end with the write")
    }
}

/// A compiled library call.
#[derive(Debug, Clone)]
struct CCall {
    kind: BlasKind,
    output: usize,
    inputs: Vec<usize>,
    dims: Vec<CExpr>,
    alpha: CScalar,
    alpha_accesses: Vec<CAccess>,
    beta: CScalar,
    beta_accesses: Vec<CAccess>,
}

/// A compiled loop.
#[derive(Debug, Clone)]
struct CLoop {
    slot: usize,
    lower: CBound,
    upper: CBound,
    step: i64,
    body: Vec<CNode>,
    /// True when the body consists solely of computations whose accesses are
    /// all affine — the precondition for the incremental innermost plans of
    /// the trace walker (which emits every access unconditionally, exactly
    /// like the symbolic reference walker).
    inner: bool,
    /// Like [`inner`](CLoop::inner), but additionally no computation loads
    /// through an untaken-able [`ScalarExpr::Select`] branch. The *semantic*
    /// fast path prefetches and endpoint-bounds-checks every access, so a
    /// select-guarded boundary load (`i >= 1 ? A[i-1] : 0.0`) must take the
    /// generic path, whose lazy evaluation matches the reference
    /// interpreter exactly.
    inner_exec: bool,
    /// Access-list base offset of each body node inside the shared cursor
    /// scratch, precomputed so loop entries allocate nothing.
    bases: Vec<usize>,
    /// True when the subtree's *trace* is independent of this loop's
    /// iterator: every access in the body is affine with a zero coefficient
    /// on the loop's slot, and no descendant loop bound references it. Such
    /// a loop re-emits the identical access sequence every iteration, so
    /// summarizing sinks can consume the body once through the
    /// [`AccessSink::begin_repeat`] protocol.
    trace_invariant: bool,
}

#[derive(Debug, Clone)]
enum CNode {
    Loop(CLoop),
    Comp(CComp),
    Call(CCall),
}

/// Whether a compiled bound provably does not depend on `slot`. Non-affine
/// bounds answer `false` conservatively.
fn bound_independent(b: &CBound, slot: usize) -> bool {
    match &b.compiled {
        CExpr::Const(_) => true,
        CExpr::Affine(a) => a.coeff(slot) == 0,
        _ => false,
    }
}

/// How the trace emitted by `nodes` moves with `frame[slot]`: provably a
/// pure per-array translation when every access is affine, all accesses to
/// one array share one flat-offset coefficient on the slot, and no
/// descendant loop bound references it. On success `shifts[array]` holds
/// that coefficient (elements per unit of the iterator) for every array
/// the subtree touches, and raising the iterator by `d` replays the same
/// emission sequence with each array's offsets moved by `d × coefficient`.
/// All-zero coefficients are the iterator-invariant case. Symbolic accesses
/// and descendants rebinding the slot answer `false` conservatively;
/// library calls emit nothing into the trace and are neutral.
fn subtree_slot_shifts(nodes: &[CNode], slot: usize, shifts: &mut [Option<i64>]) -> bool {
    nodes.iter().all(|node| match node {
        CNode::Comp(c) => c.accesses.iter().all(|a| match a {
            CAccess::Affine { array, flat, .. } => {
                *shifts[*array].get_or_insert(flat.coeff(slot)) == flat.coeff(slot)
            }
            CAccess::Symbolic { .. } => false,
        }),
        CNode::Loop(inner) => {
            inner.slot != slot
                && bound_independent(&inner.lower, slot)
                && bound_independent(&inner.upper, slot)
                && subtree_slot_shifts(&inner.body, slot, shifts)
        }
        CNode::Call(_) => true,
    })
}

/// One array's translation per trip of the block loop, as
/// [`CompiledProgram::block_shifts`] reports it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ArrayShift {
    /// The array's slot.
    array: usize,
    /// Elements every offset into the array advances per block trip.
    elems: u64,
    /// Array length in elements.
    len: u64,
    /// `elems` in bytes.
    pub(crate) bytes: u64,
}

/// What one [`CompiledProgram::stream_block_range`] call touched: per array
/// slot, the lowest and highest flat element offset the stream computed —
/// before clamping, so a negative minimum records a clamped access.
/// Untouched arrays keep `(i64::MAX, i64::MIN)`.
#[derive(Debug, Clone)]
pub(crate) struct BlockFootprint {
    extents: Vec<(i64, i64)>,
}

impl BlockFootprint {
    /// Whether replaying this stream `trips` block iterations later — each
    /// array moved by its shift — keeps every access inside its own array:
    /// nothing clamps at an array base and nothing spills past an array's
    /// end into a neighbour's lines. All-zero shifts replay the identical
    /// stream, whatever it touches.
    pub(crate) fn translates(&self, shifts: &[ArrayShift], trips: u64) -> bool {
        shifts.iter().all(|s| s.elems == 0)
            || shifts.iter().all(|s| {
                let (min, max) = self.extents[s.array];
                // Trip counts and shifts both come from `i64`s, so the
                // product stays far inside `i128`.
                let last = i128::from(max) + i128::from(trips) * i128::from(s.elems);
                max < min || (min >= 0 && last < i128::from(s.len))
            })
    }
}

/// Per-array lowering result: name, layout and the trace base address.
#[derive(Debug, Clone)]
struct CArray {
    name: Var,
    /// `None` when the extents cannot be evaluated (only an error if the
    /// array is actually accessed).
    layout: Option<Layout>,
    elem_size: usize,
    base: u64,
}

#[derive(Debug, Clone)]
struct Layout {
    dims: Vec<i64>,
    strides: Vec<i64>,
}

// ---------------------------------------------------------------------------
// Lowering
// ---------------------------------------------------------------------------

/// A program lowered for repeated execution: the shared engine behind the
/// interpreter ([`execute`](CompiledProgram::execute)) and the trace walker
/// ([`stream`](CompiledProgram::stream)).
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    nodes: Vec<CNode>,
    frame_init: Vec<i64>,
    arrays: Vec<CArray>,
}

struct Lowerer<'p> {
    program: &'p Program,
    slots: BTreeMap<Var, usize>,
    frame_init: Vec<i64>,
    arrays: Vec<CArray>,
    array_slots: BTreeMap<Var, usize>,
    /// Parameter bindings folded into affine subscripts: every parameter not
    /// shadowed by a loop iterator somewhere in the program.
    fold_bindings: BTreeMap<Var, i64>,
}

impl CompiledProgram {
    /// Lowers a program. Performed once; the result can drive any number of
    /// executions and trace walks.
    ///
    /// # Errors
    /// Unbound variables or sizes, non-positive loop steps and subscript
    /// rank mismatches are reported here, before anything executes.
    pub fn lower(program: &Program) -> Result<CompiledProgram> {
        let map = AddressMap::for_program(program);
        let mut arrays = Vec::new();
        let mut array_slots = BTreeMap::new();
        for (name, array) in &program.arrays {
            let layout = array.concrete_dims(&program.params).and_then(|dims| {
                if dims.iter().any(|d| *d < 0) {
                    return None;
                }
                array
                    .strides(&program.params)
                    .map(|strides| Layout { dims, strides })
            });
            array_slots.insert(name.clone(), arrays.len());
            arrays.push(CArray {
                name: name.clone(),
                layout,
                elem_size: array.elem_size,
                base: map.base(name.as_str()).unwrap_or(0),
            });
        }

        // Iterators that shadow a parameter keep the parameter out of
        // constant folding: its frame slot is rebound inside such loops.
        let mut iterators = BTreeSet::new();
        fn collect_iterators(node: &Node, out: &mut BTreeSet<Var>) {
            if let Node::Loop(l) = node {
                out.insert(l.iter.clone());
                for n in &l.body {
                    collect_iterators(n, out);
                }
            }
        }
        for node in &program.body {
            collect_iterators(node, &mut iterators);
        }
        let fold_bindings: BTreeMap<Var, i64> = program
            .params
            .iter()
            .filter(|(name, _)| !iterators.contains(*name))
            .map(|(name, value)| (name.clone(), *value))
            .collect();

        let mut lowerer = Lowerer {
            program,
            slots: BTreeMap::new(),
            frame_init: Vec::new(),
            arrays,
            array_slots,
            fold_bindings,
        };
        for (name, value) in &program.params {
            let slot = lowerer.frame_init.len();
            lowerer.slots.insert(name.clone(), slot);
            lowerer.frame_init.push(*value);
        }
        let nodes = program
            .body
            .iter()
            .map(|node| lowerer.lower_node(node))
            .collect::<Result<Vec<_>>>()?;
        Ok(CompiledProgram {
            nodes,
            frame_init: lowerer.frame_init,
            arrays: lowerer.arrays,
        })
    }

    /// The error of a subscript of `array` whose value leaves `i64`: the
    /// kind the reference interpreter and walker report for it.
    fn subscript_overflow(&self, array: usize) -> MachineError {
        MachineError::UnboundVariable(format!("subscript of {}", self.arrays[array].name))
    }

    /// Names of the arrays in slot order, for storage-compatibility checks.
    fn check_data(&self, data: &ProgramData) -> Result<()> {
        let names = data.array_names();
        if names.len() != self.arrays.len()
            || self.arrays.iter().zip(names).any(|(a, n)| &a.name != n)
        {
            return Err(MachineError::UnknownArray(
                "program data does not match the compiled program".to_string(),
            ));
        }
        Ok(())
    }
}

impl<'p> Lowerer<'p> {
    fn slot_of(&mut self, v: &Var) -> Result<usize> {
        if let Some(slot) = self.slots.get(v) {
            return Ok(*slot);
        }
        Err(MachineError::UnboundVariable(v.to_string()))
    }

    /// Slot for a loop iterator: reuses an existing slot of the same name
    /// (shadowed parameters, repeated iterator names across sibling loops —
    /// the runtime saves and restores the slot around the loop).
    fn iterator_slot(&mut self, v: &Var) -> usize {
        if let Some(slot) = self.slots.get(v) {
            return *slot;
        }
        let slot = self.frame_init.len();
        self.slots.insert(v.clone(), slot);
        self.frame_init.push(0);
        slot
    }

    fn lower_affine(&mut self, affine: &AffineExpr) -> Result<CAffine> {
        let mut out = CAffine {
            constant: affine.constant_part(),
            terms: Vec::new(),
        };
        for (v, c) in affine.terms() {
            out.terms.push((self.slot_of(v)?, c));
        }
        Ok(out)
    }

    fn lower_expr(&mut self, e: &Expr) -> Result<CExpr> {
        if let Some(affine) = e.affine_with(&self.fold_bindings) {
            return Ok(match affine.as_constant() {
                Some(c) => CExpr::Const(c),
                None => CExpr::Affine(self.lower_affine(&affine)?),
            });
        }
        let bin = |l: &mut Self, a: &Expr, b: &Expr| -> Result<(Box<CExpr>, Box<CExpr>)> {
            Ok((Box::new(l.lower_expr(a)?), Box::new(l.lower_expr(b)?)))
        };
        Ok(match e {
            Expr::Const(c) => CExpr::Const(*c),
            Expr::Var(v) => CExpr::Affine(CAffine {
                constant: 0,
                terms: vec![(self.slot_of(v)?, 1)],
            }),
            Expr::Add(a, b) => {
                let (a, b) = bin(self, a, b)?;
                CExpr::Add(a, b)
            }
            Expr::Sub(a, b) => {
                let (a, b) = bin(self, a, b)?;
                CExpr::Sub(a, b)
            }
            Expr::Mul(a, b) => {
                let (a, b) = bin(self, a, b)?;
                CExpr::Mul(a, b)
            }
            Expr::Div(a, b) => {
                let (a, b) = bin(self, a, b)?;
                CExpr::Div(a, b)
            }
            Expr::Mod(a, b) => {
                let (a, b) = bin(self, a, b)?;
                CExpr::Mod(a, b)
            }
            Expr::Min(a, b) => {
                let (a, b) = bin(self, a, b)?;
                CExpr::Min(a, b)
            }
            Expr::Max(a, b) => {
                let (a, b) = bin(self, a, b)?;
                CExpr::Max(a, b)
            }
            Expr::Neg(a) => CExpr::Neg(Box::new(self.lower_expr(a)?)),
        })
    }

    fn lower_bound(&mut self, e: &Expr) -> Result<CBound> {
        Ok(CBound {
            compiled: self.lower_expr(e)?,
            source: e.clone(),
        })
    }

    fn lower_access(
        &mut self,
        array_ref: &loop_ir::array::ArrayRef,
        is_write: bool,
    ) -> Result<CAccess> {
        let array = *self
            .array_slots
            .get(&array_ref.array)
            .ok_or_else(|| MachineError::UnknownArray(array_ref.array.to_string()))?;
        let layout = self.arrays[array]
            .layout
            .as_ref()
            .ok_or_else(|| MachineError::UnboundSize(array_ref.array.to_string()))?
            .clone();
        if layout.dims.len() != array_ref.indices.len() {
            return Err(MachineError::OutOfBounds {
                array: array_ref.array.to_string(),
                index: -1,
            });
        }
        let affine: Option<Vec<AffineExpr>> = array_ref
            .indices
            .iter()
            .map(|e| e.affine_with(&self.fold_bindings))
            .collect();
        if let Some(indices) = affine {
            let mut dims = Vec::with_capacity(indices.len());
            for (affine, extent) in indices.iter().zip(&layout.dims) {
                dims.push((self.lower_affine(affine)?, *extent));
            }
            // A flat offset that leaves `i64` is evaluated per access.
            if let Some(flat) = flat_offset(&dims, &layout.strides) {
                return Ok(CAccess::Affine {
                    array,
                    is_write,
                    dims,
                    flat,
                });
            }
        }
        Ok(CAccess::Symbolic {
            array,
            is_write,
            indices: array_ref
                .indices
                .iter()
                .map(|e| self.lower_bound(e))
                .collect::<Result<Vec<_>>>()?,
        })
    }

    /// Lowers a scalar expression; loads are numbered in
    /// [`ScalarExpr::loads`] order via `next_load`.
    fn lower_scalar(&mut self, e: &ScalarExpr, next_load: &mut usize) -> Result<CScalar> {
        Ok(match e {
            ScalarExpr::Load(_) => {
                let k = *next_load;
                *next_load += 1;
                CScalar::Load(k)
            }
            ScalarExpr::Const(c) => CScalar::Const(*c),
            ScalarExpr::Param(p) => CScalar::Const(
                self.program
                    .scalar_params
                    .get(p)
                    .copied()
                    .ok_or_else(|| MachineError::UnboundVariable(p.to_string()))?,
            ),
            ScalarExpr::Index(e) => CScalar::Index(Box::new(self.lower_bound(e)?)),
            ScalarExpr::Unary(op, a) => {
                CScalar::Unary(*op, Box::new(self.lower_scalar(a, next_load)?))
            }
            ScalarExpr::Binary(op, a, b) => CScalar::Binary(
                *op,
                Box::new(self.lower_scalar(a, next_load)?),
                Box::new(self.lower_scalar(b, next_load)?),
            ),
            ScalarExpr::Select {
                lhs,
                cmp,
                rhs,
                then,
                otherwise,
            } => CScalar::Select {
                lhs: Box::new(self.lower_scalar(lhs, next_load)?),
                cmp: *cmp,
                rhs: Box::new(self.lower_scalar(rhs, next_load)?),
                then: Box::new(self.lower_scalar(then, next_load)?),
                otherwise: Box::new(self.lower_scalar(otherwise, next_load)?),
            },
        })
    }

    fn lower_comp(&mut self, comp: &Computation) -> Result<CComp> {
        let accesses = comp
            .accesses()
            .iter()
            .map(|a| self.lower_access(a.array_ref, a.kind == AccessKind::Write))
            .collect::<Result<Vec<_>>>()?;
        // The loads, then the reduction's read of the target, then the write.
        let n_loads = accesses.len() - 1 - usize::from(comp.reduction.is_some());
        let mut next_load = 0usize;
        let value = self.lower_scalar(&comp.value, &mut next_load)?;
        debug_assert_eq!(next_load, n_loads);
        let postfix = Postfix::try_compile(&value);
        Ok(CComp {
            accesses,
            n_loads,
            reduction: comp.reduction,
            value,
            postfix,
            conditional_loads: has_conditional_loads(&comp.value),
        })
    }

    fn lower_call(&mut self, call: &BlasCall) -> Result<CCall> {
        let array_slot = |l: &Self, name: &Var| -> Result<usize> {
            l.array_slots
                .get(name)
                .copied()
                .ok_or_else(|| MachineError::UnknownArray(name.to_string()))
        };
        let output = array_slot(self, &call.output)?;
        let inputs = call
            .inputs
            .iter()
            .map(|name| array_slot(self, name))
            .collect::<Result<Vec<_>>>()?;
        let dims = call
            .dims
            .iter()
            .map(|d| self.lower_expr(d))
            .collect::<Result<Vec<_>>>()?;
        let lower_operand = |l: &mut Self, e: &ScalarExpr| -> Result<(CScalar, Vec<CAccess>)> {
            let accesses = e
                .loads()
                .iter()
                .map(|r| l.lower_access(r, false))
                .collect::<Result<Vec<_>>>()?;
            let mut next = 0usize;
            let scalar = l.lower_scalar(e, &mut next)?;
            Ok((scalar, accesses))
        };
        let (alpha, alpha_accesses) = lower_operand(self, &call.alpha)?;
        let (beta, beta_accesses) = lower_operand(self, &call.beta)?;
        Ok(CCall {
            kind: call.kind,
            output,
            inputs,
            dims,
            alpha,
            alpha_accesses,
            beta,
            beta_accesses,
        })
    }

    fn lower_loop(&mut self, l: &Loop) -> Result<CLoop> {
        if l.step <= 0 {
            return Err(MachineError::InvalidLoop(l.iter.to_string()));
        }
        let lower = self.lower_bound(&l.lower)?;
        let upper = self.lower_bound(&l.upper)?;
        let slot = self.iterator_slot(&l.iter);
        let body = l
            .body
            .iter()
            .map(|n| self.lower_node(n))
            .collect::<Result<Vec<_>>>()?;
        let inner = body.iter().all(|n| {
            matches!(n, CNode::Comp(c)
                if c.accesses.iter().all(|a| matches!(a, CAccess::Affine { .. })))
        });
        let inner_exec = inner
            && body
                .iter()
                .all(|n| matches!(n, CNode::Comp(c) if !c.conditional_loads));
        let bases = if inner {
            let mut bases = Vec::with_capacity(body.len());
            let mut base = 0usize;
            for node in &body {
                bases.push(base);
                if let CNode::Comp(c) = node {
                    base += c.accesses.len();
                }
            }
            bases
        } else {
            Vec::new()
        };
        let mut shifts = vec![None; self.arrays.len()];
        let trace_invariant = subtree_slot_shifts(&body, slot, &mut shifts)
            && shifts.iter().all(|c| c.unwrap_or(0) == 0);
        Ok(CLoop {
            trace_invariant,
            slot,
            lower,
            upper,
            step: l.step,
            body,
            inner,
            inner_exec,
            bases,
        })
    }

    fn lower_node(&mut self, node: &Node) -> Result<CNode> {
        Ok(match node {
            Node::Loop(l) => CNode::Loop(self.lower_loop(l)?),
            Node::Computation(c) => CNode::Comp(self.lower_comp(c)?),
            Node::Call(call) => CNode::Call(self.lower_call(call)?),
        })
    }
}

// ---------------------------------------------------------------------------
// Semantic execution
// ---------------------------------------------------------------------------

/// Flat-offset cursor of one access inside a compiled innermost loop.
#[derive(Debug, Clone, Copy)]
struct Cursor {
    array: usize,
    offset: i64,
    stride: i64,
}

struct Executor<'a, 'c> {
    compiled: &'c CompiledProgram,
    data: &'a mut ProgramData,
    frame: Vec<i64>,
    statements: u64,
    /// Scratch reused across innermost-loop entries (innermost loops cannot
    /// nest, so one buffer suffices).
    cursors: Vec<Cursor>,
    loads: Vec<f64>,
    stack: Vec<f64>,
}

impl CompiledProgram {
    /// Executes the program semantics over `data`, returning the number of
    /// computation instances executed.
    ///
    /// # Errors
    /// Out-of-bounds accesses and non-evaluable expressions; `data` is left
    /// in an unspecified (partially updated) state on error.
    pub fn execute(&self, data: &mut ProgramData) -> Result<u64> {
        self.check_data(data)?;
        let mut exec = Executor {
            compiled: self,
            data,
            frame: self.frame_init.clone(),
            statements: 0,
            cursors: Vec::new(),
            loads: Vec::new(),
            stack: Vec::new(),
        };
        for node in &self.nodes {
            exec.exec_node(node)?;
        }
        Ok(exec.statements)
    }
}

impl Executor<'_, '_> {
    fn exec_node(&mut self, node: &CNode) -> Result<()> {
        match node {
            CNode::Loop(l) => self.exec_loop(l),
            CNode::Comp(c) => self.exec_comp(c),
            CNode::Call(c) => self.exec_call(c),
        }
    }

    fn exec_loop(&mut self, l: &CLoop) -> Result<()> {
        let lower = l.lower.eval(&self.frame)?;
        let upper = l.upper.eval(&self.frame)?;
        if upper <= lower {
            // Zero-trip: closed form, the body is never touched.
            return Ok(());
        }
        let saved = self.frame[l.slot];
        let result = if l.inner_exec && self.exec_inner(l, lower, upper)? {
            telemetry::counter("machine.exec.compiled_inner_loops", 1);
            Ok(())
        } else {
            if l.inner {
                // Trace-innermost but not exec-compilable, or a subscript
                // leaves `i64` inside the domain: the interpreter walks it
                // one iteration at a time.
                telemetry::counter("machine.exec.interp_fallback_loops", 1);
            }
            let mut v = lower;
            loop {
                self.frame[l.slot] = v;
                for child in &l.body {
                    self.exec_node(child)?;
                }
                // An iterate past `i64::MAX` is past `upper` too.
                match v.checked_add(l.step) {
                    Some(next) if next < upper => v = next,
                    _ => break Ok(()),
                }
            }
        };
        self.frame[l.slot] = saved;
        result
    }

    /// The innermost fast path: flat offsets advance by constant strides,
    /// per-dimension bounds are verified once at the domain endpoints
    /// (affine indices of a single varying iterator are monotonic).
    /// Returns `false`, having executed nothing, when an endpoint leaves
    /// `i64`: the caller then walks the loop per iteration, which reports
    /// the first failing access exactly as the reference does.
    fn exec_inner(&mut self, l: &CLoop, lower: i64, upper: i64) -> Result<bool> {
        let trips = trip_count(lower, upper, l.step);
        self.frame[l.slot] = lower;
        self.cursors.clear();
        for node in &l.body {
            let CNode::Comp(comp) = node else {
                unreachable!("inner loops contain only computations")
            };
            for access in &comp.accesses {
                let CAccess::Affine {
                    array, dims, flat, ..
                } = access
                else {
                    unreachable!("inner accesses are affine")
                };
                for (affine, extent) in dims {
                    let Some((start, last, _)) =
                        affine.checked_run(&self.frame, l.slot, l.step, trips)
                    else {
                        return Ok(false);
                    };
                    for endpoint in [start, last] {
                        if endpoint < 0 || endpoint >= *extent {
                            return Err(MachineError::OutOfBounds {
                                array: self.compiled.arrays[*array].name.to_string(),
                                index: endpoint,
                            });
                        }
                    }
                }
                let Some((offset, _, stride)) =
                    flat.checked_run(&self.frame, l.slot, l.step, trips)
                else {
                    return Ok(false);
                };
                self.cursors.push(Cursor {
                    array: *array,
                    offset,
                    stride,
                });
            }
        }
        let max_loads = l
            .body
            .iter()
            .map(|node| match node {
                CNode::Comp(c) => c.n_loads,
                _ => 0,
            })
            .max()
            .unwrap_or(0);
        if self.loads.len() < max_loads {
            self.loads.resize(max_loads, 0.0);
        }
        let mut v = lower;
        for _ in 0..trips {
            self.frame[l.slot] = v;
            for (node, &base) in l.body.iter().zip(&l.bases) {
                let CNode::Comp(comp) = node else {
                    unreachable!("inner loops contain only computations")
                };
                // Split the executor's fields so the prefetch can advance
                // cursors while reading array data in one pass.
                let span = base..base + comp.accesses.len();
                let cursors = &mut self.cursors[span];
                let (load_cursors, rest) = cursors.split_at_mut(comp.n_loads);
                // Cursors advance wrapping: the advance past the last
                // iteration is never read and may leave `i64`.
                for (slot, cursor) in self.loads.iter_mut().zip(load_cursors.iter_mut()) {
                    *slot = self.data.storage(cursor.array).data[cursor.offset as usize];
                    cursor.offset = cursor.offset.wrapping_add(cursor.stride);
                }
                let value = match &comp.postfix {
                    Some(postfix) => postfix.eval(&self.loads, &mut self.stack),
                    None => eval_scalar_buffered(&comp.value, &self.loads, &self.frame)?,
                };
                let target = *rest.last().expect("accesses end with the write");
                for cursor in rest {
                    cursor.offset = cursor.offset.wrapping_add(cursor.stride);
                }
                let slot = &mut self.data.storage_mut(target.array).data[target.offset as usize];
                *slot = match comp.reduction {
                    Some(op) => op.apply(*slot, value),
                    None => value,
                };
            }
            let Some(next) = v.checked_add(l.step) else {
                break;
            };
            v = next;
        }
        self.statements += trips * l.body.len() as u64;
        Ok(true)
    }

    /// Resolves an access to `(array, flat index)` with per-dimension bounds
    /// checks — the generic path outside compiled innermost loops.
    fn access_flat(&self, access: &CAccess) -> Result<(usize, usize)> {
        match access {
            CAccess::Affine {
                array, dims, flat, ..
            } => {
                for (affine, extent) in dims {
                    let idx = affine
                        .checked_eval(&self.frame)
                        .ok_or_else(|| self.compiled.subscript_overflow(*array))?;
                    if idx < 0 || idx >= *extent {
                        return Err(MachineError::OutOfBounds {
                            array: self.compiled.arrays[*array].name.to_string(),
                            index: idx,
                        });
                    }
                }
                let flat = flat
                    .checked_eval(&self.frame)
                    .ok_or_else(|| self.compiled.subscript_overflow(*array))?;
                Ok((*array, flat as usize))
            }
            CAccess::Symbolic { array, indices, .. } => {
                let layout = self.compiled.arrays[*array]
                    .layout
                    .as_ref()
                    .expect("symbolic accesses lower only with a layout");
                let mut flat = 0i64;
                for ((bound, extent), stride) in
                    indices.iter().zip(&layout.dims).zip(&layout.strides)
                {
                    let idx = bound.eval(&self.frame)?;
                    if idx < 0 || idx >= *extent {
                        return Err(MachineError::OutOfBounds {
                            array: self.compiled.arrays[*array].name.to_string(),
                            index: idx,
                        });
                    }
                    flat = idx
                        .checked_mul(*stride)
                        .and_then(|term| flat.checked_add(term))
                        .ok_or_else(|| self.compiled.subscript_overflow(*array))?;
                }
                Ok((*array, flat as usize))
            }
        }
    }

    fn load_access(&self, access: &CAccess) -> Result<f64> {
        let (array, flat) = self.access_flat(access)?;
        Ok(self.data.storage(array).data[flat])
    }

    /// Evaluates a compiled scalar with loads resolved on demand (lazily for
    /// untaken select branches, exactly like the reference interpreter).
    fn eval_scalar_direct(&self, e: &CScalar, accesses: &[CAccess]) -> Result<f64> {
        Ok(match e {
            CScalar::Load(k) => self.load_access(&accesses[*k])?,
            CScalar::Const(c) => *c,
            CScalar::Index(b) => b.eval(&self.frame)? as f64,
            CScalar::Unary(op, a) => op.apply(self.eval_scalar_direct(a, accesses)?),
            CScalar::Binary(op, a, b) => op.apply(
                self.eval_scalar_direct(a, accesses)?,
                self.eval_scalar_direct(b, accesses)?,
            ),
            CScalar::Select {
                lhs,
                cmp,
                rhs,
                then,
                otherwise,
            } => {
                let l = self.eval_scalar_direct(lhs, accesses)?;
                let r = self.eval_scalar_direct(rhs, accesses)?;
                if cmp.apply(l, r) {
                    self.eval_scalar_direct(then, accesses)?
                } else {
                    self.eval_scalar_direct(otherwise, accesses)?
                }
            }
        })
    }

    fn exec_comp(&mut self, comp: &CComp) -> Result<()> {
        self.statements += 1;
        let value = self.eval_scalar_direct(&comp.value, &comp.accesses)?;
        let (array, flat) = self.access_flat(comp.target())?;
        let result = match comp.reduction {
            Some(op) => op.apply(self.data.storage(array).data[flat], value),
            None => value,
        };
        self.data.storage_mut(array).data[flat] = result;
        Ok(())
    }

    fn exec_call(&mut self, call: &CCall) -> Result<()> {
        let dims: Option<Vec<i64>> = call.dims.iter().map(|d| d.eval(&self.frame)).collect();
        let dims = dims.ok_or_else(|| MachineError::UnboundVariable("blas dims".to_string()))?;
        let alpha = self.eval_scalar_direct(&call.alpha, &call.alpha_accesses)?;
        let beta = self.eval_scalar_direct(&call.beta, &call.beta_accesses)?;
        let input = |exec: &Self, i: usize| -> Result<Vec<f64>> {
            let slot = call
                .inputs
                .get(i)
                .copied()
                .ok_or_else(|| MachineError::UnknownArray(format!("blas input {i}")))?;
            Ok(exec.data.storage(slot).data.clone())
        };
        match call.kind {
            BlasKind::Gemm => {
                let (m, n, k) = (dims[0] as usize, dims[1] as usize, dims[2] as usize);
                let a = input(self, 0)?;
                let b = input(self, 1)?;
                let c = &mut self.data.storage_mut(call.output).data;
                blas::dgemm(m, n, k, alpha, &a, &b, beta, c);
            }
            BlasKind::Syrk => {
                let (n, k) = (dims[0] as usize, dims[1] as usize);
                let a = input(self, 0)?;
                let c = &mut self.data.storage_mut(call.output).data;
                blas::dsyrk(n, k, alpha, &a, beta, c);
            }
            BlasKind::Syr2k => {
                let (n, k) = (dims[0] as usize, dims[1] as usize);
                let a = input(self, 0)?;
                let b = input(self, 1)?;
                let c = &mut self.data.storage_mut(call.output).data;
                blas::dsyr2k(n, k, alpha, &a, &b, beta, c);
            }
            BlasKind::Gemv => {
                let (m, n) = (dims[0] as usize, dims[1] as usize);
                let a = input(self, 0)?;
                let x = input(self, 1)?;
                let y = &mut self.data.storage_mut(call.output).data;
                blas::dgemv(m, n, alpha, &a, &x, beta, y);
            }
        }
        Ok(())
    }
}

/// Evaluates a compiled scalar with loads prefetched into `loads` — the
/// tree-walking fallback of the innermost fast path, needed only when the
/// expression contains an [`CScalar::Index`] leaf (which reads the frame and
/// can fail on division by zero).
fn eval_scalar_buffered(e: &CScalar, loads: &[f64], frame: &[i64]) -> Result<f64> {
    Ok(match e {
        CScalar::Load(k) => loads[*k],
        CScalar::Const(c) => *c,
        CScalar::Index(b) => b.eval(frame)? as f64,
        CScalar::Unary(op, a) => op.apply(eval_scalar_buffered(a, loads, frame)?),
        CScalar::Binary(op, a, b) => op.apply(
            eval_scalar_buffered(a, loads, frame)?,
            eval_scalar_buffered(b, loads, frame)?,
        ),
        CScalar::Select {
            lhs,
            cmp,
            rhs,
            then,
            otherwise,
        } => {
            let l = eval_scalar_buffered(lhs, loads, frame)?;
            let r = eval_scalar_buffered(rhs, loads, frame)?;
            if cmp.apply(l, r) {
                eval_scalar_buffered(then, loads, frame)?
            } else {
                eval_scalar_buffered(otherwise, loads, frame)?
            }
        }
    })
}

// ---------------------------------------------------------------------------
// Trace streaming
// ---------------------------------------------------------------------------

struct Streamer<'c> {
    compiled: &'c CompiledProgram,
    frame: Vec<i64>,
    count: u64,
    /// Scratch run-group plan reused across innermost-loop entries.
    runs: Vec<StrideRun>,
    /// Per array slot, the lowest and highest flat element offset computed
    /// so far, before clamping (see [`BlockFootprint`]).
    extents: Vec<(i64, i64)>,
}

impl CompiledProgram {
    /// Streams the program's access trace in execution order into `sink`,
    /// emitting every compiled innermost loop as one lockstep
    /// [`StrideRun`] group ([`AccessSink::run_group`]) built straight from
    /// the affine offset/stride plans — individual addresses are only ever
    /// materialized by sinks that ask for them (the default `run_group`
    /// expansion). Returns the total number of accesses streamed.
    ///
    /// Addresses follow the [`AddressMap`] layout; negative offsets clamp to
    /// the array base, exactly like the symbolic reference walker.
    ///
    /// # Errors
    /// Non-evaluable bounds or subscripts.
    pub fn stream(&self, sink: &mut impl AccessSink) -> Result<u64> {
        let mut streamer = Streamer::new(self);
        for node in &self.nodes {
            streamer.stream_node(node, sink)?;
        }
        Ok(streamer.count)
    }

    /// The block loop when this program is block-shardable: the body is
    /// exactly one top-level loop with nested structure (a flat innermost
    /// loop emits one lockstep run group for its whole domain, so cutting
    /// it per iteration would only deoptimize the stream).
    fn block_loop(&self) -> Option<&CLoop> {
        match self.nodes.as_slice() {
            [CNode::Loop(l)] if !l.inner => Some(l),
            _ => None,
        }
    }

    /// Trip count of the block loop when this program is block-shardable.
    /// The bounds are evaluated against the initial frame — exactly the
    /// frame [`stream`](CompiledProgram::stream) evaluates them against,
    /// since a top-level loop streams before any iterator slot is written.
    ///
    /// `Some(0)` is a shardable zero-trip block loop; `None` means the
    /// program shards at run-group granularity instead.
    pub(crate) fn block_trips(&self) -> Option<u64> {
        let l = self.block_loop()?;
        let lower = l.lower.eval(&self.frame_init).ok()?;
        let upper = l.upper.eval(&self.frame_init).ok()?;
        Some(trip_count(lower, upper, l.step))
    }

    /// How far one trip of the block loop moves each array the block body
    /// touches, in array-slot order — the lowering fact behind the shard
    /// layer's translation classes. `Some` means block trip `t + d` emits
    /// trip `t`'s access sequence with every array's offsets raised by
    /// `d` times its shift (see [`subtree_slot_shifts`] for when that is
    /// provable). `None` when it is not, when some array moves backwards
    /// (later trips could clamp at the array base where earlier ones do
    /// not), or when the program has no block loop.
    pub(crate) fn block_shifts(&self) -> Option<Vec<ArrayShift>> {
        let l = self.block_loop()?;
        let mut coeffs = vec![None; self.arrays.len()];
        if !subtree_slot_shifts(&l.body, l.slot, &mut coeffs) {
            return None;
        }
        let mut shifts = Vec::new();
        for (array, coeff) in coeffs.into_iter().enumerate() {
            let Some(coeff) = coeff else { continue };
            let carray = &self.arrays[array];
            let elems = u64::try_from(coeff.checked_mul(l.step)?).ok()?;
            let dims = &carray.layout.as_ref()?.dims;
            let len = dims
                .iter()
                .try_fold(1u64, |n, &d| n.checked_mul(u64::try_from(d).ok()?))?;
            shifts.push(ArrayShift {
                array,
                elems,
                len,
                bytes: elems.checked_mul(carray.elem_size as u64)?,
            });
        }
        Some(shifts)
    }

    /// Streams trip indices `[lo, hi)` of the block loop — the sub-trace one
    /// shard of a block-granularity [`ShardPlan`](crate::shard::ShardPlan)
    /// simulates. Concatenating the streams of consecutive ranges covering
    /// `0..block_trips()` reproduces [`stream`](CompiledProgram::stream)'s
    /// emission order exactly: each iteration binds the block iterator and
    /// streams the body through the same per-node walk.
    ///
    /// # Errors
    /// [`MachineError::NotShardable`] when the program is not
    /// block-shardable ([`block_trips`](CompiledProgram::block_trips) is
    /// `None`); bound and subscript evaluation errors as in `stream`.
    pub(crate) fn stream_block_range(
        &self,
        lo: u64,
        hi: u64,
        sink: &mut impl AccessSink,
    ) -> Result<BlockFootprint> {
        let (Some(l), Some(trips)) = (self.block_loop(), self.block_trips()) else {
            return Err(MachineError::NotShardable(
                "the program has no block loop".to_string(),
            ));
        };
        let mut streamer = Streamer::new(self);
        let lower = l.lower.eval(&streamer.frame)?;
        let (lo, hi) = (lo.min(trips), hi.min(trips));
        for trip in lo..hi {
            // In range: the iterate is below `upper`. Wrapping arithmetic
            // is exact there, also where `trip * step` alone would leave
            // `i64`.
            streamer.frame[l.slot] = lower.wrapping_add((trip as i64).wrapping_mul(l.step));
            for child in &l.body {
                streamer.stream_node(child, sink)?;
            }
        }
        Ok(BlockFootprint {
            extents: streamer.extents,
        })
    }
}

impl<'c> Streamer<'c> {
    fn new(compiled: &'c CompiledProgram) -> Self {
        Streamer {
            compiled,
            frame: compiled.frame_init.clone(),
            count: 0,
            runs: Vec::new(),
            extents: vec![(i64::MAX, i64::MIN); compiled.arrays.len()],
        }
    }

    /// Widens an array's offset extent to cover `offset`.
    #[inline]
    fn touch(&mut self, array: usize, offset: i64) {
        let (min, max) = &mut self.extents[array];
        *min = (*min).min(offset);
        *max = (*max).max(offset);
    }

    fn stream_node(&mut self, node: &CNode, sink: &mut impl AccessSink) -> Result<()> {
        match node {
            CNode::Loop(l) => self.stream_loop(l, sink),
            CNode::Comp(c) => self.stream_comp(c, sink),
            // Library calls are opaque to the trace: their internal access
            // pattern belongs to the library, not to the program under study.
            CNode::Call(_) => Ok(()),
        }
    }

    fn stream_loop(&mut self, l: &CLoop, sink: &mut impl AccessSink) -> Result<()> {
        let lower = l.lower.eval(&self.frame)?;
        let upper = l.upper.eval(&self.frame)?;
        if upper <= lower {
            return Ok(());
        }
        let trips = trip_count(lower, upper, l.step);
        let saved = self.frame[l.slot];
        let result = if l.inner && self.stream_inner(l, lower, trips, sink) {
            telemetry::counter("machine.exec.compiled_stream_loops", 1);
            Ok(())
        } else if trips > 1 && l.trace_invariant && sink.begin_repeat(trips) {
            // The subtree's emissions do not depend on this iterator: stream
            // one iteration and let the sink scale it by the trip count.
            telemetry::counter("machine.exec.stream_repeat_loops", 1);
            self.frame[l.slot] = lower;
            let before = self.count;
            let mut repeated = Ok(());
            for child in &l.body {
                if let Err(e) = self.stream_node(child, sink) {
                    repeated = Err(e);
                    break;
                }
            }
            sink.end_repeat();
            self.count += (trips - 1) * (self.count - before);
            repeated
        } else {
            if l.inner {
                // A clamping access bailed the run-group build: this loop
                // entry streams per access instead.
                telemetry::counter("machine.exec.stream_fallback_loops", 1);
            }
            let mut v = lower;
            loop {
                self.frame[l.slot] = v;
                for child in &l.body {
                    self.stream_node(child, sink)?;
                }
                match v.checked_add(l.step) {
                    Some(next) if next < upper => v = next,
                    _ => break Ok(()),
                }
            }
        };
        self.frame[l.slot] = saved;
        result
    }

    /// Streams a compiled innermost loop as one lockstep [`StrideRun`] group
    /// built directly from the offset/stride plans. Returns `false` when an
    /// access would clamp at address zero, in which case the caller takes
    /// the generic (clamping, bit-compatible) path.
    fn stream_inner(
        &mut self,
        l: &CLoop,
        lower: i64,
        trips: u64,
        sink: &mut impl AccessSink,
    ) -> bool {
        self.frame[l.slot] = lower;
        self.runs.clear();
        for node in &l.body {
            let CNode::Comp(comp) = node else {
                unreachable!("inner loops contain only computations")
            };
            for access in &comp.accesses {
                let CAccess::Affine {
                    array,
                    flat,
                    is_write,
                    ..
                } = access
                else {
                    unreachable!("inner accesses are affine")
                };
                let carray = &self.compiled.arrays[*array];
                let elem = carray.elem_size as i64;
                let address = |offset: i64| {
                    let bytes = u64::try_from(offset).ok()?.checked_mul(elem as u64)?;
                    carray.base.checked_add(bytes)
                };
                // Negative offsets (the AddressMap clamps them) and
                // offsets or addresses that leave their integer type (an
                // error or a wrapped address per access) take the
                // per-iteration path.
                let Some((first, last, stride_el)) =
                    flat.checked_run(&self.frame, l.slot, l.step, trips)
                else {
                    return false;
                };
                let (Some(base), Some(_), Some(stride)) =
                    (address(first), address(last), stride_el.checked_mul(elem))
                else {
                    return false;
                };
                self.touch(*array, first);
                self.touch(*array, last);
                self.runs.push(StrideRun {
                    base,
                    stride,
                    count: trips,
                    array: *array as u32,
                    is_write: *is_write,
                });
            }
        }
        self.count += trips * self.runs.len() as u64;
        sink.run_group(&self.runs);
        true
    }

    /// Generic per-access emission (outside compiled innermost loops).
    fn stream_comp(&mut self, comp: &CComp, sink: &mut impl AccessSink) -> Result<()> {
        let compiled = self.compiled;
        for access in &comp.accesses {
            let (array, offset) = match access {
                CAccess::Affine { array, flat, .. } => (
                    *array,
                    flat.checked_eval(&self.frame)
                        .ok_or_else(|| compiled.subscript_overflow(*array))?,
                ),
                CAccess::Symbolic { array, indices, .. } => {
                    let layout = compiled.arrays[*array]
                        .layout
                        .as_ref()
                        .expect("symbolic accesses lower only with a layout");
                    let mut offset = 0i64;
                    for (bound, stride) in indices.iter().zip(&layout.strides) {
                        offset = bound
                            .eval(&self.frame)?
                            .checked_mul(*stride)
                            .and_then(|term| offset.checked_add(term))
                            .ok_or_else(|| compiled.subscript_overflow(*array))?;
                    }
                    (*array, offset)
                }
            };
            self.touch(array, offset);
            let carray = &compiled.arrays[array];
            let address = AddressMap::element(carray.base, offset, carray.elem_size);
            self.count += 1;
            sink.access(TraceEntry {
                address,
                is_write: access.is_write(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loop_ir::parser::parse_program;

    fn lower(source: &str) -> CompiledProgram {
        CompiledProgram::lower(&parse_program(source).unwrap()).unwrap()
    }

    #[test]
    fn constant_bounds_fold_at_lowering() {
        let compiled = lower(
            "program c { param N = 8; array A[N];
               for i in 0..N { A[i] = 1.0; } }",
        );
        let CNode::Loop(l) = &compiled.nodes[0] else {
            panic!("expected a loop")
        };
        assert!(matches!(l.upper.compiled, CExpr::Const(8)));
        assert!(l.inner);
    }

    #[test]
    fn zero_trip_loops_execute_nothing() {
        let p = parse_program(
            "program z { param N = 0; array A[4];
               for i in 0..N { A[i] = 1.0; } }",
        )
        .unwrap();
        struct Drop0;
        impl AccessSink for Drop0 {
            fn access(&mut self, _entry: TraceEntry) {}
        }
        let compiled = CompiledProgram::lower(&p).unwrap();
        let mut data = ProgramData::zeroed(&p).unwrap();
        assert_eq!(compiled.execute(&mut data).unwrap(), 0);
        assert_eq!(data.array("A").unwrap(), &[0.0; 4]);
        assert_eq!(compiled.stream(&mut Drop0).unwrap(), 0);
    }

    #[test]
    fn block_range_streams_concatenate_to_the_whole_trace() {
        let p = parse_program(
            "program blocks { param NB = 5; param N = 4;
               array A[NB * N]; array B[NB * N];
               for b in 0..NB {
                 for i in 0..N { B[b * N + i] = A[b * N + i] + 1.0; }
               } }",
        )
        .unwrap();
        let compiled = CompiledProgram::lower(&p).unwrap();
        assert_eq!(compiled.block_trips(), Some(5));

        #[derive(Default)]
        struct Collect(Vec<TraceEntry>);
        impl AccessSink for Collect {
            fn access(&mut self, entry: TraceEntry) {
                self.0.push(entry);
            }
        }

        let mut whole = Collect::default();
        let total = compiled.stream(&mut whole).unwrap();
        let mut pieces = Collect::default();
        // Ragged cuts, including an empty range and one clamped past the end.
        for (lo, hi) in [(0, 2), (2, 2), (2, 3), (3, 9)] {
            compiled.stream_block_range(lo, hi, &mut pieces).unwrap();
        }
        assert_eq!(pieces.0.len() as u64, total);
        assert_eq!(pieces.0.len(), whole.0.len());
        assert!(pieces
            .0
            .iter()
            .zip(&whole.0)
            .all(|(a, b)| a.address == b.address && a.is_write == b.is_write));

        // Flat innermost loops refuse block sharding (one run group already
        // covers the whole domain).
        let flat = lower("program f { param N = 8; array A[N]; for i in 0..N { A[i] = 1.0; } }");
        assert_eq!(flat.block_trips(), None);
        assert!(matches!(
            flat.stream_block_range(0, 1, &mut Collect::default()),
            Err(MachineError::NotShardable(_))
        ));
    }

    #[test]
    fn block_shifts_exist_exactly_when_block_trips_are_translations() {
        let blocked = |body: &str| {
            lower(&format!(
                "program s {{ param NB = 4; param N = 8;
                   array A[NB * N]; array T[N]; array U[NB][N];
                   for b in 0..NB step 2 {{ {body} }} }}"
            ))
        };
        // A moves 8 elements per unit of `b`, so 16 per trip of the step-2
        // loop; T is stationary; U is never touched and not listed.
        let shifts = blocked("for i in 0..N { A[b * N + i] = T[i]; }")
            .block_shifts()
            .expect("a pure translation");
        let summary: Vec<_> = shifts
            .iter()
            .map(|s| (s.array, s.elems, s.len, s.bytes))
            .collect();
        assert_eq!(summary, vec![(0, 16, 32, 128), (1, 0, 8, 0)]);

        for (why, body) in [
            ("two rates on A", "for i in 0..N { A[b * N + i] = A[i]; }"),
            (
                "a block-dependent bound",
                "for i in 0..b + 1 { A[b * N + i] = T[i]; }",
            ),
            (
                "a symbolic subscript",
                "for i in 0..N { A[(b * N + i) % 32] = T[i]; }",
            ),
            (
                "A moves backwards",
                "for i in 0..N { A[(NB - 1 - b) * N + i] = T[i]; }",
            ),
        ] {
            assert!(blocked(body).block_shifts().is_none(), "{why}");
        }
        // No block loop, no shifts.
        let flat = lower("program f { param N = 8; array A[N]; for i in 0..N { A[i] = 1.0; } }");
        assert!(flat.block_shifts().is_none());
    }

    #[test]
    fn footprints_translate_only_while_every_array_stays_in_bounds() {
        let compiled = lower(
            "program t { param NB = 4; param N = 8; array A[NB * N + 2]; array T[N];
               for b in 0..NB { for i in 0..N { A[b * N + i + 2] = T[i] + A[b * N + i - 1]; } } }",
        );
        let shifts = compiled.block_shifts().unwrap();
        struct Drop0;
        impl AccessSink for Drop0 {
            fn access(&mut self, _entry: TraceEntry) {}
        }
        // Block 0 computes offset -1 (clamped), block 1 does not.
        let clamped = compiled.stream_block_range(0, 1, &mut Drop0).unwrap();
        assert_eq!(clamped.extents, vec![(-1, 9), (0, 7)]);
        assert!(!clamped.translates(&shifts, 1));
        let inside = compiled.stream_block_range(1, 2, &mut Drop0).unwrap();
        assert_eq!(inside.extents, vec![(7, 17), (0, 7)]);
        // Two trips on, A[.. + 2] still ends at 33 < 34; three trips on it
        // would spill past the end.
        assert!(inside.translates(&shifts, 2));
        assert!(!inside.translates(&shifts, 3));
        // Stationary arrays replay the identical stream wherever it goes.
        let stationary = compiled.block_shifts().map(|mut s| {
            s.iter_mut().for_each(|s| s.elems = 0);
            s
        });
        assert!(clamped.translates(&stationary.unwrap(), 3));
    }

    #[test]
    fn negative_stride_accesses_compile_and_execute() {
        let p = parse_program(
            "program rev { param N = 6; array A[N]; array B[N];
               for i in 0..N { B[i] = A[N - 1 - i]; } }",
        )
        .unwrap();
        let compiled = CompiledProgram::lower(&p).unwrap();
        let mut data =
            ProgramData::new_with(&p, |name, i| if name == "A" { i as f64 } else { 0.0 }).unwrap();
        compiled.execute(&mut data).unwrap();
        assert_eq!(data.array("B").unwrap(), &[5.0, 4.0, 3.0, 2.0, 1.0, 0.0]);
    }

    #[test]
    fn lowering_rejects_bad_programs_eagerly() {
        let unknown = parse_program(
            "program u { param N = 4; array A[N];
               for i in 0..M { A[i] = 1.0; } }",
        );
        // The parser may already reject unknown bounds; when it does not,
        // lowering must.
        if let Ok(p) = unknown {
            assert!(matches!(
                CompiledProgram::lower(&p),
                Err(MachineError::UnboundVariable(_))
            ));
        }
        let mut p = parse_program(
            "program s { param N = 4; array A[N];
               for i in 0..N { A[i] = 1.0; } }",
        )
        .unwrap();
        if let Node::Loop(l) = &mut p.body[0] {
            l.step = 0;
        }
        assert!(matches!(
            CompiledProgram::lower(&p),
            Err(MachineError::InvalidLoop(_))
        ));
    }

    #[test]
    fn execute_rejects_mismatched_data() {
        let p =
            parse_program("program a { param N = 4; array A[N]; for i in 0..N { A[i] = 1.0; } }")
                .unwrap();
        let q =
            parse_program("program b { param N = 4; array B[N]; for i in 0..N { B[i] = 1.0; } }")
                .unwrap();
        let compiled = CompiledProgram::lower(&p).unwrap();
        let mut data = ProgramData::zeroed(&q).unwrap();
        assert!(compiled.execute(&mut data).is_err());
    }
}
