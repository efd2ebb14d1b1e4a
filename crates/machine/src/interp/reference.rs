//! The naive references: one symbolic loop walk, two visitors.
//!
//! The loop walk (`walk`) is written once: per-iteration `BTreeMap`
//! bindings, bounds evaluated at every loop entry, the iterator saved and
//! restored around its loop, a stop at `i64::MAX`. So is subscript
//! evaluation (`element_offset`). Integers are evaluated exactly (in
//! `i128`, narrowed once), so a value faults iff it leaves `i64` —
//! `i * MAX - i * MAX` is `0` — the rule the compiled engine
//! ([`crate::exec`]) follows too. The visitors:
//!
//! * [`Interpreter`] executes over a [`ProgramData`] store, the oracle of
//!   the compiled engine (`tests/exec_differential.rs`, the fuzz farm's
//!   `exec` oracle; the benchmark's `fuzz_frontend` workload checks every
//!   generated program's result against it);
//! * [`crate::trace::walk_accesses_symbolic`] emits the access trace, the
//!   oracle of the compiled stream and, through
//!   [`crate::trace::simulate_cache_reference`], of the cache simulator.

use std::collections::BTreeMap;

use loop_ir::array::ArrayRef;
use loop_ir::expr::{Expr, Var};
use loop_ir::nest::{BlasCall, Node};
use loop_ir::program::Program;
use loop_ir::scalar::ScalarExpr;

use super::ProgramData;
use crate::blas;
use crate::error::{MachineError, Result};

/// Variable bindings of the walk: the program's parameters plus the
/// iterators of the enclosing loops.
pub(crate) type Bindings = BTreeMap<Var, i64>;

/// Walks the program in execution order, handing every statement instance
/// — a computation or a library call node — to `visit` with the bindings
/// of its enclosing loops.
///
/// # Errors
/// A bound without a value ([`MachineError::UnboundVariable`]), a
/// non-positive step, and whatever `visit` returns.
pub(crate) fn walk(
    program: &Program,
    visit: &mut impl FnMut(&Node, &Bindings) -> Result<()>,
) -> Result<()> {
    let mut bindings = program.params.clone();
    program
        .body
        .iter()
        .try_for_each(|node| walk_node(node, &mut bindings, visit))
}

fn walk_node(
    node: &Node,
    bindings: &mut Bindings,
    visit: &mut impl FnMut(&Node, &Bindings) -> Result<()>,
) -> Result<()> {
    let Node::Loop(l) = node else {
        return visit(node, bindings);
    };
    let bound =
        |e: &Expr| eval(e, bindings).ok_or_else(|| MachineError::UnboundVariable(e.to_string()));
    let (lower, upper) = (bound(&l.lower)?, bound(&l.upper)?);
    if l.step <= 0 {
        return Err(MachineError::InvalidLoop(l.iter.to_string()));
    }
    let previous = bindings.get(&l.iter).copied();
    let mut v = lower;
    while v < upper {
        bindings.insert(l.iter.clone(), v);
        for child in &l.body {
            walk_node(child, bindings, visit)?;
        }
        // An iterate past `i64::MAX` is past `upper` too.
        let Some(next) = v.checked_add(l.step) else {
            break;
        };
        v = next;
    }
    match previous {
        Some(p) => bindings.insert(l.iter.clone(), p),
        None => bindings.remove(&l.iter),
    };
    Ok(())
}

/// The value of an integer expression, or `None` when a variable is
/// unbound, a divisor is zero or the exact value leaves `i64`. `/` and `%`
/// are Euclidean, as in [`Expr::eval`].
pub(crate) fn eval(e: &Expr, bindings: &Bindings) -> Option<i64> {
    i64::try_from(exact(e, bindings)?).ok()
}

/// The exact value of an integer expression, in `i128`; `None` when a
/// variable is unbound, a divisor is zero or a partial value leaves `i128`.
fn exact(e: &Expr, bindings: &Bindings) -> Option<i128> {
    let value = |e: &Expr| exact(e, bindings);
    match e {
        Expr::Const(c) => Some(i128::from(*c)),
        Expr::Var(v) => bindings.get(v).map(|&v| i128::from(v)),
        Expr::Add(a, b) => value(a)?.checked_add(value(b)?),
        Expr::Sub(a, b) => value(a)?.checked_sub(value(b)?),
        Expr::Mul(a, b) => value(a)?.checked_mul(value(b)?),
        // The checked forms also refuse a zero divisor.
        Expr::Div(a, b) => value(a)?.checked_div_euclid(value(b)?),
        Expr::Mod(a, b) => value(a)?.checked_rem_euclid(value(b)?),
        Expr::Min(a, b) => Some(value(a)?.min(value(b)?)),
        Expr::Max(a, b) => Some(value(a)?.max(value(b)?)),
        Expr::Neg(a) => value(a)?.checked_neg(),
    }
}

/// The row-major element offset `Σ subscript × stride` of an access,
/// computed exactly and narrowed once. With `extents`, every subscript is
/// also narrowed and bounds-checked, in dimension order (the interpreter);
/// without, the offset may lie anywhere in `i64` (the trace walk clamps
/// it).
///
/// # Errors
/// [`MachineError::UnboundVariable`] for a subscript over an unbound
/// variable; [`MachineError::SubscriptOverflow`] when a subscript or the
/// offset has no `i64` value; [`MachineError::OutOfBounds`] for a rank
/// mismatch (index `-1`) or a subscript outside its extent.
pub(crate) fn element_offset(
    array_ref: &ArrayRef,
    strides: &[i64],
    extents: Option<&[i64]>,
    bindings: &Bindings,
) -> Result<i64> {
    let overflow = || MachineError::SubscriptOverflow {
        array: array_ref.array.to_string(),
    };
    let out_of_bounds = |index| MachineError::OutOfBounds {
        array: array_ref.array.to_string(),
        index,
    };
    if strides.len() != array_ref.rank() {
        return Err(out_of_bounds(-1));
    }
    let mut offset = 0i128;
    for (dim, (index, &stride)) in array_ref.indices.iter().zip(strides).enumerate() {
        let value = exact(index, bindings).ok_or_else(|| {
            let mut unbound = false;
            index.for_each_var(&mut |v| unbound |= !bindings.contains_key(v));
            if unbound {
                MachineError::UnboundVariable(index.to_string())
            } else {
                overflow()
            }
        })?;
        if let Some(extents) = extents {
            let index = i64::try_from(value).map_err(|_| overflow())?;
            if !(0..extents[dim]).contains(&index) {
                return Err(out_of_bounds(index));
            }
        }
        offset = value
            .checked_mul(i128::from(stride))
            .and_then(|term| offset.checked_add(term))
            .ok_or_else(overflow)?;
    }
    i64::try_from(offset).map_err(|_| overflow())
}

/// The storage slot and flat element index of an access, bounds-checked.
fn flat_index(
    data: &ProgramData,
    array_ref: &ArrayRef,
    bindings: &Bindings,
) -> Result<(usize, usize)> {
    let slot = data
        .slot(&array_ref.array)
        .ok_or_else(|| MachineError::UnknownArray(array_ref.array.to_string()))?;
    let storage = data.storage(slot);
    let flat = element_offset(array_ref, &storage.strides, Some(&storage.dims), bindings)?;
    Ok((slot, flat as usize))
}

fn load(data: &ProgramData, array_ref: &ArrayRef, bindings: &Bindings) -> Result<f64> {
    let (slot, flat) = flat_index(data, array_ref, bindings)?;
    Ok(data.storage(slot).data[flat])
}

/// The reference interpreter: executes a program over a [`ProgramData`]
/// store by walking the tree with symbolic per-iteration evaluation.
#[derive(Debug, Clone, Default)]
pub struct Interpreter {
    /// Counts of executed computation instances, for test assertions.
    pub executed_statements: u64,
}

impl Interpreter {
    /// Creates a reference interpreter.
    pub fn new() -> Self {
        Interpreter::default()
    }

    /// Executes the program, mutating `data` in place.
    ///
    /// # Errors
    /// Returns an error on out-of-bounds accesses, unbound variables,
    /// subscripts without an `i64` value or non-evaluable loop bounds.
    pub fn run(&mut self, program: &Program, data: &mut ProgramData) -> Result<()> {
        walk(program, &mut |node, bindings| match node {
            Node::Computation(c) => {
                self.executed_statements += 1;
                let value = eval_scalar(&c.value, program, bindings, data)?;
                let (slot, flat) = flat_index(data, &c.target, bindings)?;
                let cell = &mut data.storage_mut(slot).data[flat];
                *cell = match c.reduction {
                    Some(op) => op.apply(*cell, value),
                    None => value,
                };
                Ok(())
            }
            Node::Call(call) => run_call(call, program, bindings, data),
            Node::Loop(_) => unreachable!("the walk enters loops itself"),
        })
    }
}

fn run_call(
    call: &BlasCall,
    program: &Program,
    bindings: &Bindings,
    data: &mut ProgramData,
) -> Result<()> {
    let dims: Option<Vec<i64>> = call.dims.iter().map(|d| eval(d, bindings)).collect();
    let dims = dims.ok_or_else(|| MachineError::UnboundVariable("blas dims".to_string()))?;
    let alpha = eval_scalar(&call.alpha, program, bindings, data)?;
    let beta = eval_scalar(&call.beta, program, bindings, data)?;
    let inputs = call
        .inputs
        .iter()
        .map(|name| {
            let array = data.array(name.as_str()).map(<[f64]>::to_vec);
            array.ok_or_else(|| MachineError::UnknownArray(name.to_string()))
        })
        .collect::<Result<Vec<_>>>()?;
    let out = data
        .array_mut(call.output.as_str())
        .ok_or_else(|| MachineError::UnknownArray(call.output.to_string()))?;
    blas::run_call(call.kind, &dims, alpha, beta, &inputs, out)
}

fn eval_scalar(
    expr: &ScalarExpr,
    program: &Program,
    bindings: &Bindings,
    data: &ProgramData,
) -> Result<f64> {
    match expr {
        ScalarExpr::Load(r) => load(data, r, bindings),
        ScalarExpr::Const(c) => Ok(*c),
        ScalarExpr::Param(p) => program
            .scalar_params
            .get(p)
            .copied()
            .ok_or_else(|| MachineError::UnboundVariable(p.to_string())),
        ScalarExpr::Index(e) => eval(e, bindings)
            .map(|v| v as f64)
            .ok_or_else(|| MachineError::UnboundVariable(e.to_string())),
        ScalarExpr::Unary(op, a) => Ok(op.apply(eval_scalar(a, program, bindings, data)?)),
        ScalarExpr::Binary(op, a, b) => Ok(op.apply(
            eval_scalar(a, program, bindings, data)?,
            eval_scalar(b, program, bindings, data)?,
        )),
        ScalarExpr::Select {
            lhs,
            cmp,
            rhs,
            then,
            otherwise,
        } => {
            let l = eval_scalar(lhs, program, bindings, data)?;
            let r = eval_scalar(rhs, program, bindings, data)?;
            if cmp.apply(l, r) {
                eval_scalar(then, program, bindings, data)
            } else {
                eval_scalar(otherwise, program, bindings, data)
            }
        }
    }
}

/// Convenience: runs a program on seeded data through the reference
/// interpreter and returns the data.
///
/// # Errors
/// Propagates interpreter errors.
pub fn run_seeded(program: &Program) -> Result<ProgramData> {
    let mut data = ProgramData::seeded(program)?;
    Interpreter::new().run(program, &mut data)?;
    Ok(data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use loop_ir::parser::parse_program;

    #[test]
    fn reference_matches_compiled_engine_on_a_mixed_program() {
        let p = parse_program(
            "program mixed { param N = 9; array A[N][N]; array s[N];
               for i in 0..N {
                 s[i] = 0.0;
                 for j in 0..i { s[i] += A[i][j] * 0.5; }
               }
               for i in 0..N step 2 { s[i] = s[i] * 2.0; } }",
        )
        .unwrap();
        let slow = run_seeded(&p).unwrap();
        let fast = super::super::run_seeded(&p).unwrap();
        assert_eq!(slow, fast, "compiled engine must match the reference");
    }

    #[test]
    fn reference_counts_statements() {
        let p = parse_program(
            "program c { param N = 4; array A[N];
               for i in 0..N { A[i] = 1.0; } }",
        )
        .unwrap();
        let mut interp = Interpreter::new();
        let mut data = ProgramData::zeroed(&p).unwrap();
        interp.run(&p, &mut data).unwrap();
        assert_eq!(interp.executed_statements, 4);
    }
}
