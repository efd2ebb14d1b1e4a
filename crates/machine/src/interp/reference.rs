//! The pre-refactor tree-walking reference interpreter.
//!
//! This is the original `machine::interp` implementation: per-iteration
//! `BTreeMap` binding updates and a symbolic `Expr::eval` per subscript. It
//! is retained as the ground truth for the compiled execution engine
//! ([`crate::exec`]) — the differential test suite asserts bit-identical
//! array state between the two on the whole PolyBench + CLOUDSC corpus, and
//! the benchmark's `fuzz_frontend` workload checks every generated program's
//! result against it.

use loop_ir::array::ArrayRef;
use loop_ir::nest::{BlasCall, BlasKind, Node};
use loop_ir::program::Program;
use loop_ir::scalar::ScalarExpr;

use super::{Bindings, ProgramData};
use crate::blas;
use crate::error::{MachineError, Result};

fn flat_index(
    data: &ProgramData,
    array_ref: &ArrayRef,
    bindings: &Bindings,
) -> Result<(usize, usize)> {
    let slot = data
        .slot(&array_ref.array)
        .ok_or_else(|| MachineError::UnknownArray(array_ref.array.to_string()))?;
    let storage = data.storage(slot);
    if storage.dims.len() != array_ref.indices.len() {
        return Err(MachineError::OutOfBounds {
            array: array_ref.array.to_string(),
            index: -1,
        });
    }
    let mut flat: i64 = 0;
    for ((idx_expr, dim), stride) in array_ref
        .indices
        .iter()
        .zip(&storage.dims)
        .zip(&storage.strides)
    {
        let idx = idx_expr
            .eval(bindings)
            .ok_or_else(|| MachineError::UnboundVariable(idx_expr.to_string()))?;
        if idx < 0 || idx >= *dim {
            return Err(MachineError::OutOfBounds {
                array: array_ref.array.to_string(),
                index: idx,
            });
        }
        flat += idx * stride;
    }
    Ok((slot, flat as usize))
}

fn load(data: &ProgramData, array_ref: &ArrayRef, bindings: &Bindings) -> Result<f64> {
    let (slot, flat) = flat_index(data, array_ref, bindings)?;
    Ok(data.storage(slot).data[flat])
}

fn store(
    data: &mut ProgramData,
    array_ref: &ArrayRef,
    bindings: &Bindings,
    value: f64,
) -> Result<()> {
    let (slot, flat) = flat_index(data, array_ref, bindings)?;
    data.storage_mut(slot).data[flat] = value;
    Ok(())
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
    /// Returns an error on out-of-bounds accesses, unbound variables or
    /// non-evaluable loop bounds.
    pub fn run(&mut self, program: &Program, data: &mut ProgramData) -> Result<()> {
        let mut bindings: Bindings = program.params.clone();
        for node in &program.body {
            self.run_node(program, node, &mut bindings, data)?;
        }
        Ok(())
    }

    fn run_node(
        &mut self,
        program: &Program,
        node: &Node,
        bindings: &mut Bindings,
        data: &mut ProgramData,
    ) -> Result<()> {
        match node {
            Node::Loop(l) => {
                let lower = l
                    .lower
                    .eval(bindings)
                    .ok_or_else(|| MachineError::UnboundVariable(l.lower.to_string()))?;
                let upper = l
                    .upper
                    .eval(bindings)
                    .ok_or_else(|| MachineError::UnboundVariable(l.upper.to_string()))?;
                if l.step <= 0 {
                    return Err(MachineError::InvalidLoop(l.iter.to_string()));
                }
                let previous = bindings.get(&l.iter).copied();
                let mut v = lower;
                while v < upper {
                    bindings.insert(l.iter.clone(), v);
                    for child in &l.body {
                        self.run_node(program, child, bindings, data)?;
                    }
                    // An iterate past `i64::MAX` is past `upper` too.
                    let Some(next) = v.checked_add(l.step) else {
                        break;
                    };
                    v = next;
                }
                match previous {
                    Some(p) => {
                        bindings.insert(l.iter.clone(), p);
                    }
                    None => {
                        bindings.remove(&l.iter);
                    }
                }
                Ok(())
            }
            Node::Computation(c) => {
                self.executed_statements += 1;
                let value = eval_scalar(&c.value, program, bindings, data)?;
                let result = match c.reduction {
                    Some(op) => {
                        let current = load(data, &c.target, bindings)?;
                        op.apply(current, value)
                    }
                    None => value,
                };
                store(data, &c.target, bindings, result)
            }
            Node::Call(call) => self.run_blas(program, call, bindings, data),
        }
    }

    fn run_blas(
        &mut self,
        program: &Program,
        call: &BlasCall,
        bindings: &Bindings,
        data: &mut ProgramData,
    ) -> Result<()> {
        let dims: Option<Vec<i64>> = call.dims.iter().map(|d| d.eval(bindings)).collect();
        let dims = dims.ok_or_else(|| MachineError::UnboundVariable("blas dims".to_string()))?;
        let alpha = eval_scalar(&call.alpha, program, bindings, data)?;
        let beta = eval_scalar(&call.beta, program, bindings, data)?;
        let input = |i: usize| -> Result<Vec<f64>> {
            let name = call
                .inputs
                .get(i)
                .ok_or_else(|| MachineError::UnknownArray(format!("blas input {i}")))?;
            data.array(name.as_str())
                .map(|s| s.to_vec())
                .ok_or_else(|| MachineError::UnknownArray(name.to_string()))
        };
        match call.kind {
            BlasKind::Gemm => {
                let (m, n, k) = (dims[0] as usize, dims[1] as usize, dims[2] as usize);
                let a = input(0)?;
                let b = input(1)?;
                let c = data
                    .array_mut(call.output.as_str())
                    .ok_or_else(|| MachineError::UnknownArray(call.output.to_string()))?;
                blas::dgemm(m, n, k, alpha, &a, &b, beta, c);
            }
            BlasKind::Syrk => {
                let (n, k) = (dims[0] as usize, dims[1] as usize);
                let a = input(0)?;
                let c = data
                    .array_mut(call.output.as_str())
                    .ok_or_else(|| MachineError::UnknownArray(call.output.to_string()))?;
                blas::dsyrk(n, k, alpha, &a, beta, c);
            }
            BlasKind::Syr2k => {
                let (n, k) = (dims[0] as usize, dims[1] as usize);
                let a = input(0)?;
                let b = input(1)?;
                let c = data
                    .array_mut(call.output.as_str())
                    .ok_or_else(|| MachineError::UnknownArray(call.output.to_string()))?;
                blas::dsyr2k(n, k, alpha, &a, &b, beta, c);
            }
            BlasKind::Gemv => {
                let (m, n) = (dims[0] as usize, dims[1] as usize);
                let a = input(0)?;
                let x = input(1)?;
                let y = data
                    .array_mut(call.output.as_str())
                    .ok_or_else(|| MachineError::UnknownArray(call.output.to_string()))?;
                blas::dgemv(m, n, alpha, &a, &x, beta, y);
            }
        }
        Ok(())
    }
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
        ScalarExpr::Index(e) => e
            .eval(bindings)
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
