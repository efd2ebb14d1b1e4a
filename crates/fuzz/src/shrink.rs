//! Delta-debugging shrinker: greedily minimizes a failing program while
//! preserving the failure.
//!
//! Starting from a program on which some oracle failed, the shrinker
//! repeatedly proposes structural reductions — drop a top-level nest, drop
//! a statement, splice a loop's body into its parent (substituting the
//! iterator by the loop's lower bound), shrink the size parameter, shrink
//! constant bounds, simplify statement right-hand sides — and keeps the
//! first candidate that (a) still validates and (b) still fails the *same
//! oracle in the same way* ([`Verdict::failure_key`]). The scan restarts
//! after every accepted reduction and stops at a fixpoint or after
//! `max_steps` accepted reductions, so shrinking always terminates.

use loop_ir::prelude::*;

use crate::oracle::Verdict;

/// Outcome of a shrink run.
#[derive(Debug, Clone)]
pub struct Shrunk {
    /// The minimized program (the original when nothing could be removed).
    pub program: Program,
    /// Number of accepted reductions.
    pub steps: usize,
}

/// Size metric the shrinker drives down: nodes plus total constant mass,
/// so bound reductions count as progress too.
fn size_of(program: &Program) -> u64 {
    let mut nodes = 0u64;
    fn walk(n: &Node, nodes: &mut u64) {
        *nodes += 1;
        if let Node::Loop(l) = n {
            for c in &l.body {
                walk(c, nodes);
            }
        }
    }
    for n in &program.body {
        walk(n, &mut nodes);
    }
    let param_mass: i64 = program.params.values().sum();
    nodes * 100 + program.arrays.len() as u64 * 10 + param_mass.max(0) as u64
}

/// Greedily shrinks `program`, keeping candidates for which `still_fails`
/// holds (the caller typically re-runs the failing oracle and compares
/// [`Verdict::failure_key`]). Deterministic; at most `max_steps` accepted
/// reductions.
pub fn shrink(
    program: &Program,
    still_fails: impl Fn(&Program) -> bool,
    max_steps: usize,
) -> Shrunk {
    let mut current = program.clone();
    let mut steps = 0;
    'outer: while steps < max_steps {
        let current_size = size_of(&current);
        for candidate in candidates(&current) {
            if candidate.validate().is_err() {
                continue;
            }
            if size_of(&candidate) >= current_size {
                continue;
            }
            if still_fails(&candidate) {
                current = candidate;
                steps += 1;
                continue 'outer;
            }
        }
        break;
    }
    Shrunk {
        program: current,
        steps,
    }
}

/// Convenience predicate: the candidate fails with the same
/// [`Verdict::failure_key`] as `original_failure` under `oracle_fn`.
pub fn same_failure(
    original_failure: &Verdict,
    oracle_fn: impl Fn(&Program) -> Verdict,
) -> impl Fn(&Program) -> bool {
    let key = original_failure.failure_key();
    move |candidate| oracle_fn(candidate).failure_key() == key
}

/// All single-step reductions of `program`, cheapest-structural first.
fn candidates(program: &Program) -> Vec<Program> {
    let mut out = Vec::new();

    // 1. Drop one top-level node (keep at least one).
    if program.body.len() > 1 {
        for i in 0..program.body.len() {
            let mut p = program.clone();
            p.body.remove(i);
            out.push(cleanup(p));
        }
    }

    // 2. Drop one statement or inner loop anywhere in the tree.
    for path in node_paths(program) {
        if let Some(p) = drop_at(program, &path) {
            out.push(cleanup(p));
        }
    }

    // 3. Splice a loop: replace it with its body, substituting the
    // iterator by the loop's lower bound.
    for path in node_paths(program) {
        if let Some(p) = splice_at(program, &path) {
            out.push(cleanup(p));
        }
    }

    // 4. Shrink the size parameter(s) toward the minimum viable extent.
    for (name, value) in &program.params {
        for smaller in [value / 2, value - 1] {
            if smaller >= 1 && smaller < *value {
                let mut p = program.clone();
                p.params.insert(name.clone(), smaller);
                out.push(p);
            }
        }
    }

    // 5. Shrink constant loop bounds.
    for path in node_paths(program) {
        out.extend(shrink_bounds_at(program, &path));
    }

    // 6. Simplify statement right-hand sides: first load only, or a plain
    // constant; drop reductions.
    for path in node_paths(program) {
        out.extend(simplify_stmt_at(program, &path));
    }

    out
}

/// Paths (child-index chains from the program body) to every node.
fn node_paths(program: &Program) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    fn walk(nodes: &[Node], prefix: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        for (i, n) in nodes.iter().enumerate() {
            prefix.push(i);
            out.push(prefix.clone());
            if let Node::Loop(l) = n {
                walk(&l.body, prefix, out);
            }
            prefix.pop();
        }
    }
    walk(&program.body, &mut Vec::new(), &mut out);
    out
}

fn with_node_list<R>(
    program: &mut Program,
    path: &[usize],
    f: impl FnOnce(&mut Vec<Node>, usize) -> R,
) -> Option<R> {
    let (&last, parents) = path.split_last()?;
    let mut nodes: &mut Vec<Node> = &mut program.body;
    for &i in parents {
        match nodes.get_mut(i)? {
            Node::Loop(l) => nodes = &mut l.body,
            _ => return None,
        }
    }
    if last >= nodes.len() {
        return None;
    }
    Some(f(nodes, last))
}

/// Removes the node at `path` (refusing to empty a loop body or the
/// program).
fn drop_at(program: &Program, path: &[usize]) -> Option<Program> {
    let mut p = program.clone();
    with_node_list(&mut p, path, |nodes, i| {
        if nodes.len() <= 1 {
            return false;
        }
        nodes.remove(i);
        true
    })
    .filter(|ok| *ok)
    .map(|_| p)
}

/// Replaces the loop at `path` with its body, substituting the iterator by
/// the loop's lower bound everywhere below.
fn splice_at(program: &Program, path: &[usize]) -> Option<Program> {
    let mut p = program.clone();
    let spliced = with_node_list(&mut p, path, |nodes, i| {
        let Node::Loop(l) = &nodes[i] else {
            return false;
        };
        let iter = l.iter.clone();
        let lower = l.lower.clone();
        let replacement: Vec<Node> = l
            .body
            .iter()
            .map(|n| substitute_node(n, &iter, &lower))
            .collect();
        nodes.splice(i..i + 1, replacement);
        true
    })?;
    if !spliced {
        return None;
    }
    p.renumber_computations();
    Some(p)
}

fn substitute_node(node: &Node, var: &Var, value: &Expr) -> Node {
    match node {
        Node::Computation(c) => {
            let mut c = c.clone();
            c.target = c.target.substitute(var, value);
            c.value = c.value.substitute_index(var, value);
            Node::Computation(c)
        }
        Node::Loop(l) => {
            let mut l = l.clone();
            l.lower = l.lower.substitute(var, value).simplify();
            l.upper = l.upper.substitute(var, value).simplify();
            l.body = l
                .body
                .iter()
                .map(|n| substitute_node(n, var, value))
                .collect();
            Node::Loop(l)
        }
        Node::Call(c) => Node::Call(c.clone()),
    }
}

/// Candidate programs with one constant bound of the loop at `path`
/// shrunk.
fn shrink_bounds_at(program: &Program, path: &[usize]) -> Vec<Program> {
    let mut out = Vec::new();
    for (lower_side, delta_half) in [(false, true), (false, false), (true, false)] {
        let mut p = program.clone();
        let changed = with_node_list(&mut p, path, |nodes, i| {
            let Node::Loop(l) = &mut nodes[i] else {
                return false;
            };
            let side = if lower_side {
                &mut l.lower
            } else {
                &mut l.upper
            };
            let Some(c) = side.as_const() else {
                return false;
            };
            let smaller = if delta_half { c / 2 } else { c - 1 };
            if smaller < 0 || smaller >= c {
                return false;
            }
            *side = cst(smaller);
            true
        });
        if changed == Some(true) {
            out.push(p);
        }
    }
    out
}

/// Candidate programs with the statement at `path` simplified.
fn simplify_stmt_at(program: &Program, path: &[usize]) -> Vec<Program> {
    let mut out = Vec::new();
    for mode in 0..3 {
        let mut p = program.clone();
        let changed = with_node_list(&mut p, path, |nodes, i| {
            let Node::Computation(c) = &mut nodes[i] else {
                return false;
            };
            match mode {
                // Drop the reduction (plain assignment).
                0 => {
                    if c.reduction.is_none() {
                        return false;
                    }
                    c.reduction = None;
                    true
                }
                // Keep only the first load of the right-hand side.
                1 => {
                    let loads = collect_loads(&c.value);
                    match loads.into_iter().next() {
                        Some(first) if c.value != ScalarExpr::Load(first.clone()) => {
                            c.value = ScalarExpr::Load(first);
                            true
                        }
                        _ => false,
                    }
                }
                // Replace the right-hand side with a constant.
                _ => {
                    if c.value == fconst(1.0) {
                        return false;
                    }
                    c.value = fconst(1.0);
                    true
                }
            }
        });
        if changed == Some(true) {
            out.push(cleanup(p));
        }
    }
    out
}

fn collect_loads(e: &ScalarExpr) -> Vec<ArrayRef> {
    let mut out = Vec::new();
    fn walk(e: &ScalarExpr, out: &mut Vec<ArrayRef>) {
        match e {
            ScalarExpr::Load(r) => out.push(r.clone()),
            ScalarExpr::Unary(_, a) => walk(a, out),
            ScalarExpr::Binary(_, a, b) => {
                walk(a, out);
                walk(b, out);
            }
            ScalarExpr::Select {
                lhs,
                rhs,
                then,
                otherwise,
                ..
            } => {
                walk(lhs, out);
                walk(rhs, out);
                walk(then, out);
                walk(otherwise, out);
            }
            ScalarExpr::Const(_) | ScalarExpr::Param(_) | ScalarExpr::Index(_) => {}
        }
    }
    walk(e, &mut out);
    out
}

/// Drops declarations (arrays, scalar params) no statement references any
/// more, so shrunk programs do not carry dead arrays around.
fn cleanup(mut program: Program) -> Program {
    let mut used_arrays = std::collections::BTreeSet::new();
    let mut used_params = std::collections::BTreeSet::new();
    fn note_expr(e: &Expr, params: &mut std::collections::BTreeSet<Var>) {
        e.for_each_var(&mut |v| {
            params.insert(v.clone());
        });
    }
    fn note_scalar(
        e: &ScalarExpr,
        arrays: &mut std::collections::BTreeSet<Var>,
        params: &mut std::collections::BTreeSet<Var>,
    ) {
        match e {
            ScalarExpr::Load(r) => {
                arrays.insert(r.array.clone());
                for idx in &r.indices {
                    note_expr(idx, params);
                }
            }
            ScalarExpr::Param(p) => {
                params.insert(p.clone());
            }
            ScalarExpr::Index(e) => note_expr(e, params),
            ScalarExpr::Const(_) => {}
            ScalarExpr::Unary(_, a) => note_scalar(a, arrays, params),
            ScalarExpr::Binary(_, a, b) => {
                note_scalar(a, arrays, params);
                note_scalar(b, arrays, params);
            }
            ScalarExpr::Select {
                lhs,
                rhs,
                then,
                otherwise,
                ..
            } => {
                for part in [lhs, rhs, then, otherwise] {
                    note_scalar(part, arrays, params);
                }
            }
        }
    }
    fn walk(
        n: &Node,
        arrays: &mut std::collections::BTreeSet<Var>,
        params: &mut std::collections::BTreeSet<Var>,
    ) {
        match n {
            Node::Loop(l) => {
                note_expr(&l.lower, params);
                note_expr(&l.upper, params);
                for c in &l.body {
                    walk(c, arrays, params);
                }
            }
            Node::Computation(c) => {
                arrays.insert(c.target.array.clone());
                for idx in &c.target.indices {
                    note_expr(idx, params);
                }
                note_scalar(&c.value, arrays, params);
            }
            Node::Call(call) => {
                arrays.insert(call.output.clone());
                for input in &call.inputs {
                    arrays.insert(input.clone());
                }
                for d in &call.dims {
                    note_expr(d, params);
                }
            }
        }
    }
    for n in &program.body {
        walk(n, &mut used_arrays, &mut used_params);
    }
    // Dimensions of retained arrays may reference params.
    for name in &used_arrays {
        if let Some(a) = program.arrays.get(name) {
            for d in &a.dims {
                note_expr(d, &mut used_params);
            }
        }
    }
    program.arrays.retain(|name, _| used_arrays.contains(name));
    program
        .scalar_params
        .retain(|name, _| used_params.contains(name));
    // Integer params stay: iterators also show up as `variables()`, and a
    // param that became unused is harmless for failure preservation.
    program
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, GenConfig};
    use crate::oracle::{check_one, Verdict};

    /// A synthetic failure: "fails" whenever the program still contains a
    /// reduction statement. The shrinker must find a near-minimal program
    /// with one reduction left.
    #[test]
    fn shrinks_to_a_minimal_reduction_program() {
        let config = GenConfig::default();
        let mut tried = 0;
        for seed in 0..200 {
            let p = generate(seed, &config);
            let has_reduction =
                |p: &Program| p.computations().iter().any(|c| c.reduction.is_some());
            if !has_reduction(&p) {
                continue;
            }
            tried += 1;
            let shrunk = shrink(&p, has_reduction, 200);
            assert!(has_reduction(&shrunk.program), "shrinking lost the failure");
            assert!(shrunk.program.validate().is_ok());
            let comps = shrunk.program.computations().len();
            assert!(
                comps <= 2,
                "seed {seed}: shrunk program still has {comps} statements:\n{}",
                shrunk.program
            );
            if tried >= 10 {
                break;
            }
        }
        assert!(tried > 0, "no generated program had a reduction");
    }

    #[test]
    fn shrinking_a_passing_program_is_a_fixpoint() {
        let p = generate(3, &GenConfig::default());
        let never_fails = |_: &Program| false;
        let shrunk = shrink(&p, never_fails, 100);
        assert_eq!(shrunk.steps, 0);
        assert_eq!(shrunk.program, p);
    }

    #[test]
    fn same_failure_predicate_tracks_the_oracle_key() {
        let p = generate(11, &GenConfig::default());
        let failure = Verdict::Mismatch {
            oracle: "exec",
            detail: "synthetic".into(),
        };
        // check_one on a healthy program passes, so the predicate is false.
        let pred = same_failure(&failure, |q: &Program| check_one(q, "exec"));
        assert!(!pred(&p));
    }
}
