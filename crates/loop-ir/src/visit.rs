//! Traversal utilities over loop-nest trees, including the structural hash
//! behind the search's candidate dedupe and the tuning database's keys.

use std::hash::{Hash, Hasher};

use crate::expr::Var;
use crate::nest::{BlasCall, Computation, Loop, Node};
use crate::scalar::ScalarExpr;

/// A computation together with its enclosing loops, outermost first.
///
/// This corresponds to the paper's notation `comp[i, j, k]`: a computation
/// nested inside loops `i`, `j`, `k` where `i` is outermost.
#[derive(Clone, Debug)]
pub struct CompContext<'a> {
    /// The computation.
    pub computation: &'a Computation,
    /// The enclosing loops, outermost first.
    pub loops: Vec<&'a Loop>,
}

impl<'a> CompContext<'a> {
    /// Iterator variables of the enclosing loops, outermost first.
    pub fn iterators(&self) -> Vec<Var> {
        self.loops.iter().map(|l| l.iter.clone()).collect()
    }

    /// Nesting depth of the computation.
    pub fn depth(&self) -> usize {
        self.loops.len()
    }
}

/// Collects every computation of a node sequence with its loop context, in
/// execution order.
pub fn walk_computations(nodes: &[Node]) -> Vec<CompContext<'_>> {
    let mut out = Vec::new();
    let mut stack: Vec<&Loop> = Vec::new();
    for node in nodes {
        walk_node(node, &mut stack, &mut out);
    }
    out
}

fn walk_loop<'a>(l: &'a Loop, stack: &mut Vec<&'a Loop>, out: &mut Vec<CompContext<'a>>) {
    stack.push(l);
    for n in &l.body {
        walk_node(n, stack, out);
    }
    stack.pop();
}

fn walk_node<'a>(node: &'a Node, stack: &mut Vec<&'a Loop>, out: &mut Vec<CompContext<'a>>) {
    match node {
        Node::Loop(l) => walk_loop(l, stack, out),
        Node::Computation(c) => out.push(CompContext {
            computation: c,
            loops: stack.clone(),
        }),
        Node::Call(_) => {}
    }
}

/// Collects every loop of a node sequence in pre-order.
pub fn walk_loops(nodes: &[Node]) -> Vec<&Loop> {
    let mut out = Vec::new();
    for node in nodes {
        collect_loops(node, &mut out);
    }
    out
}

fn collect_loops<'a>(node: &'a Node, out: &mut Vec<&'a Loop>) {
    if let Node::Loop(l) = node {
        out.push(l);
        for n in &l.body {
            collect_loops(n, out);
        }
    }
}

/// Applies a mutation to every loop of a node tree (pre-order).
pub fn for_each_loop_mut(nodes: &mut [Node], f: &mut impl FnMut(&mut Loop)) {
    for node in nodes {
        if let Node::Loop(l) = node {
            f(l);
            for_each_loop_mut(&mut l.body, f);
        }
    }
}

/// Applies a mutation to every computation of a node tree (execution order).
pub fn for_each_computation_mut(nodes: &mut [Node], f: &mut impl FnMut(&mut Computation)) {
    for node in nodes {
        match node {
            Node::Loop(l) => for_each_computation_mut(&mut l.body, f),
            Node::Computation(c) => f(c),
            Node::Call(_) => {}
        }
    }
}

/// A deterministic 64-bit FNV-1a hasher.
///
/// `std::collections::hash_map::DefaultHasher` would also be deterministic,
/// but FNV keeps the structural hash independent of standard-library
/// implementation details, so hashes are stable across Rust versions — they
/// may be persisted (e.g. in tuning databases) and compared across runs.
#[derive(Debug, Clone)]
pub struct StructuralHasher(u64);

impl Default for StructuralHasher {
    fn default() -> Self {
        StructuralHasher(0xCBF2_9CE4_8422_2325)
    }
}

impl Hasher for StructuralHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    // The integer methods are pinned to fixed-width little-endian encodings:
    // the defaults write native-endian, platform-width bytes, which would
    // make hashes differ across architectures and break the persistence
    // guarantee above. `usize`/`isize` widen to 64 bits for the same reason.
    fn write_u8(&mut self, i: u8) {
        self.write(&[i]);
    }
    fn write_u16(&mut self, i: u16) {
        self.write(&i.to_le_bytes());
    }
    fn write_u32(&mut self, i: u32) {
        self.write(&i.to_le_bytes());
    }
    fn write_u64(&mut self, i: u64) {
        self.write(&i.to_le_bytes());
    }
    fn write_u128(&mut self, i: u128) {
        self.write(&i.to_le_bytes());
    }
    fn write_usize(&mut self, i: usize) {
        self.write(&(i as u64).to_le_bytes());
    }
    fn write_i8(&mut self, i: i8) {
        self.write_u8(i as u8);
    }
    fn write_i16(&mut self, i: i16) {
        self.write_u16(i as u16);
    }
    fn write_i32(&mut self, i: i32) {
        self.write_u32(i as u32);
    }
    fn write_i64(&mut self, i: i64) {
        self.write_u64(i as u64);
    }
    fn write_i128(&mut self, i: i128) {
        self.write_u128(i as u128);
    }
    fn write_isize(&mut self, i: isize) {
        self.write_usize(i as usize);
    }
}

/// Structural hash of a sequence of nodes (a program body or a loop body).
///
/// Two node trees collide only if they are structurally identical: same loop
/// shapes (iterators, bounds, steps, schedule annotations), same computation
/// targets, reductions and value expressions, same library calls. Statement
/// *names* and [`crate::nest::CompId`]s are deliberately excluded — they are
/// labels, not structure, so renamed copies of a nest share one hash (and
/// one pricing in a search's batch).
pub fn structural_hash_nodes(nodes: &[Node]) -> u64 {
    let mut hasher = StructuralHasher::default();
    nodes.len().hash(&mut hasher);
    for node in nodes {
        hash_node(node, &mut hasher);
    }
    hasher.finish()
}

/// Structural hash of a single node. See [`structural_hash_nodes`].
pub fn structural_hash_node(node: &Node) -> u64 {
    let mut hasher = StructuralHasher::default();
    hash_node(node, &mut hasher);
    hasher.finish()
}

fn hash_node(node: &Node, h: &mut impl Hasher) {
    match node {
        Node::Loop(l) => {
            0u8.hash(h);
            hash_loop(l, h);
        }
        Node::Computation(c) => {
            1u8.hash(h);
            hash_computation(c, h);
        }
        Node::Call(call) => {
            2u8.hash(h);
            hash_call(call, h);
        }
    }
}

fn hash_loop(l: &Loop, h: &mut impl Hasher) {
    l.iter.hash(h);
    l.lower.hash(h);
    l.upper.hash(h);
    l.step.hash(h);
    l.schedule.hash(h);
    l.body.len().hash(h);
    for node in &l.body {
        hash_node(node, h);
    }
}

fn hash_computation(c: &Computation, h: &mut impl Hasher) {
    // `id` and `name` are intentionally not hashed; see
    // [`structural_hash_nodes`].
    c.target.hash(h);
    c.reduction.hash(h);
    hash_scalar(&c.value, h);
}

fn hash_call(call: &BlasCall, h: &mut impl Hasher) {
    call.kind.hash(h);
    call.output.hash(h);
    call.inputs.hash(h);
    call.dims.hash(h);
    hash_scalar(&call.alpha, h);
    hash_scalar(&call.beta, h);
}

/// Hashes a scalar expression. [`ScalarExpr`] cannot derive `Hash` because
/// of its `f64` literals; they are hashed by bit pattern (`-0.0` and `0.0`
/// therefore hash differently, which errs on the safe side for dedupe).
fn hash_scalar(e: &ScalarExpr, h: &mut impl Hasher) {
    match e {
        ScalarExpr::Load(r) => {
            0u8.hash(h);
            r.hash(h);
        }
        ScalarExpr::Const(c) => {
            1u8.hash(h);
            c.to_bits().hash(h);
        }
        ScalarExpr::Param(p) => {
            2u8.hash(h);
            p.hash(h);
        }
        ScalarExpr::Index(e) => {
            3u8.hash(h);
            e.hash(h);
        }
        ScalarExpr::Unary(op, a) => {
            4u8.hash(h);
            op.hash(h);
            hash_scalar(a, h);
        }
        ScalarExpr::Binary(op, a, b) => {
            5u8.hash(h);
            op.hash(h);
            hash_scalar(a, h);
            hash_scalar(b, h);
        }
        ScalarExpr::Select {
            lhs,
            cmp,
            rhs,
            then,
            otherwise,
        } => {
            6u8.hash(h);
            cmp.hash(h);
            hash_scalar(lhs, h);
            hash_scalar(rhs, h);
            hash_scalar(then, h);
            hash_scalar(otherwise, h);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::ArrayRef;
    use crate::expr::{cst, var};
    use crate::nest::for_loop;
    use crate::scalar::{fconst, load};

    fn two_statement_nest() -> Vec<Node> {
        let s1 = Computation::assign(
            "S1",
            ArrayRef::new("B", vec![var("i"), var("j")]),
            load("A", vec![var("i"), var("j")]),
        );
        let s2 = Computation::assign("S2", ArrayRef::new("C", vec![var("i")]), fconst(0.0));
        vec![for_loop(
            "i",
            cst(0),
            var("N"),
            vec![
                for_loop("j", cst(0), var("M"), vec![Node::Computation(s1)]),
                Node::Computation(s2),
            ],
        )]
    }

    #[test]
    fn walk_computations_reports_context() {
        let nodes = two_statement_nest();
        let ctxs = walk_computations(&nodes);
        assert_eq!(ctxs.len(), 2);
        assert_eq!(ctxs[0].iterators(), vec![Var::new("i"), Var::new("j")]);
        assert_eq!(ctxs[0].depth(), 2);
        assert_eq!(ctxs[1].iterators(), vec![Var::new("i")]);
        assert_eq!(ctxs[1].depth(), 1);
    }

    #[test]
    fn walk_loops_preorder() {
        let nodes = two_statement_nest();
        let loops = walk_loops(&nodes);
        assert_eq!(loops.len(), 2);
        assert_eq!(loops[0].iter, Var::new("i"));
        assert_eq!(loops[1].iter, Var::new("j"));
    }

    #[test]
    fn mutation_visitors_touch_all_nodes() {
        let mut nodes = two_statement_nest();
        let mut loop_count = 0;
        for_each_loop_mut(&mut nodes, &mut |l| {
            l.schedule.parallel = true;
            loop_count += 1;
        });
        assert_eq!(loop_count, 2);
        let mut comp_count = 0;
        for_each_computation_mut(&mut nodes, &mut |c| {
            c.name.push('!');
            comp_count += 1;
        });
        assert_eq!(comp_count, 2);
        let ctxs = walk_computations(&nodes);
        assert!(ctxs.iter().all(|c| c.computation.name.ends_with('!')));
        assert!(walk_loops(&nodes).iter().all(|l| l.schedule.parallel));
    }

    #[test]
    fn execution_order_is_preserved() {
        let nodes = two_statement_nest();
        let names: Vec<&str> = walk_computations(&nodes)
            .iter()
            .map(|c| c.computation.name.as_str())
            .collect();
        assert_eq!(names, vec!["S1", "S2"]);
    }

    #[test]
    fn structural_hash_ignores_names_but_not_structure() {
        let nodes = two_statement_nest();
        let base = structural_hash_nodes(&nodes);
        assert_eq!(base, structural_hash_nodes(&two_statement_nest()));

        // Renaming statements does not change the hash…
        let mut renamed = two_statement_nest();
        for_each_computation_mut(&mut renamed, &mut |c| c.name = format!("{}x", c.name));
        assert_eq!(base, structural_hash_nodes(&renamed));

        // …but a schedule annotation, a changed bound or a changed value do.
        let mut parallel = two_statement_nest();
        for_each_loop_mut(&mut parallel, &mut |l| l.schedule.parallel = true);
        assert_ne!(base, structural_hash_nodes(&parallel));

        let mut rebound = two_statement_nest();
        rebound[0].as_loop_mut().unwrap().upper = var("K");
        assert_ne!(base, structural_hash_nodes(&rebound));

        let mut revalued = two_statement_nest();
        for_each_computation_mut(&mut revalued, &mut |c| c.value = fconst(42.0));
        assert_ne!(base, structural_hash_nodes(&revalued));
    }

    #[test]
    fn structural_hash_distinguishes_node_kinds_and_order() {
        let nodes = two_statement_nest();
        let single = structural_hash_node(&nodes[0]);
        assert_ne!(single, structural_hash_nodes(&nodes));
        let mut swapped = two_statement_nest();
        let body = &mut swapped[0].as_loop_mut().unwrap().body;
        body.reverse();
        assert_ne!(
            structural_hash_nodes(&nodes),
            structural_hash_nodes(&swapped)
        );
    }
}
