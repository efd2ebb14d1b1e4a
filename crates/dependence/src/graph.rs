//! Building the dependence graph of a program.

use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::Arc;

use loop_ir::array::{Access, AccessKind};
use loop_ir::expr::Var;
use loop_ir::nest::{CompId, Computation, Loop, Node};
use loop_ir::program::Program;

use crate::tester::{LoopBound, LoopPairing, Lowered, Pair, SubscriptTable};
use crate::types::{DepKind, Dependence, Direction};

/// Fallback extent used for loops whose bounds cannot be evaluated under the
/// program's parameter bindings. Making it large keeps the analysis
/// conservative (more dependences, never fewer).
const UNKNOWN_EXTENT: i64 = 1 << 20;

/// The data-dependence graph of a program.
///
/// Nodes are the program's computations (identified by [`CompId`]); edges are
/// [`Dependence`] records annotated with direction vectors over the common
/// loops of the two endpoints.
#[derive(Clone, Debug, Default)]
pub struct DependenceGraph {
    pub(crate) deps: Vec<Dependence>,
}

impl DependenceGraph {
    /// All dependences.
    pub fn all(&self) -> &[Dependence] {
        &self.deps
    }

    /// Dependences from `src` to `dst`.
    pub fn between(&self, src: CompId, dst: CompId) -> Vec<&Dependence> {
        self.deps
            .iter()
            .filter(|d| d.src == src && d.dst == dst)
            .collect()
    }

    /// Dependences that may be carried by the loop with the given iterator.
    pub fn carried_by(&self, iter: &Var) -> Vec<&Dependence> {
        self.deps
            .iter()
            .filter(|d| d.may_be_carried_by(iter))
            .collect()
    }

    /// True if there is any dependence (in either direction) between the two
    /// computations.
    pub fn connected(&self, a: CompId, b: CompId) -> bool {
        self.deps
            .iter()
            .any(|d| (d.src == a && d.dst == b) || (d.src == b && d.dst == a))
    }

    /// Number of dependence edges.
    pub fn len(&self) -> usize {
        self.deps.len()
    }

    /// True if the program has no dependences at all.
    pub fn is_empty(&self) -> bool {
        self.deps.is_empty()
    }

    /// Splits the graph into `parts` graphs: part `p` keeps, in order, the
    /// edges whose two ends `part_of` both maps to `p`. An edge across two
    /// parts, or with an end mapped to `None`, is dropped. The edges move;
    /// none is copied.
    pub fn split(
        self,
        parts: usize,
        part_of: impl Fn(CompId) -> Option<usize>,
    ) -> Vec<DependenceGraph> {
        let mut out = vec![DependenceGraph::default(); parts];
        for dep in self.deps {
            match (part_of(dep.src), part_of(dep.dst)) {
                (Some(a), Some(b)) if a == b => out[a].deps.push(dep),
                _ => {}
            }
        }
        out
    }
}

/// The bounds of `l` evaluated under `params`. An upper bound that cannot be
/// evaluated becomes `lower + UNKNOWN_EXTENT`, clamped to `i64::MAX` — no
/// `i64` bound lies above that, so the clamp drops no iteration.
pub(crate) fn loop_bound(l: &Loop, params: &BTreeMap<Var, i64>) -> LoopBound {
    let lower = l.lower.eval(params).unwrap_or(0);
    let upper = l
        .upper
        .eval(params)
        .unwrap_or_else(|| lower.saturating_add(UNKNOWN_EXTENT));
    LoopBound::new(l.iter.clone(), lower, upper)
}

/// One computation as the pair loop needs it: everything that depends on the
/// computation alone, computed once, as ranges of the [`Lowering`]'s tables.
struct LoweredComp {
    id: CompId,
    loops: Range<usize>,
    accesses: Range<usize>,
}

struct LoweredAccess<'a> {
    access: Access<'a>,
    /// Index of the accessed array among the arrays the analysis touches.
    array: usize,
    subscripts: Lowered,
}

/// Every computation of one analysis lowered into flat tables, in execution
/// order.
struct Lowering<'a> {
    params: &'a BTreeMap<Var, i64>,
    /// The evaluated bounds of the loops enclosing the current node.
    stack: Vec<LoopBound>,
    comps: Vec<LoweredComp>,
    /// Per computation, a copy of `stack` where it stands, one after another.
    loops: Vec<LoopBound>,
    /// Per computation, its accesses in order, one after another.
    accesses: Vec<LoweredAccess<'a>>,
    subscripts: SubscriptTable,
    /// The arrays touched, in order of first access.
    arrays: Vec<&'a Var>,
    /// `(array, is write, computation)` per access: sorted and deduplicated
    /// by [`finish`](Self::finish), the readers and writers of each array
    /// in ascending order.
    touches: Vec<(usize, bool, usize)>,
}

impl<'a> Lowering<'a> {
    fn new(params: &'a BTreeMap<Var, i64>) -> Self {
        Lowering {
            params,
            stack: Vec::new(),
            comps: Vec::new(),
            loops: Vec::new(),
            accesses: Vec::new(),
            subscripts: SubscriptTable::default(),
            arrays: Vec::new(),
            touches: Vec::new(),
        }
    }

    fn node(&mut self, node: &'a Node) {
        match node {
            Node::Loop(l) => self.nest(l),
            Node::Computation(c) => self.computation(c),
            Node::Call(_) => {}
        }
    }

    fn nest(&mut self, l: &'a Loop) {
        self.stack.push(loop_bound(l, self.params));
        for node in &l.body {
            self.node(node);
        }
        self.stack.pop();
    }

    fn computation(&mut self, c: &'a Computation) {
        let index = self.comps.len();
        let loops = self.loops.len()..self.loops.len() + self.stack.len();
        self.loops.extend_from_slice(&self.stack);
        let first_access = self.accesses.len();
        c.for_each_access(|access| {
            let name = &access.array_ref.array;
            let array = match self.arrays.iter().position(|known| *known == name) {
                Some(array) => array,
                None => {
                    self.arrays.push(name);
                    self.arrays.len() - 1
                }
            };
            let subscripts =
                self.subscripts
                    .lower(access.array_ref, &self.loops[loops.clone()], self.params);
            self.touches.push((array, access.is_write(), index));
            self.accesses.push(LoweredAccess {
                access,
                array,
                subscripts,
            });
        });
        self.comps.push(LoweredComp {
            id: c.id,
            loops,
            accesses: first_access..self.accesses.len(),
        });
    }

    /// The dependences among the lowered computations, in their order.
    fn finish(mut self) -> DependenceGraph {
        self.touches.sort_unstable();
        self.touches.dedup();
        // The computations from `i` on that touch `array` as `write` does.
        let touching = |array: usize, write: bool, i: usize| {
            let key = (array, write, i);
            let from = self.touches.partition_point(|t| *t < key);
            let to = self
                .touches
                .partition_point(|t| (t.0, t.1) <= (array, write));
            self.touches[from..to].iter().map(|t| t.2)
        };

        let mut graph = DependenceGraph::default();
        let mut stats = WalkStats::default();
        let mut partners: Vec<usize> = Vec::new();
        let mut scratch = PairScratch::default();
        for (i, src) in self.comps.iter().enumerate() {
            // The only partners of a computation are the ones writing what
            // it touches or reading what it writes.
            partners.clear();
            for a in &self.accesses[src.accesses.clone()] {
                partners.extend(touching(a.array, true, i));
                if a.access.is_write() {
                    partners.extend(touching(a.array, false, i));
                }
            }
            partners.sort_unstable();
            partners.dedup();
            for &j in &partners {
                self.analyze_pair(
                    src,
                    &self.comps[j],
                    i == j,
                    &mut scratch,
                    &mut graph.deps,
                    &mut stats,
                );
            }
        }
        if telemetry::enabled() {
            telemetry::counter("dependence.analyze.calls", 1);
            telemetry::counter("dependence.analyze.pair_tests", stats.pair_tests);
            telemetry::counter("dependence.analyze.pruned_leaves", stats.pruned_leaves);
        }
        graph
    }

    fn analyze_pair(
        &self,
        src: &LoweredComp,
        dst: &LoweredComp,
        is_self: bool,
        scratch: &mut PairScratch,
        out: &mut Vec<Dependence>,
        stats: &mut WalkStats,
    ) {
        let (src_loops, dst_loops) = (
            &self.loops[src.loops.clone()],
            &self.loops[dst.loops.clone()],
        );
        let PairScratch {
            common,
            pairing,
            levels,
        } = scratch;
        common.clear();
        common.extend(common_iterators(src_loops, dst_loops).cloned());
        pairing.pair(src_loops, dst_loops, common);
        levels.clear();
        levels.resize(common.len(), Direction::Any);
        // Built at the pair's first edge, shared by all of them.
        let mut shared: Option<Arc<[Var]>> = None;
        for sa in &self.accesses[src.accesses.clone()] {
            for da in &self.accesses[dst.accesses.clone()] {
                if sa.array != da.array || !(sa.access.is_write() || da.access.is_write()) {
                    continue;
                }
                stats.pair_tests += 1;
                let walk = Walk {
                    pair: Pair {
                        src: self.subscripts.get(sa.subscripts),
                        src_loops,
                        dst: self.subscripts.get(da.subscripts),
                        dst_loops,
                        pairing,
                    },
                    is_self,
                };
                walk.refine(levels, 0, stats, &mut |directions| {
                    let common = shared.get_or_insert_with(|| Arc::from(&common[..]));
                    out.push(oriented_dep(
                        (src.id, sa.access),
                        (dst.id, da.access),
                        common.clone(),
                        directions,
                    ));
                });
            }
        }
    }
}

/// The buffers one pair test fills, kept from pair to pair.
#[derive(Default)]
struct PairScratch {
    common: Vec<Var>,
    pairing: LoopPairing,
    levels: Vec<Direction>,
}

/// What one `analyze` did, for the `dependence.analyze.*` counters.
#[derive(Default)]
struct WalkStats {
    /// Access pairs (same array, at least one write) put through the walk.
    pair_tests: u64,
    /// Direction vectors below a refuted prefix, never tested themselves.
    pruned_leaves: u64,
}

/// Analyzes a program and returns its dependence graph.
///
/// Loop bounds are evaluated under the program's concrete parameter bindings;
/// bounds that cannot be evaluated are replaced by a very large extent, which
/// keeps the result conservative.
pub fn analyze(program: &Program) -> DependenceGraph {
    let mut lowering = Lowering::new(&program.params);
    for node in &program.body {
        lowering.node(node);
    }
    lowering.finish()
}

/// [`analyze`] of one nest of `program` in isolation: the graph of a program
/// with the same parameters whose whole body is `nest`, without building
/// one. `nest` need not be a top-level nest, nor part of `program` at all.
pub fn analyze_nest(program: &Program, nest: &Loop) -> DependenceGraph {
    let mut lowering = Lowering::new(&program.params);
    lowering.nest(nest);
    lowering.finish()
}

/// The iterators shared by two loop stacks, in the source's
/// (outermost-first) order.
pub(crate) fn common_iterators<'l>(
    src: &'l [LoopBound],
    dst: &'l [LoopBound],
) -> impl Iterator<Item = &'l Var> {
    src.iter()
        .map(|l| &l.iter)
        .filter(|iter| dst.iter().any(|l| &l.iter == *iter))
}

/// The refinement of one access pair into the direction vectors that may
/// carry a dependence (see the [`crate::tester`] module docs).
struct Walk<'a> {
    pair: Pair<'a>,
    /// Both accesses belong to one computation.
    is_self: bool,
}

impl Walk<'_> {
    /// Visits the vectors extending `levels[..depth]` in `=, <, >` order and
    /// passes those that may depend to `emit`; `levels[depth..]` is `*` on
    /// entry and on return.
    fn refine(
        &self,
        levels: &mut [Direction],
        depth: usize,
        stats: &mut WalkStats,
        emit: &mut impl FnMut(Vec<Direction>),
    ) {
        let leading_eq = levels[..depth].iter().all(|l| *l == Direction::Eq);
        let leaf = depth == levels.len();
        // A statement's accesses within one iteration are its own
        // read-modify-write, not an ordering constraint.
        if leaf && self.is_self && leading_eq {
            return;
        }
        if !self.pair.may_depend(levels) {
            if !leaf {
                let below = u32::try_from(levels.len() - depth).unwrap_or(u32::MAX);
                stats.pruned_leaves += 3u64.saturating_pow(below);
            }
            return;
        }
        if leaf {
            emit(levels.to_vec());
            return;
        }
        for direction in [Direction::Eq, Direction::Lt, Direction::Gt] {
            // A lexicographically negative vector of a self pair is the
            // mirror image of one visited under `<` (exactly so: the tester
            // is symmetric, `crate::tester` module docs).
            if self.is_self && leading_eq && direction == Direction::Gt {
                continue;
            }
            levels[depth] = direction;
            self.refine(levels, depth + 1, stats, &mut *emit);
        }
        levels[depth] = Direction::Any;
    }
}

/// The dependence between two accesses that may touch one element under
/// `directions` (source iteration relative to destination iteration). A
/// lexicographically negative vector means the destination's access happens
/// first: the dependence flows from it, with the reversed vector.
fn oriented_dep(
    (src, src_access): (CompId, Access<'_>),
    (dst, dst_access): (CompId, Access<'_>),
    common: Arc<[Var]>,
    directions: Vec<Direction>,
) -> Dependence {
    let backwards = directions.iter().find(|d| **d != Direction::Eq) == Some(&Direction::Gt);
    if backwards {
        let reversed = directions.into_iter().map(reverse).collect();
        make_dep(dst, src, dst_access, src_access, common, reversed)
    } else {
        make_dep(src, dst, src_access, dst_access, common, directions)
    }
}

pub(crate) fn make_dep(
    src: CompId,
    dst: CompId,
    src_access: Access<'_>,
    dst_access: Access<'_>,
    common: Arc<[Var]>,
    directions: Vec<Direction>,
) -> Dependence {
    let kind = match (src_access.kind, dst_access.kind) {
        (AccessKind::Write, AccessKind::Read) => DepKind::Flow,
        (AccessKind::Read, AccessKind::Write) => DepKind::Anti,
        (AccessKind::Write, AccessKind::Write) => DepKind::Output,
        (AccessKind::Read, AccessKind::Read) => unreachable!("read-read pairs are filtered"),
    };
    Dependence {
        src,
        dst,
        kind,
        array: src_access.array_ref.array.clone(),
        common_loops: common,
        directions,
    }
}

pub(crate) fn reverse(d: Direction) -> Direction {
    match d {
        Direction::Lt => Direction::Gt,
        Direction::Gt => Direction::Lt,
        Direction::Eq => Direction::Eq,
        Direction::Any => Direction::Any,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loop_ir::prelude::*;

    fn gemm() -> Program {
        let init = Computation::assign(
            "S0",
            ArrayRef::new("C", vec![var("i"), var("j")]),
            load("C", vec![var("i"), var("j")]) * param("beta"),
        );
        let update = Computation::reduction(
            "S1",
            ArrayRef::new("C", vec![var("i"), var("j")]),
            BinOp::Add,
            load("A", vec![var("i"), var("k")]) * load("B", vec![var("k"), var("j")]),
        );
        Program::builder("gemm")
            .param("NI", 8)
            .param("NJ", 8)
            .param("NK", 8)
            .scalar("beta", 1.2)
            .array("A", &["NI", "NK"])
            .array("B", &["NK", "NJ"])
            .array("C", &["NI", "NJ"])
            .node(for_loop(
                "i",
                cst(0),
                var("NI"),
                vec![for_loop(
                    "j",
                    cst(0),
                    var("NJ"),
                    vec![
                        Node::Computation(init),
                        for_loop("k", cst(0), var("NK"), vec![Node::Computation(update)]),
                    ],
                )],
            ))
            .build()
            .unwrap()
    }

    fn stencil() -> Program {
        // for t { for i in 1..N-1 { B[i] = A[i-1]+A[i+1]; } for i { A[i] = B[i]; } }
        let s0 = Computation::assign(
            "S0",
            ArrayRef::new("B", vec![var("i")]),
            load("A", vec![var("i") - cst(1)]) + load("A", vec![var("i") + cst(1)]),
        );
        let s1 = Computation::assign(
            "S1",
            ArrayRef::new("A", vec![var("i2")]),
            load("B", vec![var("i2")]),
        );
        Program::builder("jacobi1d")
            .param("T", 4)
            .param("N", 16)
            .array("A", &["N"])
            .array("B", &["N"])
            .node(for_loop(
                "t",
                cst(0),
                var("T"),
                vec![
                    for_loop("i", cst(1), var("N") - cst(1), vec![Node::Computation(s0)]),
                    for_loop("i2", cst(1), var("N") - cst(1), vec![Node::Computation(s1)]),
                ],
            ))
            .build()
            .unwrap()
    }

    #[test]
    fn gemm_reduction_carried_only_by_k() {
        let p = gemm();
        let g = analyze(&p);
        assert!(!g.is_empty());
        assert!(g.carried_by(&Var::new("i")).is_empty());
        assert!(g.carried_by(&Var::new("j")).is_empty());
        assert!(!g.carried_by(&Var::new("k")).is_empty());
    }

    #[test]
    fn gemm_init_to_update_flow_dependence() {
        let p = gemm();
        let g = analyze(&p);
        let comps = p.computations();
        let (init, update) = (comps[0].id, comps[1].id);
        let deps = g.between(init, update);
        assert!(!deps.is_empty());
        assert!(deps
            .iter()
            .any(|d| d.kind == DepKind::Flow && d.is_loop_independent()));
        // No dependence can flow backwards from the update to the init in a
        // later iteration of i or j (subscripts are identical).
        assert!(g.between(update, init).is_empty());
    }

    #[test]
    fn stencil_flow_and_anti_dependences() {
        let p = stencil();
        let g = analyze(&p);
        let comps = p.computations();
        let (s0, s1) = (comps[0].id, comps[1].id);
        // B produced by S0 and consumed by S1 in the same t iteration.
        assert!(g
            .between(s0, s1)
            .iter()
            .any(|d| d.kind == DepKind::Flow && d.array == Var::new("B")));
        // A written by S1 and read by S0 in a *later* t iteration: flow from
        // S1 to S0 carried by t.
        assert!(g.between(s1, s0).iter().any(|d| d.kind == DepKind::Flow
            && d.array == Var::new("A")
            && d.may_be_carried_by(&Var::new("t"))));
        // The t loop therefore carries dependences, i is clean for S0.
        assert!(!g.carried_by(&Var::new("t")).is_empty());
        assert!(g.carried_by(&Var::new("i")).is_empty());
    }

    #[test]
    fn independent_statements_have_no_edges() {
        let s0 = Computation::assign(
            "S0",
            ArrayRef::new("B", vec![var("i")]),
            load("A", vec![var("i")]),
        );
        let s1 = Computation::assign(
            "S1",
            ArrayRef::new("D", vec![var("i")]),
            load("E", vec![var("i")]),
        );
        let p = Program::builder("indep")
            .param("N", 8)
            .array("A", &["N"])
            .array("B", &["N"])
            .array("D", &["N"])
            .array("E", &["N"])
            .node(for_loop(
                "i",
                cst(0),
                var("N"),
                vec![Node::Computation(s0), Node::Computation(s1)],
            ))
            .build()
            .unwrap();
        let g = analyze(&p);
        let comps = p.computations();
        assert!(!g.connected(comps[0].id, comps[1].id));
        assert!(g.is_empty());
    }

    #[test]
    fn shared_read_does_not_create_dependence() {
        let s0 = Computation::assign(
            "S0",
            ArrayRef::new("B", vec![var("i")]),
            load("A", vec![var("i")]),
        );
        let s1 = Computation::assign(
            "S1",
            ArrayRef::new("D", vec![var("i")]),
            load("A", vec![var("i")]),
        );
        let p = Program::builder("shared_read")
            .param("N", 8)
            .array("A", &["N"])
            .array("B", &["N"])
            .array("D", &["N"])
            .node(for_loop(
                "i",
                cst(0),
                var("N"),
                vec![Node::Computation(s0), Node::Computation(s1)],
            ))
            .build()
            .unwrap();
        let g = analyze(&p);
        assert!(g.is_empty());
    }

    /// The evaluated loop bounds around the program's `index`-th
    /// computation in execution order.
    fn bounds_of(p: &Program, index: usize) -> Vec<LoopBound> {
        let contexts = p.computation_contexts();
        contexts[index]
            .loops
            .iter()
            .map(|l| loop_bound(l, &p.params))
            .collect()
    }

    #[test]
    fn evaluated_bounds_match_params() {
        let p = gemm();
        let b = bounds_of(&p, 1);
        assert_eq!(b.len(), 3);
        assert!(b.iter().all(|lb| lb.lower == 0 && lb.upper == 8));
    }

    #[test]
    fn cross_nest_dependences_have_no_common_loops() {
        // for i { A[i] = ... }  for j { B[j] = A[j] } — flow dependence with
        // an empty direction vector.
        let s0 = Computation::assign("S0", ArrayRef::new("A", vec![var("i")]), fconst(1.0));
        let s1 = Computation::assign(
            "S1",
            ArrayRef::new("B", vec![var("j")]),
            load("A", vec![var("j")]),
        );
        let p = Program::builder("two_nests")
            .param("N", 8)
            .array("A", &["N"])
            .array("B", &["N"])
            .node(for_loop("i", cst(0), var("N"), vec![Node::Computation(s0)]))
            .node(for_loop("j", cst(0), var("N"), vec![Node::Computation(s1)]))
            .build()
            .unwrap();
        let g = analyze(&p);
        let comps = p.computations();
        let deps = g.between(comps[0].id, comps[1].id);
        assert_eq!(deps.len(), 1);
        assert!(deps[0].common_loops.is_empty());
        assert!(deps[0].is_loop_independent());
    }

    /// `S: A[subscript] = A[i] + 1.0` inside `for i in lower..upper`.
    fn one_loop(lower: Expr, upper: Expr, subscript: Expr, n: i64) -> Program {
        let s = Computation::assign(
            "S",
            ArrayRef::new("A", vec![subscript]),
            load("A", vec![var("i")]) + fconst(1.0),
        );
        Program::builder("hostile")
            .param("N", n)
            .array_with_dims("A", vec![cst(16)])
            .node(for_loop("i", lower, upper, vec![Node::Computation(s)]))
            .build_unchecked()
    }

    #[test]
    fn a_parameter_product_that_overflows_is_not_folded_to_its_wrapped_value() {
        // 4 * 2^62 wraps to 0, which would make the subscript `i` and the
        // loop dependence-free. An honest N = 0 does exactly that.
        let i = Var::new("i");
        let wrapped = one_loop(cst(0), cst(8), var("N") * cst(4) + var("i"), 0);
        assert!(analyze(&wrapped).carried_by(&i).is_empty());
        let overflowing = one_loop(cst(0), cst(8), var("N") * cst(4) + var("i"), 1 << 62);
        assert!(!analyze(&overflowing).carried_by(&i).is_empty());
    }

    #[test]
    fn a_loop_from_i64_min_has_an_extent_and_carries_its_recurrence() {
        let p = one_loop(cst(i64::MIN), cst(0), var("i") + cst(1), 0);
        let g = analyze(&p);
        assert_eq!(g.carried_by(&Var::new("i")).len(), 1, "{:?}", g.all());
        assert_eq!(g.all()[0].kind, DepKind::Flow);
    }

    #[test]
    fn an_unknown_extent_next_to_i64_max_clamps_instead_of_overflowing() {
        let p = one_loop(cst(i64::MAX - 5), var("unbound"), var("i") + cst(1), 0);
        assert_eq!(bounds_of(&p, 0)[0].upper, i64::MAX);
        assert_eq!(analyze(&p).carried_by(&Var::new("i")).len(), 1);
    }

    #[test]
    fn split_keeps_exactly_the_edges_inside_one_part() {
        // Two nests and a top-level statement sharing `A` and `B`: the
        // graph links them, the parts keep only the edges inside each.
        let p = loop_ir::parser::parse_program(
            "program three { param N = 16; array A[N]; array B[N];
               for i in 1..N { A[i] = A[i - 1] + B[i]; B[i] = A[i] * 2.0; }
               B[0] = A[3];
               for j in 1..N { B[j] = B[j - 1] + A[j]; } }",
        )
        .unwrap();
        let top_level_of = |id: CompId| {
            p.body
                .iter()
                .position(|node| node.computations().iter().any(|c| c.id == id))
        };
        let full = analyze(&p);
        let same_node = |d: &&Dependence| top_level_of(d.src) == top_level_of(d.dst);
        let expected: Vec<&Dependence> = full.all().iter().filter(same_node).collect();
        assert!(
            expected.len() < full.len(),
            "the program has cross-nest edges"
        );

        let parts = full.clone().split(p.body.len(), top_level_of);
        assert_eq!(parts.len(), 3);
        let rejoined: Vec<&Dependence> = parts.iter().flat_map(|g| g.all()).collect();
        assert_eq!(rejoined, expected);
        for (index, part) in parts.iter().enumerate() {
            assert!(part
                .all()
                .iter()
                .all(|d| top_level_of(d.src) == Some(index)));
        }
    }
}
