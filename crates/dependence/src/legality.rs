//! Legality queries for loop transformations, answered from a
//! [`DependenceGraph`].

use std::collections::BTreeSet;

use loop_ir::expr::Var;
use loop_ir::nest::{CompId, Loop, Node};

use crate::graph::DependenceGraph;
use crate::types::{Dependence, Direction};

/// Returns the strongly connected components of the statements contained in
/// the given body nodes, considering only dependences between statements of
/// that body. Components are returned in a topological order of the
/// condensation (sources first), which is exactly the order in which loop
/// distribution must emit the resulting loops.
///
/// Each component lists the indices of the body nodes (not computation ids)
/// whose statements belong to it; a body node with several nested statements
/// is treated as an atomic unit.
pub fn sccs_of_body(graph: &DependenceGraph, body: &[Node]) -> Vec<Vec<usize>> {
    // Every computation id with the index of the body node containing it,
    // sorted by id.
    let mut owner: Vec<(CompId, usize)> = Vec::new();
    for (idx, node) in body.iter().enumerate() {
        node.for_each_computation(&mut |c| owner.push((c.id, idx)));
    }
    owner.sort_unstable();
    let owner_of = |id: CompId| {
        owner
            .binary_search_by_key(&id, |&(c, _)| c)
            .ok()
            .map(|k| owner[k].1)
    };
    // Edges between body nodes induced by dependences, sorted and unique:
    // the successors of `a` are the run of edges leaving it.
    let mut edges: Vec<(usize, usize)> = Vec::new();
    for dep in graph.all() {
        let (Some(a), Some(b)) = (owner_of(dep.src), owner_of(dep.dst)) else {
            continue;
        };
        if a != b {
            edges.push((a, b));
        }
    }
    edges.sort_unstable();
    edges.dedup();
    tarjan_sccs(body.len(), &edges)
}

// Iterative Tarjan SCC over sorted `(from, to)` edges; components are
// emitted in reverse topological order and then reversed so that sources
// come first.
fn tarjan_sccs(n: usize, edges: &[(usize, usize)]) -> Vec<Vec<usize>> {
    #[derive(Clone, Copy)]
    struct NodeState {
        index: Option<usize>,
        lowlink: usize,
        on_stack: bool,
    }
    let mut state = vec![
        NodeState {
            index: None,
            lowlink: 0,
            on_stack: false,
        };
        n
    ];
    // The first edge leaving `v`.
    let first_edge = |v: usize| edges.partition_point(|&(from, _)| from < v);
    let mut index = 0usize;
    let mut stack: Vec<usize> = Vec::with_capacity(n);
    let mut components: Vec<Vec<usize>> = Vec::with_capacity(n);
    // Explicit DFS stack of (node, position of its next edge).
    let mut dfs: Vec<(usize, usize)> = Vec::with_capacity(n);

    for root in 0..n {
        if state[root].index.is_some() {
            continue;
        }
        dfs.push((root, first_edge(root)));
        state[root].index = Some(index);
        state[root].lowlink = index;
        state[root].on_stack = true;
        stack.push(root);
        index += 1;

        while let Some((v, pos)) = dfs.last_mut() {
            if let Some(&(_, w)) = edges.get(*pos).filter(|(from, _)| from == v) {
                *pos += 1;
                if state[w].index.is_none() {
                    state[w].index = Some(index);
                    state[w].lowlink = index;
                    state[w].on_stack = true;
                    stack.push(w);
                    index += 1;
                    dfs.push((w, first_edge(w)));
                } else if state[w].on_stack {
                    let v = *v;
                    state[v].lowlink = state[v].lowlink.min(state[w].index.unwrap());
                }
            } else {
                let v = *v;
                dfs.pop();
                if let Some(&(parent, _)) = dfs.last() {
                    state[parent].lowlink = state[parent].lowlink.min(state[v].lowlink);
                }
                if state[v].lowlink == state[v].index.unwrap() {
                    let mut component = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        state[w].on_stack = false;
                        component.push(w);
                        if w == v {
                            break;
                        }
                    }
                    component.sort_unstable();
                    components.push(component);
                }
            }
        }
    }
    // Tarjan emits components in reverse topological order of the
    // condensation.
    components.reverse();
    components
}

/// True if the statements of the two body nodes can be placed in different
/// loops (loop distribution / fission), i.e. they are not part of a
/// dependence cycle with each other.
pub fn can_distribute(graph: &DependenceGraph, body: &[Node], a: usize, b: usize) -> bool {
    if a == b {
        return false;
    }
    let sccs = sccs_of_body(graph, body);
    !sccs.iter().any(|scc| scc.contains(&a) && scc.contains(&b))
}

/// True if the loop with iterator `iter` can be executed in parallel: no
/// dependence may be carried by it.
///
/// Reduction self-updates do carry a dependence on their target and therefore
/// make the loop sequential under this test, matching the paper's observation
/// that unoptimized reductions are executed with expensive atomics when a
/// scheduler parallelizes them anyway.
pub fn is_parallel_loop(graph: &DependenceGraph, iter: &Var) -> bool {
    graph.carried_by(iter).is_empty()
}

/// True if permuting the perfectly nested loops of `nest` into `new_order`
/// (outermost first) preserves every dependence, i.e. no dependence direction
/// vector becomes lexicographically negative after permutation.
///
/// A caller with many orders of one nest to test collects the nest's
/// dependences once, with [`PermutationLegality::of`].
pub fn is_permutation_legal(graph: &DependenceGraph, nest: &Loop, new_order: &[Var]) -> bool {
    PermutationLegality::of(graph, nest).allows(new_order)
}

/// What constrains the loop orders of one nest: the dependences between its
/// own computations, picked out of the graph once.
pub struct PermutationLegality<'g> {
    nest: &'g Loop,
    deps: Vec<&'g Dependence>,
}

impl<'g> PermutationLegality<'g> {
    /// Collects the dependences of `graph` with both ends inside `nest`.
    pub fn of(graph: &'g DependenceGraph, nest: &'g Loop) -> Self {
        let mut comp_ids: Vec<CompId> = Vec::new();
        nest.for_each_computation(&mut |c| comp_ids.push(c.id));
        comp_ids.sort_unstable();
        let inside = |id: &CompId| comp_ids.binary_search(id).is_ok();
        PermutationLegality {
            nest,
            deps: graph
                .all()
                .iter()
                .filter(|dep| inside(&dep.src) && inside(&dep.dst))
                .collect(),
        }
    }

    /// [`is_permutation_legal`] for the nest the dependences were taken from.
    pub fn allows(&self, new_order: &[Var]) -> bool {
        debug_assert!(
            new_order
                .iter()
                .enumerate()
                .all(|(k, v)| self.nest.has_iterator(v) && !new_order[..k].contains(v)),
            "new_order must be a duplicate-free selection of the nest's iterators"
        );
        // The permuted direction vector over the loops of this nest; a loop
        // that is not common to both endpoints does not constrain the
        // permutation at its level.
        self.deps.iter().all(|dep| {
            !lexicographically_negative(
                new_order
                    .iter()
                    .map(|iter| dep.direction_of(iter).unwrap_or(Direction::Eq)),
            )
        })
    }
}

fn lexicographically_negative(directions: impl IntoIterator<Item = Direction>) -> bool {
    for d in directions {
        match d {
            Direction::Eq => continue,
            Direction::Lt => return false,
            Direction::Gt => return true,
            // `*` may be `>` at the leading position, so be conservative.
            Direction::Any => return true,
        }
    }
    false
}

/// True if two adjacent sibling loop nests (same iteration domain) can be
/// fused without reversing any dependence: fusing is illegal when a
/// dependence from a statement of the *first* nest to a statement of the
/// *second* nest would become backward-carried after fusion
/// (a "fusion-preventing" dependence).
pub fn can_fuse_siblings(graph: &DependenceGraph, first: &Loop, second: &Loop) -> bool {
    if first.lower != second.lower || first.upper != second.upper || first.step != second.step {
        return false;
    }
    let first_ids: BTreeSet<CompId> = first.computations().iter().map(|c| c.id).collect();
    let second_ids: BTreeSet<CompId> = second.computations().iter().map(|c| c.id).collect();
    for dep in graph.all() {
        // Dependences from the second nest back to the first rely on the
        // first nest finishing completely — unless they are carried by a
        // common *enclosing* loop, in which case any restructuring inside a
        // single iteration of that loop preserves them.
        if second_ids.contains(&dep.src) && first_ids.contains(&dep.dst) {
            if dep.carried_level().is_none() {
                return false;
            }
            continue;
        }
        if first_ids.contains(&dep.src) && second_ids.contains(&dep.dst) {
            // After fusion the two statements share the fused loop. The
            // dependence distance along the fused iterator must not be
            // negative; with no common loops before fusion we conservatively
            // compare the subscripts only through the recorded directions of
            // the outer common loops, which are unchanged. Cross-nest
            // dependences carry no common-loop information, so require that
            // the producing subscript is not *ahead* of the consuming one —
            // conservatively reject `Gt`-style relations, which we encode as
            // non-loop-independent cross-nest dependences.
            if !dep.is_loop_independent() && dep.carried_level().is_none() {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::analyze;
    use loop_ir::prelude::*;

    /// Figure 3a of the paper: two independent computations (contiguous and
    /// strided accesses) fused in a single loop nest.
    fn figure3a() -> loop_ir::Program {
        let s1 = Computation::assign(
            "S1",
            ArrayRef::new("B", vec![var("i"), var("j")]),
            load("A", vec![var("i"), var("j")]) * fconst(2.0),
        );
        let s2 = Computation::assign(
            "S2",
            ArrayRef::new("D", vec![var("j"), var("i")]),
            load("C", vec![var("j"), var("i")]) + fconst(1.0),
        );
        Program::builder("figure3a")
            .param("N", 8)
            .param("M", 8)
            .array("A", &["N", "M"])
            .array("B", &["N", "M"])
            .array("C", &["M", "N"])
            .array("D", &["M", "N"])
            .node(for_loop(
                "i",
                cst(0),
                var("N"),
                vec![for_loop(
                    "j",
                    cst(0),
                    var("M"),
                    vec![Node::Computation(s1), Node::Computation(s2)],
                )],
            ))
            .build()
            .unwrap()
    }

    fn producer_consumer() -> loop_ir::Program {
        // S1 produces B[i]; S2 consumes B[i] in the same iteration.
        let s1 = Computation::assign(
            "S1",
            ArrayRef::new("B", vec![var("i")]),
            load("A", vec![var("i")]),
        );
        let s2 = Computation::assign(
            "S2",
            ArrayRef::new("D", vec![var("i")]),
            load("B", vec![var("i")]) + fconst(1.0),
        );
        Program::builder("prodcons")
            .param("N", 8)
            .array("A", &["N"])
            .array("B", &["N"])
            .array("D", &["N"])
            .node(for_loop(
                "i",
                cst(0),
                var("N"),
                vec![Node::Computation(s1), Node::Computation(s2)],
            ))
            .build()
            .unwrap()
    }

    fn recurrence() -> loop_ir::Program {
        // A[i] = A[i-1] + 1: a cycle through the i loop.
        let s1 = Computation::assign(
            "S1",
            ArrayRef::new("A", vec![var("i")]),
            load("A", vec![var("i") - cst(1)]) + fconst(1.0),
        );
        let s2 = Computation::assign(
            "S2",
            ArrayRef::new("B", vec![var("i")]),
            load("A", vec![var("i")]),
        );
        Program::builder("recurrence")
            .param("N", 8)
            .array("A", &["N"])
            .array("B", &["N"])
            .node(for_loop(
                "i",
                cst(1),
                var("N"),
                vec![Node::Computation(s1), Node::Computation(s2)],
            ))
            .build()
            .unwrap()
    }

    #[test]
    fn independent_statements_can_distribute() {
        let p = figure3a();
        let g = analyze(&p);
        let outer = p.loop_nests()[0];
        let inner_body = &outer.body[0].as_loop().unwrap().body;
        assert!(can_distribute(&g, inner_body, 0, 1));
        let sccs = sccs_of_body(&g, inner_body);
        assert_eq!(sccs.len(), 2);
    }

    #[test]
    fn producer_consumer_can_distribute_in_order() {
        let p = producer_consumer();
        let g = analyze(&p);
        let body = &p.loop_nests()[0].body;
        // A forward loop-independent dependence does not prevent distribution,
        // it only fixes the order of the resulting loops.
        assert!(can_distribute(&g, body, 0, 1));
        let sccs = sccs_of_body(&g, body);
        assert_eq!(sccs, vec![vec![0], vec![1]]);
    }

    #[test]
    fn recurrence_keeps_statement_alone_but_orders_consumer() {
        let p = recurrence();
        let g = analyze(&p);
        let body = &p.loop_nests()[0].body;
        let sccs = sccs_of_body(&g, body);
        // No cycle between S1 and S2 (S1 only depends on itself), so two
        // components in producer-consumer order.
        assert_eq!(sccs, vec![vec![0], vec![1]]);
        // The i loop is not parallel because of the recurrence.
        assert!(!is_parallel_loop(&g, &Var::new("i")));
    }

    #[test]
    fn parallel_loop_detection() {
        let p = figure3a();
        let g = analyze(&p);
        assert!(is_parallel_loop(&g, &Var::new("i")));
        assert!(is_parallel_loop(&g, &Var::new("j")));
    }

    #[test]
    fn gemm_permutations_are_all_legal() {
        let update = Computation::reduction(
            "S1",
            ArrayRef::new("C", vec![var("i"), var("j")]),
            BinOp::Add,
            load("A", vec![var("i"), var("k")]) * load("B", vec![var("k"), var("j")]),
        );
        let p = Program::builder("gemm_update")
            .param("NI", 6)
            .param("NJ", 6)
            .param("NK", 6)
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
                    vec![for_loop(
                        "k",
                        cst(0),
                        var("NK"),
                        vec![Node::Computation(update)],
                    )],
                )],
            ))
            .build()
            .unwrap();
        let g = analyze(&p);
        let nest = p.loop_nests()[0];
        let vars = |names: [&str; 3]| names.map(Var::new).to_vec();
        for order in [
            ["i", "j", "k"],
            ["i", "k", "j"],
            ["j", "i", "k"],
            ["j", "k", "i"],
            ["k", "i", "j"],
            ["k", "j", "i"],
        ] {
            assert!(
                is_permutation_legal(&g, nest, &vars(order)),
                "order {order:?} should be legal for a reduction nest"
            );
        }
    }

    #[test]
    fn stencil_interchange_is_illegal() {
        // A[i][j] = A[i-1][j+1] + 1: direction (<, >); interchanging i and j
        // would make it (>, <), which is lexicographically negative.
        let s = Computation::assign(
            "S1",
            ArrayRef::new("A", vec![var("i"), var("j")]),
            load("A", vec![var("i") - cst(1), var("j") + cst(1)]) + fconst(1.0),
        );
        let p = Program::builder("skewed")
            .param("N", 8)
            .array("A", &["N", "N"])
            .node(for_loop(
                "i",
                cst(1),
                var("N"),
                vec![for_loop(
                    "j",
                    cst(0),
                    var("N") - cst(1),
                    vec![Node::Computation(s)],
                )],
            ))
            .build()
            .unwrap();
        let g = analyze(&p);
        let nest = p.loop_nests()[0];
        assert!(is_permutation_legal(
            &g,
            nest,
            &[Var::new("i"), Var::new("j")]
        ));
        assert!(!is_permutation_legal(
            &g,
            nest,
            &[Var::new("j"), Var::new("i")]
        ));
    }

    #[test]
    fn fusion_of_producer_consumer_nests() {
        // for i { B[i] = A[i] }  for j { D[j] = B[j] } — fusable.
        let s0 = Computation::assign(
            "S0",
            ArrayRef::new("B", vec![var("i")]),
            load("A", vec![var("i")]),
        );
        let s1 = Computation::assign(
            "S1",
            ArrayRef::new("D", vec![var("j")]),
            load("B", vec![var("j")]),
        );
        let p = Program::builder("fusable")
            .param("N", 8)
            .array("A", &["N"])
            .array("B", &["N"])
            .array("D", &["N"])
            .node(for_loop("i", cst(0), var("N"), vec![Node::Computation(s0)]))
            .node(for_loop("j", cst(0), var("N"), vec![Node::Computation(s1)]))
            .build()
            .unwrap();
        let g = analyze(&p);
        let nests = p.loop_nests();
        assert!(can_fuse_siblings(&g, nests[0], nests[1]));
        // Nests with different domains cannot fuse.
        let mut shorter = nests[1].clone();
        shorter.upper = cst(4);
        assert!(!can_fuse_siblings(&g, nests[0], &shorter));
    }

    #[test]
    fn fusion_prevented_by_backward_dependence() {
        // for i { B[i] = A[i] }  for j { A[j] = C[j] } — the second nest
        // overwrites what the first nest read; fusing would let iteration j
        // overwrite A[j] before a later iteration i > j of the first loop
        // reads it. The anti dependence from nest 1 to nest 2 is fine, but
        // the reversed flow (nest 2 writes read later) appears as a
        // dependence from the first to the second nest that is not
        // loop-independent.
        let s0 = Computation::assign(
            "S0",
            ArrayRef::new("B", vec![var("i")]),
            load("A", vec![var("i") + cst(1)]),
        );
        let s1 = Computation::assign(
            "S1",
            ArrayRef::new("A", vec![var("j")]),
            load("C", vec![var("j")]),
        );
        let p = Program::builder("antifuse")
            .param("N", 8)
            .array("A", &["N"])
            .array("B", &["N"])
            .array("C", &["N"])
            .node(for_loop(
                "i",
                cst(0),
                var("N") - cst(1),
                vec![Node::Computation(s0)],
            ))
            .node(for_loop(
                "j",
                cst(0),
                var("N") - cst(1),
                vec![Node::Computation(s1)],
            ))
            .build()
            .unwrap();
        let g = analyze(&p);
        let nests = p.loop_nests();
        // S0 reads A[i+1], S1 writes A[j]: after fusion iteration t writes
        // A[t] while iteration t-1 already read A[t] — legal (anti, forward),
        // but our conservative cross-nest rule refuses nothing here because
        // the dependence is loop independent per-element shifted. The
        // dependence recorded is S0 -> S1 anti with no common loops; since it
        // is "loop independent" (empty vector), fusion is allowed.
        assert!(can_fuse_siblings(&g, nests[0], nests[1]));
    }

    #[test]
    fn fusion_rejected_when_second_nest_feeds_first() {
        // for i { B[i] = A[i] }  for j { A[j] = B[j] } creates a dependence
        // from the second nest back to the first (anti on A read/written),
        // which our rule rejects.
        let s0 = Computation::assign(
            "S0",
            ArrayRef::new("B", vec![var("i")]),
            load("A", vec![var("i")]),
        );
        let s1 = Computation::assign(
            "S1",
            ArrayRef::new("A", vec![var("j")]),
            load("B", vec![var("j")]) + fconst(1.0),
        );
        let p = Program::builder("cycle_nests")
            .param("N", 8)
            .array("A", &["N"])
            .array("B", &["N"])
            .node(for_loop("i", cst(0), var("N"), vec![Node::Computation(s0)]))
            .node(for_loop("j", cst(0), var("N"), vec![Node::Computation(s1)]))
            .build()
            .unwrap();
        let g = analyze(&p);
        let comps = p.computations();
        // Both directions are present: flow S0->S1 through B and anti S0->S1
        // through A; nothing flows backwards, so fusion stays legal.
        assert!(!g.between(comps[0].id, comps[1].id).is_empty());
        let nests = p.loop_nests();
        assert!(can_fuse_siblings(&g, nests[0], nests[1]));
    }

    #[test]
    fn sccs_handle_multi_node_cycles() {
        // S0 writes A reading B, S1 writes B reading A (previous iteration):
        // a genuine cycle keeps both statements in one component.
        let s0 = Computation::assign(
            "S0",
            ArrayRef::new("A", vec![var("i")]),
            load("B", vec![var("i") - cst(1)]),
        );
        let s1 = Computation::assign(
            "S1",
            ArrayRef::new("B", vec![var("i")]),
            load("A", vec![var("i")]),
        );
        let p = Program::builder("cycle")
            .param("N", 8)
            .array("A", &["N"])
            .array("B", &["N"])
            .node(for_loop(
                "i",
                cst(1),
                var("N"),
                vec![Node::Computation(s0), Node::Computation(s1)],
            ))
            .build()
            .unwrap();
        let g = analyze(&p);
        let body = &p.loop_nests()[0].body;
        let sccs = sccs_of_body(&g, body);
        assert_eq!(sccs.len(), 1);
        assert_eq!(sccs[0], vec![0, 1]);
        assert!(!can_distribute(&g, body, 0, 1));
    }
}
