//! Maximal loop fission (the first normalization criterion, §2.1).

use dependence::{analyze, sccs_of_body, DependenceGraph};
use loop_ir::nest::Node;
use loop_ir::program::Program;
use transforms::fission::distribute;

/// The maximal-loop-fission normalization pass.
///
/// Every loop body is distributed into one loop per strongly connected
/// component of the dependence graph restricted to that body, recursively and
/// to a fixed point. The resulting loop nests are "atomic": their bodies
/// contain computations and loops that cannot be separated due to data
/// dependences.
#[derive(Debug, Clone)]
pub struct MaximalFission {
    /// Upper bound on fixed-point iterations (a safety net; one bottom-up
    /// sweep already reaches the fixed point for well-formed programs).
    pub max_iterations: usize,
}

impl Default for MaximalFission {
    fn default() -> Self {
        MaximalFission::new()
    }
}

/// Statistics reported by the fission pass.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FissionStats {
    /// Number of loops whose body was split.
    pub loops_split: usize,
    /// Number of top-level loop nests before the pass.
    pub nests_before: usize,
    /// Number of top-level loop nests after the pass.
    pub nests_after: usize,
    /// Number of fixed-point iterations executed.
    pub iterations: usize,
}

impl MaximalFission {
    /// Creates the pass with the default iteration bound.
    pub fn new() -> Self {
        MaximalFission { max_iterations: 8 }
    }

    /// Runs the pass on a program, returning the fissioned program and
    /// statistics. Computation identifiers are preserved.
    pub fn run(&self, program: Program) -> (Program, FissionStats) {
        let graph = analyze(&program);
        self.run_with_graph(program, &graph)
    }

    /// [`MaximalFission::run`] given the dependence graph of `program`,
    /// which is also the graph of every program a sweep makes of it (see
    /// the [`crate::pipeline`] module docs).
    ///
    /// The pass owns `program`: a sweep moves nodes, it copies none, and a
    /// loop that does not split stays where it is.
    pub fn run_with_graph(
        &self,
        mut program: Program,
        graph: &DependenceGraph,
    ) -> (Program, FissionStats) {
        let mut stats = FissionStats {
            nests_before: program.loop_nests().len(),
            ..FissionStats::default()
        };
        let limit = self.max_iterations.max(1);
        for _ in 0..limit {
            stats.iterations += 1;
            let split_count = fission_body(&mut program.body, graph);
            stats.loops_split += split_count;
            if split_count == 0 {
                break;
            }
        }
        stats.nests_after = program.loop_nests().len();
        (program, stats)
    }
}

/// Fissions the loops of `body` in place, bottom-up: inner loops first, then
/// a loop's own body is distributed by dependence SCCs and the loop replaced
/// by its parts. Returns the number of loops split.
fn fission_body(body: &mut Vec<Node>, graph: &DependenceGraph) -> usize {
    let mut split_count = 0;
    let mut index = 0;
    while index < body.len() {
        let Node::Loop(l) = &mut body[index] else {
            index += 1;
            continue;
        };
        // First, maximally fission every child.
        split_count += fission_body(&mut l.body, graph);
        // Distribute the body by dependence SCCs, in topological order.
        let groups = if l.body.len() > 1 {
            sccs_of_body(graph, &l.body)
        } else {
            Vec::new()
        };
        if groups.len() <= 1 {
            index += 1;
            continue;
        }
        split_count += 1;
        let Node::Loop(l) = body.remove(index) else {
            unreachable!("matched as a loop above");
        };
        let parts = distribute(l, &groups).expect("SCCs partition the body indices");
        let count = parts.len();
        body.splice(index..index, parts.into_iter().map(Node::Loop));
        index += count;
    }
    split_count
}

#[cfg(test)]
mod tests {
    use super::*;
    use loop_ir::prelude::*;

    /// The paper's Figure 3a: two independent computations with contiguous
    /// and strided accesses sharing one loop nest.
    fn figure3a() -> Program {
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
            .param("N", 16)
            .param("M", 16)
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

    #[test]
    fn figure3a_splits_into_two_nests() {
        let (fissioned, stats) = MaximalFission::new().run(figure3a());
        // The inner loop is split and then the outer loop is split around the
        // two inner loops, yielding two separate two-deep nests (Fig. 3b).
        assert_eq!(fissioned.loop_nests().len(), 2);
        assert_eq!(stats.nests_before, 1);
        assert_eq!(stats.nests_after, 2);
        assert!(stats.loops_split >= 2);
        assert!(fissioned.validate().is_ok());
        let first = fissioned.loop_nests()[0];
        let second = fissioned.loop_nests()[1];
        assert_eq!(first.computations()[0].name, "S1");
        assert_eq!(second.computations()[0].name, "S2");
        assert_eq!(first.depth(), 2);
        assert_eq!(second.depth(), 2);
    }

    #[test]
    fn fission_preserves_computation_ids() {
        let p = figure3a();
        let ids_before: Vec<_> = p.computations().iter().map(|c| c.id).collect();
        let (fissioned, _) = MaximalFission::new().run(p);
        let mut ids_after: Vec<_> = fissioned.computations().iter().map(|c| c.id).collect();
        ids_after.sort();
        let mut expected = ids_before.clone();
        expected.sort();
        assert_eq!(ids_after, expected);
    }

    #[test]
    fn dependent_statements_stay_together() {
        // S1 consumes A produced by S2 in the *previous* iteration, and S2
        // consumes T produced by S1 in the *same* iteration: a genuine
        // cross-iteration cycle, so the two statements cannot be separated.
        let s1 = Computation::assign(
            "S1",
            ArrayRef::new("T", vec![var("i")]),
            load("A", vec![var("i") - cst(1)]),
        );
        let s2 = Computation::assign(
            "S2",
            ArrayRef::new("A", vec![var("i")]),
            load("T", vec![var("i")]) + fconst(1.0),
        );
        let p = Program::builder("cycle")
            .param("N", 16)
            .array("A", &["N"])
            .array("T", &["N"])
            .node(for_loop(
                "i",
                cst(1),
                var("N"),
                vec![Node::Computation(s1), Node::Computation(s2)],
            ))
            .build()
            .unwrap();
        let (fissioned, stats) = MaximalFission::new().run(p);
        // S2 writes A which S1 reads in a later iteration, and S1 writes T
        // which S2 reads in the same iteration: a dependence cycle, so the
        // statements must stay in one loop.
        assert_eq!(fissioned.loop_nests().len(), 1);
        assert_eq!(stats.loops_split, 0);
        assert_eq!(fissioned.loop_nests()[0].computations().len(), 2);
    }

    #[test]
    fn producer_consumer_is_distributed_in_order() {
        let s1 = Computation::assign(
            "S1",
            ArrayRef::new("T", vec![var("i")]),
            load("A", vec![var("i")]),
        );
        let s2 = Computation::assign(
            "S2",
            ArrayRef::new("B", vec![var("i")]),
            load("T", vec![var("i")]) * fconst(3.0),
        );
        let p = Program::builder("prodcons")
            .param("N", 16)
            .array("A", &["N"])
            .array("B", &["N"])
            .array("T", &["N"])
            .node(for_loop(
                "i",
                cst(0),
                var("N"),
                vec![Node::Computation(s1), Node::Computation(s2)],
            ))
            .build()
            .unwrap();
        let (fissioned, _) = MaximalFission::new().run(p);
        assert_eq!(fissioned.loop_nests().len(), 2);
        // Producer loop must come first.
        assert_eq!(fissioned.loop_nests()[0].computations()[0].name, "S1");
        assert_eq!(fissioned.loop_nests()[1].computations()[0].name, "S2");
    }

    #[test]
    fn gemm_init_and_update_separate() {
        // The classic PolyBench GEMM: C[i][j] *= beta; then k-loop update.
        // Fission separates the scaling statement from the reduction loop.
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
        let p = Program::builder("gemm")
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
            .unwrap();
        let (fissioned, _) = MaximalFission::new().run(p);
        assert_eq!(fissioned.loop_nests().len(), 2);
        let first = fissioned.loop_nests()[0];
        let second = fissioned.loop_nests()[1];
        assert_eq!(first.computations()[0].name, "S0");
        assert_eq!(first.depth(), 2);
        assert_eq!(second.computations()[0].name, "S1");
        assert_eq!(second.depth(), 3);
        assert!(second.is_perfect_nest());
    }

    #[test]
    fn already_atomic_program_is_unchanged() {
        let p = figure3a();
        let (once, _) = MaximalFission::new().run(p);
        let (twice, stats) = MaximalFission::new().run(once.clone());
        assert_eq!(once, twice);
        assert_eq!(stats.loops_split, 0);
        assert_eq!(stats.iterations, 1);
    }

    #[test]
    fn iteration_bound_is_respected() {
        let pass = MaximalFission { max_iterations: 1 };
        let (fissioned, stats) = pass.run(figure3a());
        assert_eq!(stats.iterations, 1);
        // One bottom-up sweep already reaches the fixed point.
        assert_eq!(fissioned.loop_nests().len(), 2);
    }
}
