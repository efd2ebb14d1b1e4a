//! The two-step normalization pipeline (paper Figure 5).
//!
//! # One dependence graph per run
//!
//! [`Normalizer::run`] analyzes the input program exactly once and hands
//! that graph to the sweeps of maximal fission and to stride minimization,
//! although each of them works on a program the previous step already
//! rewrote. The graph in hand is the graph of each of those programs:
//!
//! * Fission only moves computations into loops of their own. It changes no
//!   computation, no iterator name and no loop bound, so every computation
//!   keeps its identifier, its accesses and its stack of enclosing loops
//!   (names and bounds) — which is all the test of a pair of computations
//!   reads, common loops being matched by name. Interchange, all stride
//!   minimization does, runs after the last query of its nest.
//! * Fission may exchange two computations, and [`dependence::analyze`]
//!   then meets their pair the other way round: source and destination
//!   exchanged, every vector reversed. The tester is symmetric — both
//!   iterations stay inside their own loop's bounds and the interval it
//!   checks is exact, so the mirrored question gets the mirrored answer
//!   (`dependence::tester` module docs). A carried dependence is oriented by
//!   its vector, not by which computation comes first, and two computations
//!   with a loop-independent one are never exchanged (it orders their
//!   SCCs). So the pair yields the same edges; only their position in the
//!   list can move, and the legality queries read the list as a set.
//!
//! `tests/single_graph.rs` pins that nothing is decided differently from
//! every sweep and pass analyzing for itself, and `daisy`'s
//! `tests/analysis_budget.rs` counts the one analysis.
//!
//! # The graph outlives the run
//!
//! [`NormalizedProgram`] keeps the graph and, per top-level node, whether
//! stride minimization reordered a loop anywhere inside it. For a node it
//! did not reorder, the graph's edges with both ends under that node are the
//! edges [`dependence::analyze_nest`] finds in the node, by the argument
//! above: fission left every computation of the node its identifier, its
//! accesses and its stack of enclosing loops, so the two analyses put each
//! pair of the node's computations through the same pair test, possibly
//! the other way round, which yields the same edges; only their position in
//! the list can differ. A consumer that reads the edges as a set — the
//! scheduler's legality gate does — can take them
//! ([`NormalizedProgram::into_nest_graphs`]) instead of analyzing the node
//! again. A reordered node is not covered: interchange changes the loop
//! stacks (and with them the order of every direction vector), and a
//! triangular bound can change with it.
//!
//! # One working copy
//!
//! [`Normalizer::run`] borrows its input and clones it once; that copy *is*
//! the result, handed by value from step to step:
//!
//! * `run` owns it, lends it to nobody, and validates it last.
//! * [`MaximalFission::run_with_graph`] takes and returns it. A sweep walks
//!   the bodies in place; a loop that splits gives its body nodes to the new
//!   loops (only the header — iterator, bounds — is copied per part), a loop
//!   that does not split is not touched, and the confirming sweep that
//!   changes nothing allocates nothing for the tree.
//! * [`StrideMinimization::run_with_graph`] takes and returns it. Orders are
//!   priced on strides alone, and a nest whose perfect chain is one loop
//!   long has no other order, so it is not priced at all. Orders are only
//!   checked against `interchange` while they are scanned; it builds the
//!   winner's nest alone, after the scan, and that nest replaces the old
//!   one. A nest that keeps its order is never copied.
//!
//! Names make this cheap to hold together: a [`loop_ir::expr::Var`] is a
//! shared immutable string, so the header copies above, the chain vectors
//! and the dependence records bump reference counts. `Var` still compares,
//! orders and hashes *by content* — the tie-break between equally cheap
//! loop orders is the order of their iterator names, and every
//! `BTreeMap<Var, _>` iterates by name — so which allocation a name lives in
//! decides nothing. `tests/golden_forms.rs` pins the normal forms themselves
//! (a node moved out of a body and not put back is the bug this design can
//! have, and the passes would agree on it).

use dependence::{analyze, DependenceGraph};
use loop_ir::nest::CompId;
use loop_ir::program::Program;

use crate::fission::{FissionStats, MaximalFission};
use crate::permute::{PermutationStats, StrideMinimization};

/// Aggregated statistics of a normalization run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NormalizationStats {
    /// Statistics of the maximal-fission step.
    pub fission: FissionStats,
    /// Statistics of the stride-minimization step.
    pub permutation: PermutationStats,
}

/// A normalized program together with the statistics of the run, and the
/// run's dependence graph (see the module docs, "The graph outlives the
/// run").
///
/// `==` and `Debug` see the normal form and the statistics only: the graph
/// and `reordered` are by-products of how the run got there.
#[derive(Clone)]
pub struct NormalizedProgram {
    /// The canonical-form program.
    pub program: Program,
    /// What the pipeline changed.
    pub stats: NormalizationStats,
    /// The dependence graph the run analyzed its input into; `None` for a
    /// program that was not normalized.
    pub graph: Option<DependenceGraph>,
    /// Per top-level node of `program`: stride minimization changed a loop
    /// order somewhere inside it.
    pub reordered: Vec<bool>,
}

impl PartialEq for NormalizedProgram {
    fn eq(&self, other: &Self) -> bool {
        self.program == other.program && self.stats == other.stats
    }
}

impl std::fmt::Debug for NormalizedProgram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NormalizedProgram")
            .field("program", &self.program)
            .field("stats", &self.stats)
            .finish()
    }
}

impl NormalizedProgram {
    /// The program, and per top-level node the dependences among its own
    /// computations where the run's graph still describes them: `None` for
    /// a node stride minimization reordered, and for every node when there
    /// is no graph. The edges move out of the graph; none is copied.
    pub fn into_nest_graphs(self) -> (Program, Vec<Option<DependenceGraph>>) {
        let Some(graph) = self.graph else {
            let nodes = self.program.body.len();
            return (self.program, vec![None; nodes]);
        };
        let body = &self.program.body;
        let kept: Vec<bool> = (0..body.len())
            .map(|i| {
                body[i].as_loop().is_some() && !self.reordered.get(i).copied().unwrap_or(false)
            })
            .collect();
        let mut owner: Vec<(CompId, usize)> = Vec::new();
        for (index, node) in body.iter().enumerate().filter(|&(i, _)| kept[i]) {
            owner.extend(node.computations().iter().map(|c| (c.id, index)));
        }
        owner.sort_unstable();
        let part_of = |id: CompId| {
            let at = owner.binary_search_by_key(&id, |&(id, _)| id).ok()?;
            Some(owner[at].1)
        };
        let graphs = graph
            .split(body.len(), part_of)
            .into_iter()
            .zip(kept)
            .map(|(part, kept)| kept.then_some(part))
            .collect();
        (self.program, graphs)
    }
}

/// The a priori loop nest normalization pipeline: maximal loop fission
/// followed by stride minimization. [`Normalizer::new`] and
/// [`Normalizer::default`] build the same pipeline.
#[derive(Debug, Clone, Default)]
pub struct Normalizer {
    fission: MaximalFission,
    stride: StrideMinimization,
}

impl Normalizer {
    /// Creates the pipeline.
    pub fn new() -> Self {
        Normalizer::default()
    }

    /// Runs the pipeline on a program.
    ///
    /// # Errors
    /// Returns the first validation error if a pass produced an ill-formed
    /// program — this is a bug guard; a well-formed input always normalizes
    /// to a well-formed output.
    pub fn run(&self, program: &Program) -> loop_ir::Result<NormalizedProgram> {
        let _span = telemetry::span("normalize.run");
        let graph = analyze(program);
        let (current, fission) = self.fission.run_with_graph(program.clone(), &graph);
        let (current, permutation, reordered) = self.stride.run_with_graph(current, &graph);
        current.validate()?;
        Ok(NormalizedProgram {
            program: current,
            stats: NormalizationStats {
                fission,
                permutation,
            },
            graph: Some(graph),
            reordered,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loop_ir::parser::parse_program;

    /// The paper's running example (Figure 3): two independent computations
    /// with contiguous and strided accesses in a single loop, normalized into
    /// two loop nests with minimized strides (Figure 3c).
    const FIGURE3: &str = r#"
        program figure3 {
          param N = 32; param M = 48;
          array A[N][M]; array B[N][M];
          array C[M][N]; array D[M][N];
          for i in 0..N {
            for j in 0..M {
              B[i][j] = A[i][j] * 2.0;
              D[j][i] = C[j][i] + 1.0;
            }
          }
        }
    "#;

    #[test]
    fn figure3_normalizes_to_two_stride_minimal_nests() {
        let p = parse_program(FIGURE3).unwrap();
        let normalized = Normalizer::new().run(&p).unwrap();
        let nests = normalized.program.loop_nests();
        assert_eq!(nests.len(), 2);
        // First nest keeps (i, j) for the row-major access B[i][j] = A[i][j].
        let first: Vec<String> = nests[0]
            .nested_iterators()
            .iter()
            .map(|v| v.to_string())
            .collect();
        assert_eq!(first, vec!["i", "j"]);
        // Second nest is permuted to (j, i) so that D[j][i] = C[j][i] becomes
        // unit-stride innermost (Figure 3c).
        let second: Vec<String> = nests[1]
            .nested_iterators()
            .iter()
            .map(|v| v.to_string())
            .collect();
        assert_eq!(second, vec!["j", "i"]);
        assert!(normalized.stats.fission.loops_split >= 1);
        assert_eq!(normalized.stats.permutation.nests_permuted, 1);
    }

    #[test]
    fn each_step_alone_does_half_of_figure3() {
        let p = parse_program(FIGURE3).unwrap();
        let (fission_only, _) = MaximalFission::new().run(p.clone());
        assert_eq!(fission_only.loop_nests().len(), 2);

        let (stride_only, stats) = StrideMinimization::new().run(p);
        // Without fission the single fused nest cannot pick a good order for
        // both statements at once; it stays a single nest.
        assert_eq!(stride_only.loop_nests().len(), 1);
        assert_eq!(stats.nests_examined, 1);
    }

    #[test]
    fn normalization_is_idempotent() {
        let p = parse_program(FIGURE3).unwrap();
        let once = Normalizer::new().run(&p).unwrap();
        let twice = Normalizer::new().run(&once.program).unwrap();
        assert_eq!(once.program, twice.program);
        assert_eq!(twice.stats.fission.loops_split, 0);
        assert_eq!(twice.stats.permutation.nests_permuted, 0);
    }

    #[test]
    fn semantically_equivalent_variants_reach_the_same_canonical_form() {
        // The same two computations written the other way around and with the
        // loops interchanged must normalize to the same canonical program
        // body (modulo statement names).
        let variant = r#"
            program figure3_variant {
              param N = 32; param M = 48;
              array A[N][M]; array B[N][M];
              array C[M][N]; array D[M][N];
              for j in 0..M {
                for i in 0..N {
                  D[j][i] = C[j][i] + 1.0;
                  B[i][j] = A[i][j] * 2.0;
                }
              }
            }
        "#;
        let a = Normalizer::new()
            .run(&parse_program(FIGURE3).unwrap())
            .unwrap();
        let b = Normalizer::new()
            .run(&parse_program(variant).unwrap())
            .unwrap();
        // Compare canonical structure: the set of (iterator order, statement
        // target array) pairs per nest.
        let shape = |p: &loop_ir::Program| {
            let mut nests: Vec<(Vec<String>, Vec<String>)> = p
                .loop_nests()
                .iter()
                .map(|l| {
                    (
                        l.nested_iterators().iter().map(|v| v.to_string()).collect(),
                        l.computations()
                            .iter()
                            .map(|c| c.target.array.to_string())
                            .collect(),
                    )
                })
                .collect();
            nests.sort();
            nests
        };
        assert_eq!(shape(&a.program), shape(&b.program));
    }

    #[test]
    fn default_and_new_build_the_same_pipeline() {
        use polybench::{all_benchmarks, Dataset};
        let mut programs = vec![parse_program(FIGURE3).unwrap()];
        for bench in all_benchmarks() {
            programs.push((bench.a)(Dataset::Mini));
            programs.push((bench.b)(Dataset::Mini));
        }
        for p in &programs {
            assert_eq!(
                Normalizer::default().run(p).unwrap(),
                Normalizer::new().run(p).unwrap(),
                "{}",
                p.name
            );
        }
    }
}
