//! Stride minimization (the second normalization criterion, §2.2).

use dependence::{analyze, is_permutation_legal, DependenceGraph, PermutationLegality};
use loop_ir::expr::Var;
use loop_ir::nest::{Loop, Node};
use loop_ir::program::Program;
use transforms::interchange::{check_interchange, interchange, perfect_chain};

use crate::stride::NestStrides;

/// Nests whose perfect chain is deeper than this are not exhaustively
/// enumerated; the grouped-sorting approximation is used instead, as proposed
/// by the paper for deep loop nests.
const ENUMERATION_LIMIT: usize = 6;

/// The stride-minimization normalization pass.
///
/// For every top-level loop nest of the program, the legal permutation of its
/// perfectly nested loops with the smallest [`sum_of_strides`] cost replaces
/// the nest. The pass assumes maximal loop fission already ran (§2.2: "We
/// assume the stride minimization criterion is applied after the maximal loop
/// fission criterion"), but is safe on any program: imperfectly nested parts
/// simply stay where they are.
#[derive(Debug, Clone, Default)]
pub struct StrideMinimization;

/// Statistics reported by the stride-minimization pass: counts only. What a
/// permutation bought is [`sum_of_strides`](crate::stride::sum_of_strides)
/// of the nest before and after; the pass prices no nest it cannot permute
/// (a perfect chain shorter than two loops), so it keeps no total.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PermutationStats {
    /// Number of loop nests examined.
    pub nests_examined: usize,
    /// Number of nests whose loop order changed.
    pub nests_permuted: usize,
    /// Number of nests handled by the grouped-sorting approximation.
    pub approximated: usize,
}

impl StrideMinimization {
    /// Creates the pass.
    pub fn new() -> Self {
        StrideMinimization
    }

    /// Runs the pass, returning the permuted program and statistics.
    pub fn run(&self, program: Program) -> (Program, PermutationStats) {
        let graph = analyze(&program);
        let (program, stats, _) = self.run_with_graph(program, &graph);
        (program, stats)
    }

    /// [`StrideMinimization::run`] given the dependence graph of `program`
    /// (only the edges inside each top-level nest are read). The third
    /// value says, per top-level node, whether the pass changed a loop order
    /// anywhere inside it.
    ///
    /// The pass owns `program`: a nest that changes order is replaced, every
    /// other node stays where it is, untouched.
    pub fn run_with_graph(
        &self,
        mut program: Program,
        graph: &DependenceGraph,
    ) -> (Program, PermutationStats, Vec<bool>) {
        let mut stats = PermutationStats::default();
        // The nests are rewritten against the declarations they sit beside.
        let mut body = std::mem::take(&mut program.body);
        let reordered = body
            .iter_mut()
            .map(|node| match node {
                Node::Loop(nest) => self.minimize_nest(&program, graph, nest, &mut stats),
                _ => false,
            })
            .collect();
        program.body = body;
        (program, stats, reordered)
    }

    /// Finds and applies the minimal-stride legal permutation for one nest,
    /// then recurses into loop nests below the perfect chain (imperfectly
    /// nested programs such as time-stepped stencils carry their permutable
    /// spatial nests *inside* the sequential time loop). `program` supplies
    /// the parameters and array declarations only. Returns whether a loop
    /// order changed anywhere in `nest`.
    ///
    /// A chain of one loop has no other order, so its accesses are not
    /// even linearized.
    pub fn minimize_nest(
        &self,
        program: &Program,
        graph: &DependenceGraph,
        nest: &mut Loop,
        stats: &mut PermutationStats,
    ) -> bool {
        stats.nests_examined += 1;
        let chain: Vec<Var> = perfect_chain(nest).map(|l| l.iter.clone()).collect();
        let mut reordered = false;
        if chain.len() >= 2 {
            let strides = NestStrides::of(program, nest, &chain);
            let best = if chain.len() <= ENUMERATION_LIMIT {
                self.enumerate(graph, nest, &chain, &strides)
            } else {
                stats.approximated += 1;
                self.grouped_sort(graph, nest, &chain, &strides)
            };
            if let Some(order) = best.filter(|order| *order != chain) {
                stats.nests_permuted += 1;
                *nest = interchange(nest, &order).expect("the winning order was checked");
                reordered = true;
            }
        }

        // Recurse into the loops below the end of the perfect chain.
        let mut innermost = nest;
        for _ in 1..chain.len() {
            let [Node::Loop(inner)] = innermost.body.as_mut_slice() else {
                unreachable!("a perfect chain descends through sole loop children");
            };
            innermost = inner;
        }
        // If the innermost chain loop has several children, each child loop
        // is itself a nest to minimize.
        if innermost.body.len() > 1 {
            for node in &mut innermost.body {
                if let Node::Loop(sub) = node {
                    reordered |= self.minimize_nest(program, graph, sub, stats);
                }
            }
        }
        reordered
    }

    /// Exhaustive enumeration of legal permutations (§2.2: "the minimum can
    /// simply be found by enumeration for many practically-relevant loop
    /// nests"). Returns the best order [`interchange`] accepts; the caller
    /// builds its nest.
    fn enumerate(
        &self,
        graph: &DependenceGraph,
        nest: &Loop,
        chain: &[Var],
        strides: &NestStrides<'_>,
    ) -> Option<Vec<Var>> {
        let weights = strides.weights();
        let weight = |iter: &Var| {
            let column = chain.iter().position(|c| c == iter);
            weights[column.expect("orders permute the chain")]
        };
        let legality = PermutationLegality::of(graph, nest);
        let mut best: Option<(f64, Vec<Var>)> = None;
        let mut order = chain.to_vec();
        for_each_permutation(&mut order, &mut |order| {
            if !legality.allows(order) {
                return;
            }
            let cost = strides.cost(order);
            // Deterministic tie-break independent of the incoming loop order:
            // prefer the order whose per-level stride weights decrease from
            // outermost to innermost, comparing the weight vectors
            // lexicographically (largest-stride iterators outermost), and
            // finally the iterator names.
            let better = match &best {
                None => true,
                Some((best_cost, best_order)) => {
                    let by_key = compare_keys(
                        order.iter().map(|v| -weight(v)),
                        best_order.iter().map(|v| -weight(v)),
                    );
                    cost < best_cost - 1e-9
                        || ((cost - best_cost).abs() <= 1e-9
                            && (by_key == std::cmp::Ordering::Less
                                || (by_key == std::cmp::Ordering::Equal
                                    && order < best_order.as_slice())))
                }
            };
            if !better {
                return;
            }
            // Triangular bounds make some orders structurally impossible;
            // interchange reports those. Only an order that would win is
            // checked, and only the winner's nest is built (by the caller,
            // and not at all when it is the nest's own order).
            if check_interchange(nest, order).is_ok() {
                best = Some((cost, order.to_vec()));
            }
        });
        best.map(|(_, order)| order)
    }

    /// Grouped-sorting approximation for deep nests: sort iterators by their
    /// total stride weight, largest strides outermost, and accept the order
    /// only if it is legal and [`interchange`] accepts it.
    fn grouped_sort(
        &self,
        graph: &DependenceGraph,
        nest: &Loop,
        chain: &[Var],
        strides: &NestStrides<'_>,
    ) -> Option<Vec<Var>> {
        let weights = strides.weights();
        let mut by_weight: Vec<(&Var, f64)> = chain.iter().zip(weights).collect();
        by_weight.sort_by(|(a, wa), (b, wb)| {
            wb.partial_cmp(wa)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.cmp(b))
        });
        let order: Vec<Var> = by_weight.into_iter().map(|(v, _)| v.clone()).collect();
        if !is_permutation_legal(graph, nest, &order) {
            return None;
        }
        check_interchange(nest, &order).ok()?;
        Some(order)
    }
}

fn compare_keys(
    a: impl IntoIterator<Item = f64>,
    b: impl IntoIterator<Item = f64>,
) -> std::cmp::Ordering {
    for (x, y) in a.into_iter().zip(b) {
        match x.partial_cmp(&y) {
            Some(std::cmp::Ordering::Equal) | None => continue,
            Some(other) => return other,
        }
    }
    std::cmp::Ordering::Equal
}

/// Calls `visit` on every permutation of `items`, rearranged in place by
/// Heap's algorithm; `items` ends in some permutation of itself.
fn for_each_permutation(items: &mut [Var], visit: &mut impl FnMut(&[Var])) {
    fn heap_permute(k: usize, items: &mut [Var], visit: &mut impl FnMut(&[Var])) {
        if k <= 1 {
            visit(items);
            return;
        }
        for i in 0..k {
            heap_permute(k - 1, items, visit);
            if k.is_multiple_of(2) {
                items.swap(i, k - 1);
            } else {
                items.swap(0, k - 1);
            }
        }
    }
    heap_permute(items.len(), items, visit);
}

#[cfg(test)]
mod tests {
    use super::*;
    use loop_ir::parser::parse_program;
    use loop_ir::prelude::*;

    fn order_of(program: &Program, nest_index: usize) -> Vec<String> {
        program.loop_nests()[nest_index]
            .nested_iterators()
            .iter()
            .map(|v| v.to_string())
            .collect()
    }

    fn gemm_update(order: &str) -> Program {
        let loops: Vec<char> = order.chars().collect();
        let src = format!(
            r#"
            program gemm_{order} {{
              param NI = 64; param NJ = 64; param NK = 64;
              array A[NI][NK]; array B[NK][NJ]; array C[NI][NJ];
              for {a} in 0..N{au} {{ for {b} in 0..N{bu} {{ for {c} in 0..N{cu} {{
                C[i][j] += A[i][k] * B[k][j];
              }} }} }}
            }}
            "#,
            a = loops[0],
            b = loops[1],
            c = loops[2],
            au = loops[0].to_uppercase(),
            bu = loops[1].to_uppercase(),
            cu = loops[2].to_uppercase(),
        );
        parse_program(&src).unwrap()
    }

    #[test]
    fn all_gemm_orders_normalize_to_the_same_canonical_order() {
        let canonical = {
            let p = gemm_update("ikj");
            let (n, _) = StrideMinimization::new().run(p);
            order_of(&n, 0)
        };
        for variant in ["ijk", "ikj", "jik", "jki", "kij", "kji"] {
            let p = gemm_update(variant);
            let (n, _) = StrideMinimization::new().run(p);
            assert_eq!(
                order_of(&n, 0),
                canonical,
                "variant {variant} should normalize to the canonical order"
            );
        }
        assert_eq!(canonical, vec!["i", "k", "j"]);
    }

    /// [`sum_of_strides`](crate::stride::sum_of_strides) of the program's
    /// first nest in its own loop order.
    fn strides_of(program: &Program) -> f64 {
        let nest = program.loop_nests()[0];
        crate::stride::sum_of_strides(program, nest, &nest.nested_iterators())
    }

    #[test]
    fn permutation_is_semantically_valid_program() {
        let p = gemm_update("kji");
        let before = strides_of(&p);
        let (n, stats) = StrideMinimization::new().run(p);
        assert!(n.validate().is_ok());
        assert_eq!(stats.nests_examined, 1);
        assert_eq!(stats.nests_permuted, 1);
        assert!(strides_of(&n) <= before);
    }

    #[test]
    fn stencil_with_carried_dependence_keeps_legal_order() {
        // A[i][j] = A[i-1][j+1]: interchanging i and j is illegal, so the
        // pass must keep (i, j) even though (j, i) is never better anyway.
        let src = r#"
            program skewed {
              param N = 32;
              array A[N][N];
              for i in 1..N { for j in 0..N - 1 {
                A[i][j] = A[i - 1][j + 1] + 1.0;
              } }
            }
        "#;
        let p = parse_program(src).unwrap();
        let (n, _) = StrideMinimization::new().run(p);
        assert_eq!(order_of(&n, 0), vec!["i", "j"]);
    }

    #[test]
    fn column_major_copy_is_transposed() {
        let src = r#"
            program copy_t {
              param N = 64; param M = 32;
              array C[M][N]; array D[M][N];
              for i in 0..N { for j in 0..M {
                D[j][i] = C[j][i];
              } }
            }
        "#;
        let p = parse_program(src).unwrap();
        let before = strides_of(&p);
        let (n, stats) = StrideMinimization::new().run(p);
        assert_eq!(order_of(&n, 0), vec!["j", "i"]);
        assert_eq!(stats.nests_permuted, 1);
        assert!(strides_of(&n) < before);
    }

    #[test]
    fn single_loop_nest_is_untouched() {
        let src = r#"
            program one {
              param N = 16;
              array A[N];
              for i in 0..N { A[i] = 1.0; }
            }
        "#;
        let p = parse_program(src).unwrap();
        let (n, stats) = StrideMinimization::new().run(p.clone());
        assert_eq!(n, p);
        assert_eq!(stats.nests_permuted, 0);
    }

    #[test]
    fn triangular_nests_keep_structurally_required_order() {
        let src = r#"
            program tri {
              param N = 32;
              array C[N][N];
              for i in 0..N { for j in 0..i + 1 {
                C[j][i] = 1.0;
              } }
            }
        "#;
        let p = parse_program(src).unwrap();
        let (n, _) = StrideMinimization::new().run(p);
        // (j, i) would have better strides but is structurally impossible
        // because j's bound depends on i.
        assert_eq!(order_of(&n, 0), vec!["i", "j"]);
    }

    #[test]
    fn deep_nests_use_grouped_sorting() {
        let s = Computation::assign(
            "S1",
            ArrayRef::new(
                "A",
                vec![
                    var("a"),
                    var("b"),
                    var("c"),
                    var("d"),
                    var("e"),
                    var("f"),
                    var("g"),
                ],
            ),
            fconst(1.0),
        );
        let mut node = Node::Computation(s);
        for iter in ["g", "f", "e", "d", "c", "b", "a"] {
            node = for_loop(iter, cst(0), cst(4), vec![node]);
        }
        let p = Program::builder("deep")
            .array_with_dims(
                "A",
                vec![cst(4), cst(4), cst(4), cst(4), cst(4), cst(4), cst(4)],
            )
            .node(node)
            .build()
            .unwrap();
        let pass = StrideMinimization::new();
        let (n, stats) = pass.run(p);
        assert_eq!(stats.approximated, 1);
        // Grouped sorting orders by descending stride weight: a, b, …, g.
        assert_eq!(order_of(&n, 0), vec!["a", "b", "c", "d", "e", "f", "g"]);
    }

    #[test]
    fn pass_is_idempotent() {
        let p = gemm_update("jki");
        let (once, _) = StrideMinimization::new().run(p);
        let (twice, stats) = StrideMinimization::new().run(once.clone());
        assert_eq!(once, twice);
        assert_eq!(stats.nests_permuted, 0);
    }

    #[test]
    fn permutations_helper_generates_all() {
        let mut items: Vec<Var> = ["a", "b", "c"].iter().map(|s| Var::new(*s)).collect();
        let mut perms = Vec::new();
        for_each_permutation(&mut items, &mut |order| perms.push(order.to_vec()));
        assert_eq!(perms.len(), 6);
        let unique: std::collections::BTreeSet<Vec<Var>> = perms.into_iter().collect();
        assert_eq!(unique.len(), 6);
    }
}
