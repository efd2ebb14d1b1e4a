//! The recipe search.
//!
//! The paper seeds the scheduling database with recipes found by an
//! evolutionary search: a population seeded by the Tiramisu auto-scheduler's
//! proposals, refined through mutation and selection with the measured
//! runtime as fitness (§4). Here the fitness is the analytical cost model,
//! and the space is small enough to price whole, so [`EvolutionarySearch`]
//! enumerates it and keeps the cheapest recipe: its answer is the space's
//! exact optimum, which a test can check (`tests/search_oracle.rs`).
//!
//! # The space
//!
//! For a nest whose perfect chain runs from `outer` to `inner`, a recipe
//! makes three choices, and its steps always come in this order:
//!
//! 1. tile every chain loop with one size of 32, 64, 16 or 128, or not
//!    (chains of two or more loops only);
//! 2. parallelize `outer` (its tile loop `{outer}_t` when tiled), or not;
//! 3. vectorize `inner`, or not.
//!
//! That is 20 recipes for a chain of two or more loops and 4 for a single
//! loop; the caller's seeds are priced after them, because a seed can fall
//! outside the space. Ties go to the first recipe in this order: untiled
//! before the tile sizes as listed, unmarked before marked, the space before
//! the seeds. The identity comes first, so a schedule changes only where a
//! recipe is strictly cheaper.
//!
//! There is no unroll axis. The cost model does not read a loop's unroll
//! factor, so every unrolled recipe ties, bit for bit, with the same recipe
//! without unrolling (`machine::cost`'s tests pin that). The axis comes back
//! when the model starts to price unrolling; the oracle test, whose
//! enumeration does unroll, fails first on that day.
//!
//! # Evaluation pipeline
//!
//! **One scorer.** The base program's per-node costs are priced once; a
//! candidate then differs from the base only in the nest the recipe
//! rewrote, so its score is the base costs with that one slot re-priced
//! (summed in the same order as a full [`CostModel::estimate`], so scores
//! are bit-identical to the naive path). That is `ScoreContext`: the
//! semantic gate plus `Recipe::apply_to_nest` on *the nest alone*
//! (`rewrite`), and prefix costs + the rewritten nest + suffix costs
//! (`score_rewrite`). The search scores its candidates through it, and so
//! does the scheduler's transfer tuning (`DaisyScheduler::schedule` prices
//! the normalized program once and hands every nest's database candidates
//! to the same two methods) — what a candidate costs does not grow with the
//! program around the nest, whoever asks. The cost model keeps no tables,
//! so each caller prices a node once and keeps the number: seeding prices a
//! program once for all of its nests' searches, and `score_rewrite` hands
//! back the rewritten nest's cost with its score, which the scheduler's
//! merge puts in the winner's slot instead of pricing it again.
//!
//! Per nest of transfer tuning: the exact match's and the nearest
//! neighbours' recipes are retargeted onto the nest's chain and deduped
//! *before* the gate — an equal recipe rewrites the nest equally, so only
//! the first of equal ones is gated, rewritten and hashed. The distinct
//! survivors' rewrites then dedupe on their structural hash, as below. A
//! nest that kept its loop order through normalization is gated with the
//! normalizer's graph; any other nest is analyzed by itself, once its first
//! candidate reaches the gate.
//!
//! Per search, all candidates go through one batch:
//!
//! 1. **Dedupe.** Equal recipes are rewritten and priced once. Enumerated
//!    recipes are distinct, so only a seed that repeats one, or another
//!    seed, is caught here. Distinct recipes whose rewrites happen to be
//!    structurally identical are caught at stage 3.
//! 2. **Early reject.** A unique recipe is checked against the nest's
//!    dependence graph — parallelizing a loop that carries a dependence or
//!    tiling across a dependence that tiling would reverse scores
//!    `f64::INFINITY` outright — and then *applied to the nest alone*
//!    (cheap, structural — no program clone); recipes whose transform
//!    legality check fails are likewise rejected without ever reaching the
//!    cost model.
//! 3. **Batched costing.** The legal rewrites are grouped by their
//!    structural hash — distinct recipes that converge on the same lowered
//!    rewrite share one pricing — and the groups are priced through the one
//!    worker pool. The model is a plain value, so the workers share nothing
//!    but the base program's node costs.
//!
//! **One fan-out rule.** Every queue of independent work in this crate goes
//! through [`machine::pool::parallel_map`] (see its module docs).
//!
//! Results are deterministic: scores are written back by candidate index,
//! and the first minimum wins.

use std::collections::BTreeSet;

use dependence::DependenceGraph;
use loop_ir::expr::Var;
use loop_ir::nest::{Loop, Node};
use loop_ir::program::Program;
use loop_ir::structural_hash_node;
use machine::pool::{parallel_map, Counters};
use machine::{CostModel, NestCost};
use transforms::{perfect_chain, Recipe, Transform};

/// The telemetry names of the crate's fan-outs: the seeding searches,
/// `schedule`'s nests and a search's rewrite groups.
pub(crate) const PARALLEL: Counters = Counters {
    jobs: "daisy.parallel.jobs",
    workers: "daisy.parallel.workers",
    fanouts: "daisy.parallel.fanouts",
    worker_items: "daisy.parallel.worker_items",
};

/// The square tile sizes of the search space, in tie-break order.
const TILE_SIZES: [i64; 4] = [32, 64, 16, 128];

/// Configuration of the search. It holds no settings: the space is fixed
/// (see the [module docs](self)).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SearchConfig;

/// The recipe search: it prices every recipe of a nest's space and keeps
/// the cheapest.
#[derive(Debug, Clone)]
pub struct EvolutionarySearch {
    parallel: bool,
}

impl Default for EvolutionarySearch {
    fn default() -> Self {
        EvolutionarySearch::new(SearchConfig)
    }
}

impl EvolutionarySearch {
    /// Creates a search, evaluating candidates in parallel with structural
    /// dedupe.
    pub fn new(_config: SearchConfig) -> Self {
        EvolutionarySearch { parallel: true }
    }

    /// Enables or disables parallel candidate evaluation. Disabled, unique
    /// candidates are costed one at a time on the calling thread (the
    /// incremental scoring and dedupe stay on) — useful under an outer
    /// parallel loop such as database seeding. Scores are identical either
    /// way.
    pub fn with_parallel(mut self, parallel: bool) -> Self {
        self.parallel = parallel;
        self
    }

    /// Searches for the best recipe for the `nest_index`-th top-level nest
    /// of the program: prices every recipe of the nest's space, then
    /// `seeds` (recipes of similar loop nests, say), with `model`.
    ///
    /// Returns the cheapest recipe — the first of equally cheap ones, in the
    /// order of the [module docs](self) — together with the whole program's
    /// estimated runtime under it.
    pub fn search(
        &self,
        program: &Program,
        nest_index: usize,
        model: &CostModel,
        seeds: &[Recipe],
    ) -> (Recipe, f64) {
        let node_costs = model.estimate(program).per_nest;
        self.search_with_graph(program, nest_index, model, &node_costs, seeds, None)
    }

    /// [`EvolutionarySearch::search`] given `node_costs`, the program's
    /// per-node costs under `model` (candidates only ever rewrite
    /// `nest_index`, so one pricing of the program serves every search of
    /// its nests), and gated with `graph`, the nest's dependences when the
    /// caller already holds them (the normalizer's graph of a nest it did
    /// not reorder); `None` analyzes the nest by itself.
    pub(crate) fn search_with_graph(
        &self,
        program: &Program,
        nest_index: usize,
        model: &CostModel,
        node_costs: &[NestCost],
        seeds: &[Recipe],
        graph: Option<&DependenceGraph>,
    ) -> (Recipe, f64) {
        let Some(Node::Loop(nest)) = program.body.get(nest_index) else {
            return (Recipe::identity(), f64::INFINITY);
        };
        let _span = telemetry::span("search");
        // Dependences of the nest under search, computed at most once: the
        // semantic gate consults them for every candidate.
        let scoped;
        let graph = match graph {
            Some(graph) => graph,
            None => {
                scoped = nest_scoped_graph(program, nest);
                &scoped
            }
        };
        let mut candidates = space(nest);
        candidates.extend_from_slice(seeds);

        let context = ScoreContext {
            program,
            nest_index,
            nest,
            node_costs,
            graph,
        };
        let scores = self.score_batch(&context, &candidates, model);
        // Strictly lower only: the first of equal scores wins.
        let mut best = 0;
        for (index, &score) in scores.iter().enumerate() {
            if score < scores[best] {
                best = index;
            }
        }
        (candidates.swap_remove(best), scores[best])
    }

    /// Scores a batch of recipes: dedupe, early-reject, then (adaptively
    /// parallel) incremental costing of the legal rewrites, batched so each
    /// distinct lowered rewrite is priced exactly once. Returns one score
    /// per recipe, in order.
    fn score_batch(
        &self,
        context: &ScoreContext<'_>,
        recipes: &[Recipe],
        model: &CostModel,
    ) -> Vec<f64> {
        // Stage 1: dedupe — an equal recipe rewrites the nest equally, so
        // only the first of equal ones is rewritten and priced.
        let mut unique: Vec<&Recipe> = Vec::new();
        let mut slot_of: Vec<usize> = Vec::with_capacity(recipes.len());
        for recipe in recipes {
            let slot = unique.iter().position(|seen| *seen == recipe);
            slot_of.push(slot.unwrap_or_else(|| {
                unique.push(recipe);
                unique.len() - 1
            }));
        }
        telemetry::counter("daisy.search.candidates", recipes.len() as u64);
        telemetry::counter(
            "daisy.search.deduped_recipes",
            (recipes.len() - unique.len()) as u64,
        );

        // Stage 2: rewrite the unique recipes on the calling thread (cheap,
        // structural). The semantic gate and recipes that fail to apply
        // score infinity without ever reaching the cost model.
        let rewrites: Vec<Option<Node>> = unique
            .iter()
            .map(|recipe| context.rewrite(recipe))
            .collect();
        telemetry::counter(
            "daisy.search.rejected_precost",
            rewrites.iter().filter(|r| r.is_none()).count() as u64,
        );

        // Stage 3: batch the candidate costing — one lowered rewrite per
        // structurally identical variant group. Distinct recipes can
        // converge on the same rewrite (a seed that orders a space recipe's
        // steps differently, say), so group by the rewrite's structural
        // hash and price each group exactly once. Whether the groups leave the
        // calling thread is the pool's one fan-out rule to decide. Scores
        // are identical at any fan-out.
        let mut group_of: Vec<Option<usize>> = vec![None; unique.len()];
        let mut groups: Vec<(u64, &Node)> = Vec::new();
        for (index, rewrite) in rewrites.iter().enumerate() {
            let Some(rewrite) = rewrite else { continue };
            let hash = structural_hash_node(rewrite);
            let group = groups
                .iter()
                .position(|(h, _)| *h == hash)
                .unwrap_or_else(|| {
                    groups.push((hash, rewrite));
                    groups.len() - 1
                });
            group_of[index] = Some(group);
        }
        telemetry::counter("daisy.search.rewrites_priced", groups.len() as u64);
        let price = |&(_, rewrite): &(u64, &Node)| context.score_rewrite(rewrite, model).0;
        let workers = if self.parallel { 0 } else { 1 };
        let group_costs = parallel_map(workers, &groups, &PARALLEL, price);
        slot_of
            .into_iter()
            .map(|slot| group_of[slot].map_or(f64::INFINITY, |g| group_costs[g]))
            .collect()
    }
}

/// The search space of `nest`, in tie-break order (see the
/// [module docs](self)): tile size outermost, then the parallel mark, then
/// the vector mark, each unmarked first. The identity comes first.
fn space(nest: &Loop) -> Vec<Recipe> {
    let chain: Vec<&Loop> = perfect_chain(nest).collect();
    let (outer, inner) = (&nest.iter, &chain[chain.len() - 1].iter);
    let tiles = if chain.len() >= 2 {
        &TILE_SIZES[..]
    } else {
        &[]
    };
    let mut space = Vec::with_capacity(4 * (1 + tiles.len()));
    for tile in std::iter::once(None).chain(tiles.iter().map(Some)) {
        for parallel in [false, true] {
            for vectorize in [false, true] {
                let mut steps = Vec::with_capacity(3);
                if let Some(&size) = tile {
                    let tiles = chain.iter().map(|l| (l.iter.clone(), size)).collect();
                    steps.push(Transform::Tile { tiles });
                }
                if parallel {
                    let iter = match tile {
                        Some(_) => Var::new(format!("{outer}_t")),
                        None => outer.clone(),
                    };
                    steps.push(Transform::Parallelize { iter });
                }
                if vectorize {
                    let iter = inner.clone();
                    steps.push(Transform::Vectorize { iter });
                }
                space.push(Recipe::new(steps));
            }
        }
    }
    space
}

/// Dependence graph of one top-level nest in isolation.
///
/// The whole-program graph would let an iterator name shared between
/// unrelated top-level nests (ubiquitous in CLOUDSC, where every nest loops
/// over `jl`/`jk`) leak dependences across nests and veto legal
/// parallelizations; analyzing the nest alone, under the program's
/// parameters, scopes every query to the nest under search.
pub fn nest_scoped_graph(program: &Program, nest: &Loop) -> DependenceGraph {
    dependence::analyze_nest(program, nest)
}

/// Semantic legality gate for a recipe against a nest's dependence graph:
///
/// * `tile(x:..)` is illegal when any dependence direction on a tiled
///   iterator admits `>`: `tile_band` hoists the tile loops outermost, and
///   a hoisted `>` level can run sink iterations before their source while
///   every other tile loop sits at "same tile",
/// * `parallelize(x)` is illegal when `x` carries a dependence at its
///   position in the nest,
/// * `parallelize(x_t)` (the hoisted tile loop of `x`) is illegal whenever
///   any dependence admits `<` in `x`: the tile loop runs above the whole
///   band, where no other loop can discharge the dependence (outer tile
///   loops always admit "same tile").
///
/// Tile loops are handled conservatively throughout: an outer tile loop
/// never discharges a dependence (the source and sink may fall into the
/// same tile), so parallelizing a point loop whose iterator carries a
/// dependence stays illegal even below its own tile loop.
///
/// Vectorization and unrolling are left to the cost model: the machine
/// model prices them as in-order SIMD/ILP, which is semantics-preserving
/// for the dependence patterns the IR can express.
pub fn recipe_is_semantically_legal(graph: &DependenceGraph, nest: &Loop, recipe: &Recipe) -> bool {
    // The nest's loops, outermost first: no step reorders them (tile loops
    // are tracked through `tiled`: each `x_t` chunks `x` in place).
    let order = nest.nested_iterators();
    let mut tiled: BTreeSet<Var> = BTreeSet::new();
    let mut parallel_points: BTreeSet<Var> = BTreeSet::new();
    let mut parallel_tiles: BTreeSet<Var> = BTreeSet::new();
    for step in &recipe.steps {
        match step {
            Transform::Parallelize { iter } => {
                match iter.as_str().strip_suffix("_t") {
                    Some(stripped) if !order.contains(iter) => {
                        parallel_tiles.insert(Var::new(stripped));
                    }
                    _ => {
                        parallel_points.insert(iter.clone());
                    }
                };
            }
            Transform::Tile { tiles } => {
                // The hoisted tile loop of `v` replays `v`'s direction
                // above the whole band; a direction admitting `>` there
                // makes some dependence vector lexicographically negative
                // (outer tile loops can always sit at "same tile", i.e.
                // `=`), so the reordering is illegal.
                let hoisted_negative = graph.all().iter().any(|dep| {
                    tiles.iter().any(|(v, _)| {
                        order.contains(v) && dep.direction_of(v).is_some_and(|d| d.may_be_gt())
                    })
                });
                if hoisted_negative {
                    return false;
                }
                tiled.extend(tiles.iter().map(|(v, _)| v.clone()));
            }
            Transform::Vectorize { .. } | Transform::Unroll { .. } => {}
        }
    }
    // A tile loop sits above the whole band where nothing discharges a
    // dependence, so any `<` direction in its base iterator is carried.
    for base in &parallel_tiles {
        let carried = graph
            .all()
            .iter()
            .any(|dep| dep.direction_of(base).is_some_and(|d| d.may_be_lt()));
        if carried {
            return false;
        }
    }
    // Point-loop marks are judged at their position in the nest: carried
    // when the dependence can run in `base`'s direction while every outer
    // non-tile loop admits `=`.
    for base in &parallel_points {
        let Some(pos) = order.iter().position(|v| v == base) else {
            continue;
        };
        let carried = graph.all().iter().any(|dep| {
            dep.direction_of(base).is_some_and(|d| d.may_be_lt())
                && order[..pos]
                    .iter()
                    .all(|u| tiled.contains(u) || dep.direction_of(u).is_none_or(|d| d.may_be_eq()))
        });
        if carried {
            return false;
        }
    }
    true
}

/// The one incremental scorer, shared by the search and the
/// scheduler's transfer tuning: a program whose per-node costs were priced
/// once, and the one nest of it that candidates rewrite.
pub(crate) struct ScoreContext<'a> {
    pub(crate) program: &'a Program,
    pub(crate) nest_index: usize,
    /// The nest being rewritten (`program.body[nest_index]`).
    pub(crate) nest: &'a Loop,
    /// Per-node costs of the base program, aligned with `program.body`.
    pub(crate) node_costs: &'a [NestCost],
    /// Dependences of `nest` in isolation, for the semantic legality gate.
    pub(crate) graph: &'a DependenceGraph,
}

impl ScoreContext<'_> {
    /// The candidate that applies `recipe` to the nest, as the node that
    /// replaces it — `None` when the recipe fails the semantic legality gate
    /// or does not apply. Structural only: no program clone, no pricing.
    pub(crate) fn rewrite(&self, recipe: &Recipe) -> Option<Node> {
        if !recipe_is_semantically_legal(self.graph, self.nest, recipe) {
            return None;
        }
        recipe.apply_to_nest(self.nest).ok().map(Node::Loop)
    }

    /// Whole-program seconds of the candidate that replaces the nest with
    /// `rewrite`, and the cost of `rewrite`, which a caller keeps if the
    /// candidate wins. Seconds are summed node by node in body order — the
    /// exact order [`CostModel::estimate`] uses — so they are bit-identical
    /// to pricing the materialized candidate program.
    pub(crate) fn score_rewrite(&self, rewrite: &Node, model: &CostModel) -> (f64, NestCost) {
        let mut seconds = 0.0;
        for cost in &self.node_costs[..self.nest_index] {
            seconds += cost.seconds;
        }
        let priced = model.node_cost(self.program, rewrite);
        seconds += priced.seconds;
        for cost in &self.node_costs[self.nest_index + 1..] {
            seconds += cost.seconds;
        }
        (seconds, priced)
    }
}

/// Applies a recipe to the `nest_index`-th top-level node of a program and
/// returns the estimated runtime of the *whole* program, or `None` if the
/// recipe cannot be applied.
pub fn evaluate_recipe(
    program: &Program,
    nest_index: usize,
    recipe: &Recipe,
    model: &CostModel,
) -> Option<f64> {
    let candidate = apply_recipe_to_program(program, nest_index, recipe)?;
    Some(model.estimate(&candidate).seconds)
}

/// Builds a copy of the program with the recipe applied to one top-level
/// nest. Returns `None` when the recipe does not apply.
pub fn apply_recipe_to_program(
    program: &Program,
    nest_index: usize,
    recipe: &Recipe,
) -> Option<Program> {
    let Node::Loop(nest) = program.body.get(nest_index)? else {
        return None;
    };
    let replacement = recipe.apply_to_nest(nest).ok()?;
    let mut out = program.clone();
    out.body[nest_index] = Node::Loop(replacement);
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use loop_ir::parser::parse_program;
    use machine::MachineConfig;

    fn gemm(n: i64) -> Program {
        parse_program(&format!(
            "program gemm {{ param N = {n};
               array A[N][N]; array B[N][N]; array C[N][N];
               for i in 0..N {{ for k in 0..N {{ for j in 0..N {{
                 C[i][j] += A[i][k] * B[k][j];
               }} }} }} }}"
        ))
        .unwrap()
    }

    #[test]
    fn search_beats_the_identity_schedule() {
        let p = gemm(512);
        let model = CostModel::new(MachineConfig::xeon_e5_2680v3(), 12);
        let baseline = model.estimate(&p).seconds;
        let (best, time) = EvolutionarySearch::default().search(&p, 0, &model, &[]);
        assert!(
            time < baseline,
            "search ({time}) should beat identity ({baseline})"
        );
        assert!(!best.is_identity());
    }

    #[test]
    fn search_is_deterministic_for_a_fixed_seed() {
        let p = gemm(128);
        let model = CostModel::sequential();
        let search = EvolutionarySearch::default();
        let (a, ta) = search.search(&p, 0, &model, &[]);
        let (b, tb) = search.search(&p, 0, &model, &[]);
        assert_eq!(a, b);
        assert_eq!(ta, tb);
    }

    #[test]
    fn seeds_participate_in_the_population() {
        // A tile size outside the space: only the seed brings it in.
        let p = gemm(256);
        let model = CostModel::new(MachineConfig::xeon_e5_2680v3(), 8);
        let seed_recipe = Recipe::new(vec![
            Transform::Tile {
                tiles: vec![
                    (Var::new("i"), 48),
                    (Var::new("k"), 48),
                    (Var::new("j"), 48),
                ],
            },
            Transform::Parallelize {
                iter: Var::new("i_t"),
            },
            Transform::Vectorize {
                iter: Var::new("j"),
            },
        ]);
        let search = EvolutionarySearch::default();
        let ((_, with_seed), counters) =
            counted(|| search.search(&p, 0, &model, std::slice::from_ref(&seed_recipe)));
        assert_eq!(counters[..2], [21, 0], "the 20 of the space, then the seed");
        let seed_time = evaluate_recipe(&p, 0, &seed_recipe, &model).unwrap();
        assert!(with_seed <= seed_time + 1e-12);
    }

    #[test]
    fn the_space_lists_distinct_recipes_and_ties_keep_the_first() {
        let p = gemm(256);
        let recipes = space(p.loop_nests()[0]);
        assert_eq!(recipes.len(), 20);
        assert!(recipes[0].is_identity());
        for (index, recipe) in recipes.iter().enumerate() {
            assert!(!recipes[..index].contains(recipe), "{recipe} repeats");
        }
        let single = parse_program(
            "program one { param N = 64; array A[N]; for i in 0..N { A[i] = 1.0; } }",
        )
        .unwrap();
        assert_eq!(space(single.loop_nests()[0]).len(), 4, "no tiling");

        // An unrolled copy of the winner prices the same, and seeds come
        // after the space: it does not displace the winner.
        let model = CostModel::new(MachineConfig::xeon_e5_2680v3(), 12);
        let search = EvolutionarySearch::default();
        let (best, score) = search.search(&p, 0, &model, &[]);
        let unrolled = best.clone().then(Transform::Unroll {
            iter: Var::new("j"),
            factor: 4,
        });
        let (again, again_score) = search.search(&p, 0, &model, &[unrolled]);
        assert_eq!(again, best);
        assert_eq!(again_score.to_bits(), score.to_bits());
    }

    #[test]
    fn invalid_recipe_evaluates_to_none() {
        let p = gemm(64);
        let model = CostModel::sequential();
        let bad = Recipe::new(vec![Transform::Parallelize {
            iter: Var::new("does_not_exist"),
        }]);
        assert!(evaluate_recipe(&p, 0, &bad, &model).is_none());
        assert!(apply_recipe_to_program(&p, 5, &Recipe::identity()).is_none());
    }

    #[test]
    fn parallel_and_sequential_evaluation_agree() {
        let p = gemm(192);
        let model_a = CostModel::new(MachineConfig::xeon_e5_2680v3(), 8);
        let model_b = CostModel::new(MachineConfig::xeon_e5_2680v3(), 8);
        let (r_par, t_par) = EvolutionarySearch::default().search(&p, 0, &model_a, &[]);
        let (r_seq, t_seq) =
            EvolutionarySearch::default()
                .with_parallel(false)
                .search(&p, 0, &model_b, &[]);
        assert_eq!(r_par, r_seq);
        assert_eq!(t_par, t_seq);
    }

    /// Builds a scoring context over the program's only nest.
    fn context_of<'a>(
        p: &'a Program,
        node_costs: &'a [NestCost],
        graph: &'a DependenceGraph,
    ) -> ScoreContext<'a> {
        let Node::Loop(nest) = &p.body[0] else {
            panic!("first node is a nest");
        };
        ScoreContext {
            program: p,
            nest_index: 0,
            nest,
            node_costs,
            graph,
        }
    }

    /// A sink that keeps only one thread's counters. The recorder is
    /// process-global, and the other tests of this binary price and search
    /// outside any recorder scope; their counters would land in the totals.
    struct OneThread {
        thread: std::thread::ThreadId,
        sink: telemetry::CollectingRecorder,
    }

    impl telemetry::Recorder for OneThread {
        fn counter_add(&self, name: &'static str, delta: u64) {
            if std::thread::current().id() == self.thread {
                self.sink.counter_add(name, delta);
            }
        }
        fn histogram_record(&self, _: &'static str, _: u64) {}
        fn span_enter(&self, _: &str) {}
        fn span_exit(&self, _: &str, _: u64) {}
    }

    /// Runs `f` under a fresh sink of this thread's counters and returns
    /// its result and the counters: the search's candidates, deduped
    /// recipes, rejections before costing and rewrites priced, then the
    /// nests the cost model priced. A batch of one rewrite group is priced
    /// on the calling thread: the pool's caller takes the first item.
    fn counted<T>(f: impl FnOnce() -> T) -> (T, [u64; 5]) {
        let sink = std::sync::Arc::new(OneThread {
            thread: std::thread::current().id(),
            sink: telemetry::CollectingRecorder::default(),
        });
        let out = telemetry::with_recorder(sink.clone(), f);
        let sink = &sink.sink;
        let counters = [
            "daisy.search.candidates",
            "daisy.search.deduped_recipes",
            "daisy.search.rejected_precost",
            "daisy.search.rewrites_priced",
            "machine.cost.nests_priced",
        ]
        .map(|name| sink.counter_total(name));
        (out, counters)
    }

    #[test]
    fn illegal_recipes_are_rejected_without_costing() {
        let p = gemm(64);
        let model = CostModel::sequential();
        let node_costs = model.estimate(&p).per_nest;
        let search = EvolutionarySearch::default();
        let graph = nest_scoped_graph(&p, p.loop_nests()[0]);
        let batch = [
            Recipe::new(vec![Transform::Parallelize {
                iter: Var::new("nope"),
            }]),
            Recipe::identity(),
        ];
        let context = context_of(&p, &node_costs, &graph);
        let (scores, counters) = counted(|| search.score_batch(&context, &batch, &model));
        assert_eq!(scores[0], f64::INFINITY);
        assert!(scores[1].is_finite());
        // Only the legal rewrite reached the cost model.
        assert_eq!(counters, [2, 0, 1, 1, 1]);
    }

    #[test]
    fn duplicate_candidates_are_priced_once() {
        let p = gemm(64);
        let model = CostModel::sequential();
        let node_costs = model.estimate(&p).per_nest;
        let search = EvolutionarySearch::default();
        let graph = nest_scoped_graph(&p, p.loop_nests()[0]);
        let vectorize = Recipe::new(vec![Transform::Vectorize {
            iter: Var::new("j"),
        }]);
        let batch = [vectorize.clone(), vectorize.clone(), vectorize];
        let context = context_of(&p, &node_costs, &graph);
        let (scores, counters) = counted(|| search.score_batch(&context, &batch, &model));
        assert_eq!(scores[0], scores[1]);
        assert_eq!(scores[1], scores[2]);
        assert_eq!(counters, [3, 2, 0, 1, 1], "one recipe, one evaluation");
    }

    #[test]
    fn incremental_scoring_matches_the_reference_path_exactly() {
        // Multi-nest program: the incremental scorer must fold unchanged
        // nest costs in body order, so every candidate it prices scores
        // bit-identically to re-pricing the whole candidate program
        // (`evaluate_recipe`, the reference).
        let p = parse_program(
            "program multi { param N = 96; array A[N][N]; array B[N][N]; array C[N][N];
               for a in 0..N { for b in 0..N { B[a][b] = A[a][b] * 2.0; } }
               for i in 0..N { for k in 0..N { for j in 0..N {
                 C[i][j] += A[i][k] * B[k][j];
               } } }
               for x in 0..N { for y in 0..N { A[x][y] = C[x][y] + 1.0; } } }",
        )
        .unwrap();
        let Node::Loop(nest) = &p.body[1] else {
            panic!("second node is a nest");
        };
        let model = CostModel::sequential();
        let node_costs = model.estimate(&p).per_nest;
        let graph = nest_scoped_graph(&p, nest);
        let context = ScoreContext {
            program: &p,
            nest_index: 1,
            nest,
            node_costs: &node_costs,
            graph: &graph,
        };
        // The candidates a search prices — the nest's whole space — plus
        // one the dependence gate rejects (`k` carries the reduction into
        // `C`).
        let search = EvolutionarySearch::default();
        let mut candidates = space(nest);
        assert_eq!(candidates.len(), 20);
        let par_k = Recipe::new(vec![Transform::Parallelize {
            iter: Var::new("k"),
        }]);
        assert!(!recipe_is_semantically_legal(&graph, nest, &par_k));
        candidates.push(par_k);

        let scores = search.score_batch(&context, &candidates, &model);
        let mut finite = 0;
        for (recipe, score) in candidates.iter().zip(&scores) {
            let expected = if recipe_is_semantically_legal(&graph, nest, recipe) {
                evaluate_recipe(&p, 1, recipe, &model).unwrap_or(f64::INFINITY)
            } else {
                f64::INFINITY
            };
            assert_eq!(score.to_bits(), expected.to_bits(), "{recipe:?}");
            finite += usize::from(score.is_finite());
        }
        assert!(finite > candidates.len() / 2, "{finite} priced");
        assert_eq!(scores.last(), Some(&f64::INFINITY));

        // The search reports its winner's reference score.
        let (best, score) = search.search(&p, 1, &model, &[]);
        let expected = evaluate_recipe(&p, 1, &best, &model).unwrap();
        assert_eq!(score.to_bits(), expected.to_bits());
    }

    #[test]
    fn carried_dependences_veto_parallelization_before_costing() {
        // A[i][j] = A[i-1][j] + 1: the i loop carries a dependence, j does
        // not. Parallelizing i (or its tile loop) must be rejected by the
        // dependence gate without reaching the cost model; parallelizing j
        // stays legal.
        let p = parse_program(
            "program stencil { param N = 64; array A[N][N];
               for i in 1..N { for j in 0..N { A[i][j] = A[i - 1][j] + 1.0; } } }",
        )
        .unwrap();
        let Node::Loop(nest) = &p.body[0] else {
            panic!("first node is a nest");
        };
        let graph = nest_scoped_graph(&p, nest);
        let par_i = Recipe::new(vec![Transform::Parallelize {
            iter: Var::new("i"),
        }]);
        let par_j = Recipe::new(vec![Transform::Parallelize {
            iter: Var::new("j"),
        }]);
        let tiled_par_i = Recipe::new(vec![
            Transform::Tile {
                tiles: vec![(Var::new("i"), 16), (Var::new("j"), 16)],
            },
            Transform::Parallelize {
                iter: Var::new("i_t"),
            },
        ]);
        assert!(!recipe_is_semantically_legal(&graph, nest, &par_i));
        assert!(recipe_is_semantically_legal(&graph, nest, &par_j));
        assert!(!recipe_is_semantically_legal(&graph, nest, &tiled_par_i));
        // Tiling does not launder the carried dependence onto the point
        // loop either: parallelize(i) below its own tile loop stays
        // illegal (source and sink may share a tile).
        let tiled_par_point_i = Recipe::new(vec![
            Transform::Tile {
                tiles: vec![(Var::new("i"), 16)],
            },
            Transform::Parallelize {
                iter: Var::new("i"),
            },
        ]);
        assert!(!recipe_is_semantically_legal(
            &graph,
            nest,
            &tiled_par_point_i
        ));

        // A diagonal dependence A[i][j] = A[i-1][j-1]: i carries it, and j
        // is parallel because the outer i never stays `=` on it.
        let diag = parse_program(
            "program diag { param N = 64; array A[N][N];
               for i in 1..N { for j in 1..N { A[i][j] = A[i - 1][j - 1] + 1.0; } } }",
        )
        .unwrap();
        let Node::Loop(diag_nest) = &diag.body[0] else {
            panic!("first node is a nest");
        };
        let diag_graph = nest_scoped_graph(&diag, diag_nest);
        assert!(recipe_is_semantically_legal(&diag_graph, diag_nest, &par_j));
        assert!(!recipe_is_semantically_legal(
            &diag_graph,
            diag_nest,
            &par_i
        ));

        // tile_band hoists j_t above i, where nothing discharges the
        // diagonal dependence — parallelize(j_t) must be illegal even
        // though j's original position sits below the carrying i.
        let tile_par_jt = Recipe::new(vec![
            Transform::Tile {
                tiles: vec![(Var::new("j"), 16)],
            },
            Transform::Parallelize {
                iter: Var::new("j_t"),
            },
        ]);
        assert!(!recipe_is_semantically_legal(
            &diag_graph,
            diag_nest,
            &tile_par_jt
        ));

        // The gate rejects before costing: the illegal candidate scores
        // infinity and never reaches the cost model.
        let model = CostModel::sequential();
        let node_costs = model.estimate(&p).per_nest;
        let search = EvolutionarySearch::default();
        let batch = [par_i.clone()];
        let context = context_of(&p, &node_costs, &graph);
        let (scores, counters) = counted(|| search.score_batch(&context, &batch, &model));
        assert_eq!(scores[0], f64::INFINITY);
        assert_eq!(counters, [1, 0, 1, 0, 0], "nothing was priced");

        // And the full search never emits an illegal parallelization.
        let (best, _) = search.search(&p, 0, &model, std::slice::from_ref(&par_i));
        for step in &best.steps {
            if let Transform::Parallelize { iter } = step {
                assert_eq!(iter, &Var::new("j"), "only j may be parallelized");
            }
        }
    }

    #[test]
    fn recipes_converging_on_one_rewrite_are_priced_once() {
        // [Par, Vec] and [Vec, Par] are distinct recipes (different
        // fingerprints) whose lowered rewrites are structurally identical;
        // the batched costing must price that rewrite exactly once. The
        // observable: both score identically and the model prices one nest.
        let p = gemm(64);
        let model = CostModel::sequential();
        let node_costs = model.estimate(&p).per_nest;
        let search = EvolutionarySearch::default();
        let graph = nest_scoped_graph(&p, p.loop_nests()[0]);
        let par = Transform::Parallelize {
            iter: Var::new("i"),
        };
        let vec = Transform::Vectorize {
            iter: Var::new("j"),
        };
        let batch = [
            Recipe::new(vec![par.clone(), vec.clone()]),
            Recipe::new(vec![vec, par]),
        ];
        let context = context_of(&p, &node_costs, &graph);
        let (scores, counters) = counted(|| search.score_batch(&context, &batch, &model));
        assert_eq!(scores[0], scores[1]);
        assert_eq!(
            counters,
            [2, 0, 0, 1, 1],
            "two recipes, one shared pricing: the duplicate rewrite never reached the model"
        );
    }

    #[test]
    fn apply_recipe_replaces_only_the_target_nest() {
        let p = parse_program(
            "program two { param N = 32; array A[N]; array B[N];
               for i in 0..N { A[i] = 1.0; }
               for j in 0..N { B[j] = 2.0; } }",
        )
        .unwrap();
        let recipe = Recipe::new(vec![Transform::Vectorize {
            iter: Var::new("j"),
        }]);
        let out = apply_recipe_to_program(&p, 1, &recipe).unwrap();
        assert!(!out.loop_nests()[0].schedule.vectorize);
        assert!(out.loop_nests()[1].schedule.vectorize);
    }
}
