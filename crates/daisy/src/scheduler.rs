//! The daisy auto-scheduler: normalization + idiom detection + transfer
//! tuning (§4, "Optimization Algorithm").

use std::path::{Path, PathBuf};

use dependence::DependenceGraph;
use loop_ir::expr::Var;
use loop_ir::nest::Node;
use loop_ir::program::Program;
use loop_ir::structural_hash_node;
use machine::pool::parallel_map;
use machine::{CostModel, CostReport, MachineConfig, NestCost};
use normalize::{NormalizedProgram, Normalizer};
use transforms::{perfect_chain, Recipe};
use tunestore::{Snapshot, StoreError, StoredEntry};

use crate::database::{nest_key, DatabaseEntry, TuningDatabase};
use crate::embedding::PerformanceEmbedding;
use crate::idiom::detect_blas_idiom;
use crate::search::{nest_scoped_graph, EvolutionarySearch, ScoreContext, PARALLEL};

/// Configuration of the daisy scheduler. The ablation study (Fig. 7) toggles
/// `normalize`; every nest that is not a BLAS idiom queries the
/// transfer-tuning database.
#[derive(Debug, Clone, PartialEq)]
pub struct DaisyConfig {
    /// Run a priori loop nest normalization before optimizing.
    pub normalize: bool,
    /// Replace recognized BLAS-3 loop nests with library calls.
    pub idiom_detection: bool,
    /// Number of threads the generated schedule may use. This is a cost
    /// model parameter (it changes the estimated runtimes and therefore the
    /// chosen schedules) and is part of the store fingerprint.
    pub threads: usize,
    /// Machine the schedules are costed on.
    pub machine: MachineConfig,
    /// How many nearest database entries to try per nest.
    pub neighbors: usize,
    /// Worker threads the scheduler itself may use: database seeding has
    /// one recipe search per nest to hand out, and
    /// [`DaisyScheduler::schedule`] one plan per independent top-level
    /// nest. `0` allows the machine's available parallelism; `1` is fully
    /// sequential. This is a ceiling, not a demand: the calling thread
    /// starts on the queue at once and helper threads are spawned only for
    /// work that outlasts the cost of spawning them (the one fan-out rule,
    /// see the "Evaluation pipeline" section of [`crate::search`]), so a
    /// `schedule` call on a small program runs on its caller at any value.
    /// Unlike [`threads`](DaisyConfig::threads) this knob never changes
    /// results — [`ScheduleOutcome`]s are bit-identical at any value — so
    /// it is *not* part of the store fingerprint.
    pub parallelism: usize,
    /// Read by nothing. The scheduler prices with the roofline alone and
    /// never simulates a cache, so this field has no effect and is *not*
    /// part of the store fingerprint. It stays only until the benchmark
    /// harness stops setting it.
    pub simulation_parallelism: usize,
}

impl Default for DaisyConfig {
    fn default() -> Self {
        DaisyConfig {
            normalize: true,
            idiom_detection: true,
            threads: 12,
            machine: MachineConfig::xeon_e5_2680v3(),
            neighbors: 3,
            parallelism: 0,
            simulation_parallelism: 0,
        }
    }
}

impl DaisyConfig {
    /// Returns this configuration with the given scheduler parallelism.
    pub fn with_parallelism(mut self, parallelism: usize) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Returns this configuration with the given
    /// [`simulation_parallelism`](DaisyConfig::simulation_parallelism),
    /// which nothing reads.
    pub fn with_simulation_parallelism(mut self, workers: usize) -> Self {
        self.simulation_parallelism = workers;
        self
    }
}

/// The result of scheduling a program.
///
/// `PartialEq` compares the optimized program, the full cost report and the
/// decision log — the cold/warm equivalence guarantee of the persistent
/// tuning store is checked with exactly this comparison (costs are `f64`s,
/// so equality is bit-identity, not tolerance). [`PhaseTimings`] are
/// wall-clock measurements and **explicitly excluded**: two outcomes that
/// took different amounts of time to compute still compare equal.
#[derive(Debug, Clone)]
pub struct ScheduleOutcome {
    /// The optimized program (normalized, idiom-replaced, recipes applied).
    pub program: Program,
    /// Cost-model estimate of the optimized program.
    pub report: CostReport,
    /// One human-readable note per top-level nest describing what was done.
    pub decisions: Vec<String>,
    /// Where the `schedule()` call itself spent its time. Observational
    /// only — never part of the bit-identity guarantee.
    pub phase_timings: PhaseTimings,
}

impl PartialEq for ScheduleOutcome {
    fn eq(&self, other: &Self) -> bool {
        // phase_timings is deliberately not compared: wall clock varies
        // between bit-identical runs.
        self.program == other.program
            && self.report == other.report
            && self.decisions == other.decisions
    }
}

impl ScheduleOutcome {
    /// Estimated runtime in seconds.
    pub fn seconds(&self) -> f64 {
        self.report.seconds
    }
}

/// Wall-clock breakdown of one [`DaisyScheduler::schedule`] call, mirroring
/// the telemetry spans `schedule.normalize` / `schedule.seed` /
/// `schedule.search` / `schedule.cost`. Always populated (four `Instant`
/// reads), whether or not a telemetry recorder is installed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTimings {
    /// A-priori normalization of the input program.
    pub normalize_ns: u64,
    /// Baseline pricing of the normalized program — the only whole-program
    /// estimate of the call. It supplies the total candidates must beat and
    /// the per-node costs every candidate and the merge are priced against.
    pub seed_ns: u64,
    /// Per-nest planning: idiom detection, database lookup, legality
    /// gates, candidate rewriting and pricing.
    pub search_ns: u64,
    /// Deterministic merge: each winner put in its nest's slot, idiom calls
    /// priced, the report totalled from the per-node costs.
    pub cost_ns: u64,
}

impl PhaseTimings {
    /// Sum over all phases.
    pub fn total_ns(&self) -> u64 {
        self.normalize_ns + self.seed_ns + self.search_ns + self.cost_ns
    }
}

impl std::fmt::Display for PhaseTimings {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        use telemetry::profile::fmt_ns;
        write!(
            f,
            "normalize {} · seed {} · search {} · cost {} (total {})",
            fmt_ns(self.normalize_ns),
            fmt_ns(self.seed_ns),
            fmt_ns(self.search_ns),
            fmt_ns(self.cost_ns),
            fmt_ns(self.total_ns()),
        )
    }
}

/// The daisy auto-scheduler.
#[derive(Debug, Clone, Default)]
pub struct DaisyScheduler {
    config: DaisyConfig,
    database: TuningDatabase,
    search: EvolutionarySearch,
}

impl DaisyScheduler {
    /// Creates a scheduler with the given configuration and an empty
    /// database.
    pub fn new(config: DaisyConfig) -> Self {
        DaisyScheduler {
            config,
            database: TuningDatabase::new(),
            search: EvolutionarySearch::default(),
        }
    }

    /// The scheduler's configuration.
    pub fn config(&self) -> &DaisyConfig {
        &self.config
    }

    /// Changes the scheduler's own worker-thread count
    /// ([`DaisyConfig::parallelism`]) without touching the database or the
    /// cost model. Outcomes are bit-identical at any value, so this is safe
    /// to flip between runs — including on a warm-started scheduler.
    pub fn set_parallelism(&mut self, parallelism: usize) {
        self.config.parallelism = parallelism;
    }

    /// Read access to the transfer-tuning database.
    pub fn database(&self) -> &TuningDatabase {
        &self.database
    }

    /// Seeds the scheduling database from a set of programs (the paper seeds
    /// from the normalized A variants): every non-BLAS loop nest contributes
    /// a `(embedding, recipe)` pair, the cheapest recipe of the nest's search
    /// space ([`crate::search`]).
    ///
    /// The per-nest searches are independent, so they are handed out over
    /// up to [`DaisyConfig::parallelism`] threads (each search evaluating its
    /// own candidates sequentially — the outer fan-out already saturates the
    /// cores); entries are inserted in deterministic program/nest order
    /// afterwards.
    pub fn seed_from_programs(&mut self, programs: &[Program]) {
        for entry in self.seed_entries(programs) {
            self.database.insert(entry);
        }
    }

    /// Computes the database entries seeding these programs produces (the
    /// heart of [`DaisyScheduler::seed_from_programs`]), in deterministic
    /// program/nest order. Each normalized program is priced once, and its
    /// per-node costs serve every search of its nests.
    fn seed_entries(&self, programs: &[Program]) -> Vec<DatabaseEntry> {
        let _span = telemetry::span("seeding");
        let model = &CostModel::new(self.config.machine.clone(), self.config.threads);
        // Each nest that kept its loop order is gated with the normalizer's
        // graph, as in `schedule`; any other is analyzed by its search.
        let normalized: Vec<_> = programs
            .iter()
            .map(|p| {
                let (program, graphs) = self.normalized(p).into_nest_graphs();
                let costs = model.estimate(&program).per_nest;
                (program, graphs, costs)
            })
            .collect();
        let mut jobs = Vec::new();
        for (program, graphs, costs) in &normalized {
            for (index, node) in program.body.iter().enumerate() {
                let Node::Loop(nest) = node else { continue };
                if self.config.idiom_detection && detect_blas_idiom(program, nest).is_some() {
                    // BLAS nests are handled by idiom detection at scheduling
                    // time; the database entry records that decision.
                    continue;
                }
                jobs.push((program, index, graphs[index].as_ref(), costs.as_slice()));
            }
        }
        telemetry::counter("daisy.seed.nests", jobs.len() as u64);
        let search = self.search.clone().with_parallel(false);
        let workers = self.config.parallelism;
        parallel_map(
            workers,
            &jobs,
            &PARALLEL,
            |&(program, index, graph, costs)| {
                // Keep the winning recipe's *nest-scoped* cost: the search
                // returns whole-program seconds (a sum over node costs), so
                // subtracting the other nodes' baseline isolates what the
                // recipe achieved on this nest. Whole-program cost would make
                // duplicate-key ranking depend on which seeding program the
                // entry happened to come from (e.g. under `tunedb merge`).
                let (recipe, cost) =
                    search.search_with_graph(program, index, model, costs, &[], graph);
                let others: f64 = costs
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| i != index)
                    .map(|(_, node)| node.seconds)
                    .sum();
                let nest = program.body[index]
                    .as_loop()
                    .expect("job indices point at loops");
                let chain: Vec<Var> = perfect_chain(nest).map(|l| l.iter.clone()).collect();
                DatabaseEntry {
                    key: nest_key(program, &program.body[index]),
                    cost: cost - others,
                    embedding: PerformanceEmbedding::of_nest(program, nest),
                    recipe,
                    chain,
                    source: format!("{}#{}", program.name, index),
                }
            },
        )
    }

    /// The fingerprint this scheduler stamps on persisted stores: the
    /// `tunestore` environment fingerprint extended with the machine model
    /// and thread count the costs were produced under. Two schedulers can
    /// exchange stores exactly when their fingerprints are equal — stored
    /// costs decide duplicate-key ranking, and costs from a different cost
    /// model are not comparable. The two knobs that cannot change stored
    /// costs — `parallelism` and `simulation_parallelism` — are deliberately
    /// excluded so stores stay exchangeable across them.
    pub fn store_fingerprint(&self) -> String {
        // Every machine parameter is encoded explicitly through the store
        // codec (not via Debug formatting, whose output is not a stability
        // guarantee). The exhaustive destructure (no `..`) turns a new
        // MachineConfig field into a compile error here, so a model change
        // can never silently keep old fingerprints valid.
        let machine::MachineConfig {
            name,
            frequency_hz,
            cores,
            scalar_flops_per_cycle,
            vector_width,
            vector_efficiency,
            l1_bytes,
            l1_assoc,
            l2_bytes,
            l2_assoc,
            l3_bytes,
            line_bytes,
            dram_bandwidth,
            bandwidth_scalability,
            l2_bandwidth,
            l1_bandwidth,
            blas_efficiency,
            parallel_overhead,
            atomic_penalty,
        } = &self.config.machine;
        let mut w = tunestore::codec::ByteWriter::new();
        w.string(name);
        for f in [
            frequency_hz,
            scalar_flops_per_cycle,
            vector_efficiency,
            dram_bandwidth,
            bandwidth_scalability,
            l2_bandwidth,
            l1_bandwidth,
            blas_efficiency,
            parallel_overhead,
            atomic_penalty,
        ] {
            w.f64(*f);
        }
        for n in [
            cores,
            vector_width,
            l1_bytes,
            l1_assoc,
            l2_bytes,
            l2_assoc,
            l3_bytes,
            line_bytes,
        ] {
            w.u64(*n as u64);
        }
        let machine = tunestore::codec::checksum(&w.into_bytes());
        format!(
            "{}-m{machine:016x}-t{}",
            tunestore::environment_fingerprint(),
            self.config.threads
        )
    }

    /// Replaces the database with one loaded from a persisted store,
    /// skipping seeding entirely. Returns the number of entries loaded.
    ///
    /// The store must carry this scheduler's [`store_fingerprint`]
    /// (environment + machine model + thread count: costs from a different
    /// cost model are not comparable) — otherwise
    /// [`StoreError::FingerprintMismatch`] is returned and the database is
    /// left untouched. A warm-started scheduler is guaranteed to produce
    /// bit-identical [`ScheduleOutcome`]s to the scheduler that persisted
    /// the store: entry order, keys, costs and recipes all round-trip
    /// exactly.
    ///
    /// [`store_fingerprint`]: DaisyScheduler::store_fingerprint
    ///
    /// # Errors
    /// Any [`StoreError`] from reading or decoding the snapshot.
    pub fn warm_start(&mut self, path: impl AsRef<Path>) -> Result<usize, StoreError> {
        let snapshot = self.load_own(path.as_ref())?;
        self.database = TuningDatabase::from_snapshot(&snapshot)?;
        Ok(self.database.len())
    }

    /// Loads the snapshot at `path`, rejecting one stamped with another
    /// [`store_fingerprint`](DaisyScheduler::store_fingerprint).
    fn load_own(&self, path: &Path) -> Result<Snapshot, StoreError> {
        let snapshot = Snapshot::load(path)?;
        let expected = self.store_fingerprint();
        if snapshot.fingerprint != expected {
            return Err(StoreError::FingerprintMismatch {
                found: snapshot.fingerprint,
                expected,
            });
        }
        Ok(snapshot)
    }

    /// Persists the current database to a store file (atomically), stamped
    /// with this scheduler's [`store_fingerprint`], so later runs can
    /// [`DaisyScheduler::warm_start`] instead of re-seeding.
    ///
    /// [`store_fingerprint`]: DaisyScheduler::store_fingerprint
    ///
    /// # Errors
    /// Any [`StoreError`] from writing the snapshot.
    pub fn persist(&self, path: impl AsRef<Path>) -> Result<(), StoreError> {
        let mut snapshot = self.database.to_snapshot();
        snapshot.fingerprint = self.store_fingerprint();
        snapshot.save(path)
    }

    /// Opens the snapshot at `path` for write-through inserts: the file's
    /// snapshot when it exists (one under another fingerprint is
    /// [`StoreError::FingerprintMismatch`]), an empty one stamped with this
    /// scheduler's [`store_fingerprint`] otherwise.
    ///
    /// [`store_fingerprint`]: DaisyScheduler::store_fingerprint
    ///
    /// # Errors
    /// Any [`StoreError`] from reading or decoding an existing snapshot.
    pub fn open_store(&self, path: impl AsRef<Path>) -> Result<WriteThroughStore, StoreError> {
        let path = path.as_ref().to_path_buf();
        let snapshot = if path.exists() {
            self.load_own(&path)?
        } else {
            Snapshot {
                fingerprint: self.store_fingerprint(),
                entries: Vec::new(),
            }
        };
        Ok(WriteThroughStore { path, snapshot })
    }

    /// The program [`schedule`](Self::schedule) plans: normalized when
    /// [`DaisyConfig::normalize`] is on, and the input as it is when it is
    /// off or when normalization fails (no graph then).
    fn normalized(&self, program: &Program) -> NormalizedProgram {
        let as_written = || NormalizedProgram {
            program: program.clone(),
            stats: Default::default(),
            graph: None,
            reordered: Vec::new(),
        };
        if !self.config.normalize {
            return as_written();
        }
        Normalizer::new()
            .run(program)
            .unwrap_or_else(|_| as_written())
    }

    /// Schedules a program: normalization (if enabled), then per top-level
    /// nest idiom detection and transfer-tuned recipe application.
    ///
    /// Each piece of per-program work happens once per call:
    ///
    /// * One dependence analysis: the normalizer's. Its graph is split by
    ///   top-level nest and handed to the nests that kept their loop order
    ///   (`normalize::pipeline`, "The graph outlives the run"); only a nest
    ///   stride minimization reordered, or every nest when normalization is
    ///   off, is analyzed again — by itself, and only once one of its
    ///   candidate recipes reaches the legality gate.
    /// * One pricing of the normalized program, in the `seed` phase. The
    ///   per-node costs are kept: every transfer-tuning candidate is then
    ///   scored by the nest it rewrote (see `plan_node`), each winner's plan
    ///   keeps the cost of its rewritten nest, and the merge puts it in the
    ///   nest's slot of the vector, pricing only idiom calls. Decision-line
    ///   estimates and the final [`CostReport`] are sums over the vector in
    ///   body order — the order [`CostModel::estimate`] adds in — so
    ///   nothing the outcome carries depends on the program around a nest
    ///   being re-priced.
    ///
    /// After normalization the top-level nests are independent: idiom
    /// detection, database lookup, legality checks and candidate pricing for
    /// one nest never read another nest's scheduling decision. The per-nest
    /// planning therefore goes through the scheduler's one fan-out rule
    /// (see [`DaisyConfig::parallelism`]); the resulting plans are merged
    /// back sequentially in nest order, so the returned [`ScheduleOutcome`]
    /// is bit-identical at any parallelism level (including warm-started
    /// runs against a persisted store).
    pub fn schedule(&self, program: &Program) -> ScheduleOutcome {
        let _span = telemetry::span("schedule");
        let model = CostModel::new(self.config.machine.clone(), self.config.threads);
        let ((normalized, graphs), normalize_ns) =
            telemetry::timed("normalize", || self.normalized(program).into_nest_graphs());
        // The baseline, priced once: its total is what candidates must
        // beat, its per-node costs are what they are scored against.
        let (baseline, seed_ns) = telemetry::timed("seed", || model.estimate(&normalized));

        // Phase 1: plan every top-level node independently.
        let (plans, search_ns) = telemetry::timed("search", || {
            let indices: Vec<usize> = (0..normalized.body.len()).collect();
            parallel_map(self.config.parallelism, &indices, &PARALLEL, |&i| {
                self.plan_node(&normalized, i, graphs[i].as_ref(), &model, &baseline)
            })
        });

        // Phase 2: deterministic merge in nest order. A plan replaces at
        // most its own node, so `costs` stays aligned with `current.body`.
        let mut current = normalized;
        let mut costs = baseline.per_nest;
        let mut decisions = Vec::new();
        let (report, cost_ns) = telemetry::timed("cost", || {
            for (index, plan) in plans.into_iter().enumerate() {
                match plan {
                    NestPlan::Passthrough => {}
                    NestPlan::Idiom(call) => {
                        decisions.push(format!("nest {index}: replaced with {call}"));
                        let node = Node::Call(call);
                        costs[index] = model.node_cost(&current, &node);
                        current.body[index] = node;
                    }
                    NestPlan::Recipe {
                        recipe,
                        source,
                        replacement,
                        priced,
                    } => {
                        costs[index] = priced;
                        current.body[index] = replacement;
                        // The whole-program estimate *with earlier decisions
                        // applied*, as a sequential walk would log it.
                        let seconds = costs.iter().fold(0.0, |sum, cost| sum + cost.seconds);
                        decisions.push(format!(
                            "nest {index}: applied recipe from {source} ({recipe}), est. {seconds:.4}s"
                        ));
                    }
                    NestPlan::Unoptimized(_) => {
                        decisions.push(format!("nest {index}: left unoptimized (-O3 only)"));
                    }
                }
            }
            CostReport::from_nests(costs)
        });
        // Debug builds re-price the result whole, a pricing release builds
        // skip: the merged costs must total to exactly it.
        debug_assert_eq!(report, model.estimate(&current));
        telemetry::counter("daisy.schedule.calls", 1);
        telemetry::counter("daisy.schedule.nests", current.body.len() as u64);
        ScheduleOutcome {
            program: current,
            report,
            decisions,
            phase_timings: PhaseTimings {
                normalize_ns,
                seed_ns,
                search_ns,
                cost_ns,
            },
        }
    }

    /// Plans one top-level node of the normalized program. Pure per-nest
    /// work — everything it reads (`normalized`, the database, the cost
    /// model, the baseline report) is shared immutably — so plans can be
    /// computed on any number of worker threads in any order without
    /// changing the result. `graph` is the dependences among the node's own
    /// computations when the normalizer's graph still describes them.
    ///
    /// Transfer tuning first collects the recipes the exact match and the
    /// nearest neighbours retarget onto the nest's chain, keeping the first
    /// of equal ones (an equal recipe rewrites the nest equally, so a later
    /// one could never win). Only then does a recipe meet the legality
    /// gate, and only then is the nest's graph derived when `graph` is
    /// `None`.
    ///
    /// What a candidate costs does not grow with the program around the
    /// nest: the recipe rewrites *the nest alone*, candidates dedupe on the
    /// rewrite's structural hash, and the search's [`ScoreContext`] scores
    /// one as the baseline's prefix costs + the rewritten nest + the
    /// suffix costs, in body order — bit-identical to pricing the
    /// materialized candidate program. The winning rewrite and its cost
    /// travel in the plan; nothing is applied or priced twice.
    fn plan_node(
        &self,
        normalized: &Program,
        index: usize,
        graph: Option<&DependenceGraph>,
        model: &CostModel,
        baseline: &CostReport,
    ) -> NestPlan {
        let Node::Loop(nest) = &normalized.body[index] else {
            return NestPlan::Passthrough;
        };
        // 1. BLAS idiom detection.
        if self.config.idiom_detection {
            if let Some(call) = detect_blas_idiom(normalized, nest) {
                telemetry::counter("daisy.plan.idiom_hits", 1);
                return NestPlan::Idiom(call);
            }
        }
        // 2. Transfer tuning: an O(1) exact-match lookup by the nest's
        //    structural-hash key first — a hit means the database holds
        //    a recipe tuned for a structurally identical nest at the
        //    same problem size — then the recipes of the nearest
        //    neighbours; the best candidate that is legal, applies and
        //    improves the cost wins. Neighbours whose retargeted
        //    recipes produce structurally identical candidates are
        //    priced once.
        let mut plan = NestPlan::Unoptimized(Unoptimized::NoCandidate);
        if !self.database.is_empty() {
            let chain: Vec<Var> = perfect_chain(nest).map(|l| l.iter.clone()).collect();
            let exact = self
                .database
                .lookup(nest_key(normalized, &normalized.body[index]));
            if exact.is_some() {
                telemetry::counter("daisy.plan.exact_hits", 1);
            }
            // The exact match is a candidate, not a short-circuit: the
            // k-NN scan always runs, and a neighbour's recipe displaces
            // the exact match's only where it prices strictly lower here.
            let embedding = PerformanceEmbedding::of_nest(normalized, nest);
            let neighbours = self.database.nearest(&embedding, self.config.neighbors);
            let mut candidates: Vec<(Recipe, &DatabaseEntry, bool)> = Vec::new();
            let entries = exact.map(|entry| (entry, true)).into_iter();
            for (entry, exact) in entries.chain(neighbours.into_iter().map(|entry| (entry, false)))
            {
                let Some(recipe) = TuningDatabase::retarget(entry, &chain) else {
                    continue;
                };
                if candidates.iter().all(|(seen, _, _)| *seen != recipe) {
                    candidates.push((recipe, entry, exact));
                }
            }
            let mut priced: Vec<u64> = Vec::new();
            if !candidates.is_empty() {
                // Dependences of this nest, for the same semantic gate the
                // seeding search applies (a recipe tuned on a structurally
                // similar but differently-constrained nest must not smuggle
                // in an illegal parallelization).
                let scoped;
                let graph = match graph {
                    Some(graph) => graph,
                    None => {
                        scoped = nest_scoped_graph(normalized, nest);
                        &scoped
                    }
                };
                let context = ScoreContext {
                    program: normalized,
                    nest_index: index,
                    nest,
                    node_costs: &baseline.per_nest,
                    graph,
                };
                let mut best_seconds = baseline.seconds;
                plan = NestPlan::Unoptimized(Unoptimized::NoneLegal);
                for (recipe, entry, exact) in candidates {
                    let Some(replacement) = context.rewrite(&recipe) else {
                        continue;
                    };
                    let hash = structural_hash_node(&replacement);
                    if priced.contains(&hash) {
                        continue;
                    }
                    priced.push(hash);
                    let (seconds, priced) = context.score_rewrite(&replacement, model);
                    if seconds < best_seconds {
                        let source = if exact {
                            format!("{} [exact]", entry.source)
                        } else {
                            entry.source.clone()
                        };
                        best_seconds = seconds;
                        plan = NestPlan::Recipe {
                            recipe,
                            source,
                            replacement,
                            priced,
                        };
                    } else if matches!(plan, NestPlan::Unoptimized(_)) {
                        plan = NestPlan::Unoptimized(Unoptimized::NoneBetter);
                    }
                }
            }
            telemetry::counter("daisy.plan.candidates_priced", priced.len() as u64);
        }
        match &plan {
            NestPlan::Unoptimized(reason) => {
                telemetry::counter("daisy.plan.unoptimized", 1);
                telemetry::counter(reason.counter(), 1);
            }
            _ => telemetry::counter("daisy.plan.recipes_applied", 1),
        }
        plan
    }
}

/// A snapshot file saved whole after every accepted insert, so an
/// acknowledged insert is durable. It exists only for the benchmark's store
/// probe, which times inserts through [`DaisyScheduler::open_store`], and
/// goes with that probe; `reproduce` persists through
/// [`DaisyScheduler::persist`].
#[derive(Debug)]
pub struct WriteThroughStore {
    path: PathBuf,
    snapshot: Snapshot,
}

impl WriteThroughStore {
    /// Inserts `entry` under best-cost-per-key dedupe ([`Snapshot::insert`])
    /// and, when it is accepted, saves the snapshot atomically
    /// ([`Snapshot::save`]). Returns whether the entry was accepted.
    ///
    /// # Errors
    /// Any [`StoreError`] from saving the snapshot.
    pub fn insert(&mut self, entry: StoredEntry) -> Result<bool, StoreError> {
        let accepted = self.snapshot.insert(entry);
        if accepted {
            self.snapshot.save(&self.path)?;
        }
        Ok(accepted)
    }
}

/// The scheduling decision for one top-level node of the normalized
/// program, computed independently per nest and merged in nest order.
#[derive(Debug, Clone)]
enum NestPlan {
    /// Not a loop nest: the node is copied through unchanged.
    Passthrough,
    /// Replaced by a recognized BLAS library call.
    Idiom(loop_ir::nest::BlasCall),
    /// A transfer-tuned recipe improved the estimated cost.
    Recipe {
        recipe: Recipe,
        source: String,
        replacement: Node,
        /// The cost of `replacement`, as the candidate was scored.
        priced: NestCost,
    },
    /// Left as normalization made it, for the reason given.
    Unoptimized(Unoptimized),
}

/// Why a nest was left unoptimized; each reason has a counter, and the
/// three sum to `daisy.plan.unoptimized`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Unoptimized {
    /// No exact match and no neighbour's recipe retargets onto the nest's
    /// chain (or transfer tuning is off, or the database empty).
    NoCandidate,
    /// Every distinct retargeted recipe failed the legality gate or did not
    /// apply.
    NoneLegal,
    /// Candidates were priced, and none beat the baseline.
    NoneBetter,
}

impl Unoptimized {
    fn counter(self) -> &'static str {
        match self {
            Unoptimized::NoCandidate => "daisy.plan.unoptimized.no_candidate",
            Unoptimized::NoneLegal => "daisy.plan.unoptimized.none_legal",
            Unoptimized::NoneBetter => "daisy.plan.unoptimized.none_better",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loop_ir::parser::parse_program;

    /// PolyBench-style GEMM, A variant (textbook loop order, fused scaling).
    fn gemm_a(n: i64) -> Program {
        parse_program(&format!(
            "program gemm_a {{ param NI = {n}; param NJ = {n}; param NK = {n};
               scalar alpha = 1.5; scalar beta = 1.2;
               array A[NI][NK]; array B[NK][NJ]; array C[NI][NJ];
               for i in 0..NI {{ for j in 0..NJ {{
                 C[i][j] = C[i][j] * beta;
                 for k in 0..NK {{ C[i][j] += alpha * A[i][k] * B[k][j]; }}
               }} }} }}"
        ))
        .unwrap()
    }

    /// Semantically equivalent B variant: scaling split off, reduction loops
    /// permuted badly.
    fn gemm_b(n: i64) -> Program {
        parse_program(&format!(
            "program gemm_b {{ param NI = {n}; param NJ = {n}; param NK = {n};
               scalar alpha = 1.5; scalar beta = 1.2;
               array A[NI][NK]; array B[NK][NJ]; array C[NI][NJ];
               for j in 0..NJ {{ for i in 0..NI {{
                 C[i][j] = C[i][j] * beta;
               }} }}
               for k in 0..NK {{ for j in 0..NJ {{ for i in 0..NI {{
                 C[i][j] += alpha * A[i][k] * B[k][j];
               }} }} }} }}"
        ))
        .unwrap()
    }

    #[test]
    fn gemm_is_idiom_replaced_after_normalization() {
        let scheduler = DaisyScheduler::new(DaisyConfig::default());
        let outcome = scheduler.schedule(&gemm_a(256));
        // After fission, the k-reduction nest is a clean GEMM and becomes a
        // library call; the scaling nest stays a loop.
        let calls = outcome
            .program
            .body
            .iter()
            .filter(|n| matches!(n, Node::Call(_)))
            .count();
        assert_eq!(calls, 1);
        assert!(outcome.decisions.iter().any(|d| d.contains("dgemm")));
    }

    #[test]
    fn idiom_detection_fails_without_normalization() {
        let config = DaisyConfig {
            normalize: false,
            ..DaisyConfig::default()
        };
        let scheduler = DaisyScheduler::new(config);
        let outcome = scheduler.schedule(&gemm_a(256));
        let calls = outcome
            .program
            .body
            .iter()
            .filter(|n| matches!(n, Node::Call(_)))
            .count();
        assert_eq!(calls, 0, "the fused GEMM must not be recognized");
    }

    #[test]
    fn a_and_b_variants_schedule_to_similar_performance() {
        let mut scheduler = DaisyScheduler::new(DaisyConfig::default());
        let a = gemm_a(512);
        let b = gemm_b(512);
        scheduler.seed_from_programs(std::slice::from_ref(&a));
        let out_a = scheduler.schedule(&a);
        let out_b = scheduler.schedule(&b);
        let ratio = out_b.seconds() / out_a.seconds();
        assert!(
            (0.8..1.25).contains(&ratio),
            "A/B runtime ratio {ratio} should be close to 1 (A={}, B={})",
            out_a.seconds(),
            out_b.seconds()
        );
    }

    #[test]
    fn transfer_tuning_recipes_come_from_the_database() {
        // Disable idiom detection so the GEMM nest must be optimized through
        // the database.
        let config = DaisyConfig {
            idiom_detection: false,
            ..DaisyConfig::default()
        };
        let mut scheduler = DaisyScheduler::new(config.clone());
        let a = gemm_a(512);
        scheduler.seed_from_programs(std::slice::from_ref(&a));
        assert!(!scheduler.database().is_empty());
        let tuned = scheduler.schedule(&gemm_b(512));
        // Without any database the same configuration leaves the nests
        // unoptimized and is slower.
        let untuned = DaisyScheduler::new(config).schedule(&gemm_b(512));
        assert!(tuned.seconds() < untuned.seconds());
        assert!(tuned
            .decisions
            .iter()
            .any(|d| d.contains("applied recipe from")));
    }

    #[test]
    fn scheduled_program_is_well_formed() {
        let mut scheduler = DaisyScheduler::new(DaisyConfig::default());
        let a = gemm_a(128);
        scheduler.seed_from_programs(std::slice::from_ref(&a));
        let outcome = scheduler.schedule(&a);
        assert!(outcome.program.validate().is_ok());
        assert!(outcome.report.flops > 0.0);
        assert!(!outcome.decisions.is_empty());
    }

    #[test]
    fn config_accessors() {
        let scheduler = DaisyScheduler::new(DaisyConfig::default());
        assert!(scheduler.config().normalize);
        assert!(scheduler.database().is_empty());
    }

    #[test]
    fn repeated_seeding_does_not_grow_the_database() {
        let mut scheduler = DaisyScheduler::new(DaisyConfig {
            idiom_detection: false,
            ..DaisyConfig::default()
        });
        let a = gemm_a(128);
        scheduler.seed_from_programs(std::slice::from_ref(&a));
        let len = scheduler.database().len();
        assert!(len > 0);
        scheduler.seed_from_programs(std::slice::from_ref(&a));
        assert_eq!(
            scheduler.database().len(),
            len,
            "re-seeding the same programs must dedupe, not accumulate"
        );
    }

    #[test]
    fn exact_match_fast_path_is_used_for_seeded_nests() {
        let config = DaisyConfig {
            idiom_detection: false,
            ..DaisyConfig::default()
        };
        let mut scheduler = DaisyScheduler::new(config);
        let a = gemm_a(256);
        scheduler.seed_from_programs(std::slice::from_ref(&a));
        let outcome = scheduler.schedule(&a);
        assert!(
            outcome.decisions.iter().any(|d| d.contains("[exact]")),
            "scheduling a seeded program should hit the exact-match path: {:?}",
            outcome.decisions
        );
    }

    #[test]
    fn warm_started_scheduler_is_bit_identical_to_cold() {
        let dir = std::env::temp_dir().join(format!("daisy-warm-{}", std::process::id()));
        let path = dir.join("gemm.tunedb");
        let config = DaisyConfig {
            idiom_detection: false,
            ..DaisyConfig::default()
        };
        let a = gemm_a(256);
        let b = gemm_b(256);

        let mut cold = DaisyScheduler::new(config.clone());
        cold.seed_from_programs(std::slice::from_ref(&a));
        cold.persist(&path).unwrap();

        let mut warm = DaisyScheduler::new(config);
        let loaded = warm.warm_start(&path).unwrap();
        assert_eq!(loaded, cold.database().len());
        assert_eq!(warm.database().entries(), cold.database().entries());

        for program in [&a, &b] {
            let cold_outcome = cold.schedule(program);
            let warm_outcome = warm.schedule(program);
            assert_eq!(
                cold_outcome, warm_outcome,
                "cold and warm outcomes must be bit-identical"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn outcome_equality_ignores_phase_timings() {
        let config = DaisyConfig {
            idiom_detection: false,
            ..DaisyConfig::default()
        };
        let scheduler = DaisyScheduler::new(config);
        let program = gemm_a(64);
        let first = scheduler.schedule(&program);
        let second = scheduler.schedule(&program);
        assert_eq!(
            first, second,
            "repeat runs are bit-identical regardless of wall clock"
        );
        assert!(
            first.phase_timings.total_ns() > 0,
            "timings are populated even with no telemetry recorder installed"
        );
        let mut zeroed = first.clone();
        zeroed.phase_timings = PhaseTimings::default();
        assert_eq!(
            first, zeroed,
            "phase timings are explicitly excluded from bit-identity"
        );
        let mut tampered = first.clone();
        tampered.decisions.push("tampered".to_string());
        assert_ne!(first, tampered, "equality still sees the real fields");
    }

    #[test]
    fn warm_start_rejects_stores_from_a_different_cost_model() {
        let dir = std::env::temp_dir().join(format!("daisy-warmfp-{}", std::process::id()));
        let path = dir.join("model.tunedb");
        let mut seeder = DaisyScheduler::new(DaisyConfig::default());
        seeder.seed_from_programs(std::slice::from_ref(&gemm_a(64)));
        seeder.persist(&path).unwrap();

        // Different machine model and different thread count: the persisted
        // costs come from another cost model, so the fingerprint must veto
        // the warm start and leave the database untouched.
        for config in [
            DaisyConfig {
                machine: machine::MachineConfig::tiny_for_tests(),
                ..DaisyConfig::default()
            },
            DaisyConfig {
                threads: 1,
                ..DaisyConfig::default()
            },
        ] {
            let mut other = DaisyScheduler::new(config);
            assert!(matches!(
                other.warm_start(&path),
                Err(StoreError::FingerprintMismatch { .. })
            ));
            assert!(other.database().is_empty());
        }
        // The matching configuration still loads.
        let mut same = DaisyScheduler::new(DaisyConfig::default());
        assert_eq!(same.warm_start(&path).unwrap(), seeder.database().len());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Satellite of PR 4: `ScheduleOutcome`s must not depend on the
    /// scheduler's own parallelism. Multi-nest CLOUDSC (the normalizer
    /// splits the proxy into several independent top-level nests) is
    /// scheduled at parallelism 1, 4 and 12, cold and warm-started, and
    /// every outcome must be bit-identical — same optimized program, same
    /// cost report, same decision log.
    #[test]
    fn schedule_outcomes_are_bit_identical_at_any_parallelism() {
        use polybench::cloudsc::{full_model, CloudscSizes, CloudscVariant};

        let dir = std::env::temp_dir().join(format!("daisy-par-{}", std::process::id()));
        let path = dir.join("par.tunedb");
        let base = DaisyConfig::default();
        let a = gemm_a(128);

        let mut cold = DaisyScheduler::new(base.clone());
        cold.seed_from_programs(std::slice::from_ref(&a));
        cold.persist(&path).unwrap();

        let workloads: Vec<Program> = [
            CloudscVariant::Fortran,
            CloudscVariant::C,
            CloudscVariant::Dace,
        ]
        .into_iter()
        .map(|v| full_model(v, CloudscSizes::mini()))
        .collect();

        for program in &workloads {
            let mut outcomes = Vec::new();
            for parallelism in [1usize, 4, 12] {
                let config = base.clone().with_parallelism(parallelism);
                // Cold: reuse the seeded database under the new parallelism.
                let mut cold_p = cold.clone();
                cold_p.config = config.clone();
                outcomes.push(("cold", parallelism, cold_p.schedule(program)));
                // Warm: a fresh scheduler started from the persisted store.
                let mut warm = DaisyScheduler::new(config);
                warm.warm_start(&path).unwrap();
                outcomes.push(("warm", parallelism, warm.schedule(program)));
            }
            let (mode0, par0, first) = &outcomes[0];
            for (mode, parallelism, outcome) in &outcomes[1..] {
                assert_eq!(
                    outcome, first,
                    "{}: {mode} parallelism {parallelism} diverged from {mode0} parallelism {par0}",
                    program.name
                );
            }
            // The workload really exercises program-level fan-out.
            assert!(
                first.decisions.len() >= 2,
                "{} should have several top-level nests, got {:?}",
                program.name,
                first.decisions
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Satellite of PR 9: like scheduler parallelism, the cache-simulation
    /// worker count never changes results, so it is excluded from the store
    /// fingerprint (stores stay exchangeable across the knob) and outcomes
    /// stay bit-identical at any value.
    #[test]
    fn simulation_parallelism_leaves_fingerprint_and_outcomes_unchanged() {
        let base = DaisyScheduler::new(DaisyConfig::default());
        let program = gemm_a(64);
        let baseline = base.schedule(&program);
        for workers in [1usize, 3, 8] {
            let tuned =
                DaisyScheduler::new(DaisyConfig::default().with_simulation_parallelism(workers));
            assert_eq!(
                tuned.store_fingerprint(),
                base.store_fingerprint(),
                "simulation parallelism {workers} must not invalidate stores"
            );
            assert_eq!(
                tuned.schedule(&program),
                baseline,
                "simulation parallelism {workers} changed the outcome"
            );
        }
    }

    #[test]
    fn open_store_saves_every_accepted_insert() {
        let dir = std::env::temp_dir().join(format!("daisy-open-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let path = dir.join("probe.tunedb");
        let mut seeder = DaisyScheduler::new(DaisyConfig::default());
        seeder.seed_from_programs(std::slice::from_ref(&gemm_a(64)));
        let entries: Vec<StoredEntry> = seeder
            .database()
            .entries()
            .iter()
            .map(DatabaseEntry::to_stored)
            .collect();
        assert!(!entries.is_empty());

        let mut store = seeder.open_store(&path).unwrap();
        for entry in &entries {
            assert!(store.insert(entry.clone()).unwrap());
        }
        let worse = StoredEntry {
            cost: entries[0].cost * 2.0,
            ..entries[0].clone()
        };
        assert!(
            !store.insert(worse).unwrap(),
            "a worse duplicate is rejected"
        );
        drop(store);

        // Every acknowledged insert is on disk, under the scheduler's own
        // fingerprint, and a reopened handle starts from it.
        let mut warm = DaisyScheduler::new(DaisyConfig::default());
        assert_eq!(warm.warm_start(&path).unwrap(), entries.len());
        assert_eq!(warm.database().entries(), seeder.database().entries());
        let mut reopened = seeder.open_store(&path).unwrap();
        assert!(!reopened.insert(entries[0].clone()).unwrap());

        let other = DaisyScheduler::new(DaisyConfig {
            threads: 1,
            ..DaisyConfig::default()
        });
        assert!(matches!(
            other.open_store(&path),
            Err(StoreError::FingerprintMismatch { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn warm_start_rejects_corrupt_and_missing_stores() {
        let dir = std::env::temp_dir().join(format!("daisy-warmerr-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut scheduler = DaisyScheduler::new(DaisyConfig::default());
        assert!(scheduler.warm_start(dir.join("missing.tunedb")).is_err());
        let path = dir.join("corrupt.tunedb");
        std::fs::write(&path, b"DAISYTDBgarbage").unwrap();
        assert!(scheduler.warm_start(&path).is_err());
        assert!(scheduler.database().is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }
}
