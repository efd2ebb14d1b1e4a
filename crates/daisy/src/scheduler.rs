//! The daisy auto-scheduler: normalization + idiom detection + transfer
//! tuning (§4, "Optimization Algorithm").

use std::collections::HashSet;
use std::path::Path;
use std::sync::Arc;

use loop_ir::expr::Var;
use loop_ir::nest::Node;
use loop_ir::program::Program;
use loop_ir::structural_hash_nodes;
use machine::pool::parallel_map;
use machine::{CostModel, CostReport, MachineConfig, NestCost};
use normalize::{Normalizer, NormalizerConfig};
use transforms::{perfect_chain, Recipe};
use tunestore::{DurableStore, OsStorage, Snapshot, Storage, StoreError, StoreHealth};

use crate::database::{nest_key, DatabaseEntry, TuningDatabase};
use crate::embedding::PerformanceEmbedding;
use crate::idiom::detect_blas_idiom;
use crate::search::{nest_scoped_graph, EvolutionarySearch, ScoreContext, SearchConfig, PARALLEL};

/// Configuration of the daisy scheduler. The ablation study (Fig. 7) toggles
/// `normalize` and `transfer_tuning` independently.
#[derive(Debug, Clone, PartialEq)]
pub struct DaisyConfig {
    /// Run a priori loop nest normalization before optimizing.
    pub normalize: bool,
    /// Query the transfer-tuning database (and fall back to the evolutionary
    /// search when seeding).
    pub transfer_tuning: bool,
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
    /// one evolutionary search per nest to hand out, and
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
    /// Forwarded to the scheduler's [`CostModel`] as the worker count of
    /// [`CostModel::simulated_cache`]'s sharded driver (`0` uses the
    /// machine's available parallelism; `1` is fully sequential). No
    /// scheduler path simulates today — seeding and
    /// [`DaisyScheduler::schedule`] price with the roofline estimate alone —
    /// so this has no effect on either. Sharded counters are bit-identical
    /// at any worker count, so it is *not* part of the store fingerprint.
    pub simulation_parallelism: usize,
}

impl Default for DaisyConfig {
    fn default() -> Self {
        DaisyConfig {
            normalize: true,
            transfer_tuning: true,
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

    /// Returns this configuration with the given cache-simulation
    /// parallelism.
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
    /// Deterministic merge: winners spliced in, replacement nodes and idiom
    /// calls priced, the report totalled from the per-node costs.
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
            search: EvolutionarySearch::new(SearchConfig::default()),
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
    /// a `(embedding, recipe)` pair found by the evolutionary search.
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

    /// [`DaisyScheduler::seed_from_programs`] with incremental durability:
    /// every entry the database accepts is also journaled into `store`
    /// (fsynced before the insert is acknowledged), so a crash mid-seeding
    /// loses at most the entry being written — earlier entries warm-start
    /// the next run. Returns the number of entries the store accepted.
    ///
    /// # Errors
    /// The first [`StoreError`] from journaling; entries seeded before the
    /// failure are already durable, and the in-memory database keeps only
    /// what the store acknowledged, so the two never diverge.
    pub fn seed_into_store(
        &mut self,
        programs: &[Program],
        store: &mut DurableStore,
    ) -> Result<usize, StoreError> {
        let mut accepted = 0usize;
        for entry in self.seed_entries(programs) {
            if store.insert(entry.to_stored())? {
                accepted += 1;
            }
            self.database.insert(entry);
        }
        Ok(accepted)
    }

    /// Computes the database entries seeding these programs produces (the
    /// shared heart of [`DaisyScheduler::seed_from_programs`] and
    /// [`DaisyScheduler::seed_into_store`]), in deterministic program/nest
    /// order.
    fn seed_entries(&self, programs: &[Program]) -> Vec<DatabaseEntry> {
        let _span = telemetry::span("seeding");
        let model = CostModel::new(self.config.machine.clone(), self.config.threads)
            .with_simulation_parallelism(self.config.simulation_parallelism);
        let normalized: Vec<Program> = programs.iter().map(|p| self.normalized(p)).collect();
        let mut jobs: Vec<(&Program, usize)> = Vec::new();
        for program in &normalized {
            for (index, node) in program.body.iter().enumerate() {
                let Node::Loop(nest) = node else { continue };
                if self.config.idiom_detection && detect_blas_idiom(program, nest).is_some() {
                    // BLAS nests are handled by idiom detection at scheduling
                    // time; the database entry records that decision.
                    continue;
                }
                jobs.push((program, index));
            }
        }
        telemetry::counter("daisy.seed.nests", jobs.len() as u64);
        let search = self.search.clone().with_parallel(false);
        let workers = self.config.parallelism;
        parallel_map(workers, &jobs, &PARALLEL, |&(program, index)| {
            // Keep the winning recipe's *nest-scoped* cost: the search
            // returns whole-program seconds (a sum over node costs), so
            // subtracting the other nodes' baseline isolates what the
            // recipe achieved on this nest. Whole-program cost would make
            // duplicate-key ranking depend on which seeding program the
            // entry happened to come from (e.g. under `tunedb merge`).
            let (recipe, cost) = search.search(program, index, &model, &[]);
            let others: f64 = program
                .body
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != index)
                .map(|(_, node)| model.node_cost(program, node).seconds)
                .sum();
            let nest = program.body[index]
                .as_loop()
                .expect("job indices point at loops");
            let chain: Vec<Var> = perfect_chain(nest).iter().map(|l| l.iter.clone()).collect();
            DatabaseEntry {
                key: nest_key(program, &program.body[index]),
                cost: cost - others,
                embedding: PerformanceEmbedding::of_nest(program, nest),
                recipe,
                chain,
                source: format!("{}#{}", program.name, index),
            }
        })
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
        let snapshot = Snapshot::load(path)?;
        let expected = self.store_fingerprint();
        if snapshot.fingerprint != expected {
            return Err(StoreError::FingerprintMismatch {
                found: snapshot.fingerprint,
                expected,
            });
        }
        self.database = TuningDatabase::from_snapshot(&snapshot)?;
        Ok(self.database.len())
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

    /// Opens the crash-safe [`DurableStore`] at `path` under this
    /// scheduler's [`store_fingerprint`], for incremental seeding via
    /// [`DaisyScheduler::seed_into_store`].
    ///
    /// [`store_fingerprint`]: DaisyScheduler::store_fingerprint
    ///
    /// # Errors
    /// Only real I/O failures; damaged files degrade (see
    /// [`DurableStore::open`]).
    pub fn open_store(&self, path: impl AsRef<Path>) -> Result<DurableStore, StoreError> {
        self.open_store_with(Arc::new(OsStorage), path)
    }

    /// [`DaisyScheduler::open_store`] through an explicit [`Storage`] (the
    /// fault harness).
    pub fn open_store_with(
        &self,
        storage: Arc<dyn Storage>,
        path: impl AsRef<Path>,
    ) -> Result<DurableStore, StoreError> {
        DurableStore::open(storage, path, &self.store_fingerprint())
    }

    /// Degrading warm start: recovers whatever the store at `path` (its
    /// snapshot *and* journal) durably holds and seeds the database from
    /// it. Where the strict [`DaisyScheduler::warm_start`] errors, this
    /// degrades toward cold seeding instead:
    ///
    /// * a missing store warm-starts empty;
    /// * corrupt files are quarantined to `<name>.corrupt` and skipped;
    /// * files from a different fingerprint are moved to `<name>.foreign`;
    /// * a torn journal tail is dropped (everything acknowledged survives);
    /// * recovered entries this build cannot represent are skipped.
    ///
    /// The surviving entries still carry the full bit-identity guarantee:
    /// scheduling with them equals scheduling with a cold database built
    /// from the same entries. What happened is reported in the returned
    /// [`WarmStart`] — callers log it and proceed.
    ///
    /// # Errors
    /// Only real I/O failures while reading or repairing the store files.
    pub fn warm_start_resilient(
        &mut self,
        path: impl AsRef<Path>,
    ) -> Result<WarmStart, StoreError> {
        self.warm_start_resilient_with(Arc::new(OsStorage), path)
    }

    /// [`DaisyScheduler::warm_start_resilient`] through an explicit
    /// [`Storage`] (the fault harness).
    pub fn warm_start_resilient_with(
        &mut self,
        storage: Arc<dyn Storage>,
        path: impl AsRef<Path>,
    ) -> Result<WarmStart, StoreError> {
        let store = self.open_store_with(storage, path)?;
        let (database, skipped) = TuningDatabase::from_entries_lossy(store.entries());
        let loaded = database.len();
        self.database = database;
        Ok(WarmStart {
            health: store.health().clone(),
            loaded,
            skipped,
        })
    }

    fn normalized(&self, program: &Program) -> Program {
        if self.config.normalize {
            Normalizer::new()
                .run(program)
                .map(|n| n.program)
                .unwrap_or_else(|_| program.clone())
        } else {
            Normalizer::with_config(NormalizerConfig {
                fission: false,
                stride_minimization: false,
            })
            .run(program)
            .map(|n| n.program)
            .unwrap_or_else(|_| program.clone())
        }
    }

    /// Schedules a program: normalization (if enabled), then per top-level
    /// nest idiom detection and transfer-tuned recipe application.
    ///
    /// The normalized program is priced exactly once, in the `seed` phase,
    /// and the per-node costs are kept: every transfer-tuning candidate is
    /// then scored by the nest it rewrote (see
    /// [`plan_node`](Self::plan_node)), and the merge splices the winners'
    /// costs into that vector beside the nodes they replace, pricing only
    /// replacement nodes and idiom calls. Decision-line estimates and the
    /// final [`CostReport`] are sums over the vector in body order — the
    /// order [`CostModel::estimate`] adds in — so nothing the outcome
    /// carries depends on the program around a nest being re-priced.
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
        let model = CostModel::new(self.config.machine.clone(), self.config.threads)
            .with_simulation_parallelism(self.config.simulation_parallelism);
        let (normalized, normalize_ns) = telemetry::timed("normalize", || self.normalized(program));
        // The baseline, priced once: its total is what candidates must
        // beat, its per-node costs are what they are scored against.
        let (baseline, seed_ns) = telemetry::timed("seed", || model.estimate(&normalized));

        // Phase 1: plan every top-level node independently.
        let (plans, search_ns) = telemetry::timed("search", || {
            let indices: Vec<usize> = (0..normalized.body.len()).collect();
            parallel_map(self.config.parallelism, &indices, &PARALLEL, |&i| {
                self.plan_node(&normalized, i, &model, &baseline)
            })
        });

        // Phase 2: deterministic merge in nest order. `costs` stays aligned
        // with `current.body`; recipes can change the number of top-level
        // nodes, so track an explicit cursor.
        let mut current = normalized;
        let mut costs = baseline.per_nest;
        let mut decisions = Vec::new();
        let (report, cost_ns) = telemetry::timed("cost", || {
            let mut index = 0usize;
            for plan in plans {
                match plan {
                    NestPlan::Passthrough => index += 1,
                    NestPlan::Idiom(call) => {
                        decisions.push(format!("nest {index}: replaced with {call}"));
                        let node = Node::Call(call);
                        costs[index] = model.node_cost(&current, &node);
                        current.body[index] = node;
                        index += 1;
                    }
                    NestPlan::Recipe {
                        recipe,
                        source,
                        replacement,
                    } => {
                        let added = replacement.len();
                        let priced: Vec<NestCost> = replacement
                            .iter()
                            .map(|node| model.node_cost(&current, node))
                            .collect();
                        costs.splice(index..=index, priced);
                        current.body.splice(index..=index, replacement);
                        // The whole-program estimate *with earlier decisions
                        // applied*, as a sequential walk would log it.
                        let seconds = costs.iter().fold(0.0, |sum, cost| sum + cost.seconds);
                        decisions.push(format!(
                            "nest {index}: applied recipe from {source} ({recipe}), est. {seconds:.4}s"
                        ));
                        index += added.max(1);
                    }
                    NestPlan::Unoptimized => {
                        decisions.push(format!("nest {index}: left unoptimized (-O3 only)"));
                        index += 1;
                    }
                }
            }
            CostReport::from_nests(costs)
        });
        // Debug builds re-price the result whole (memo hits that release
        // builds do not count): the spliced costs must total to exactly it.
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
    /// work — everything it reads (`normalized`, the database, the memoized
    /// cost model, the baseline report) is shared immutably — so plans can
    /// be computed on any number of worker threads in any order without
    /// changing the result.
    ///
    /// What a candidate costs does not grow with the program around the
    /// nest: the recipe rewrites *the nest alone*, candidates dedupe on the
    /// rewrite's structural hash, and the search's [`ScoreContext`] scores
    /// one as the baseline's prefix costs + the rewrite's nodes + the
    /// suffix costs, in body order — bit-identical to pricing the
    /// materialized candidate program. The winning rewrite travels in the
    /// plan; nothing is applied twice.
    fn plan_node(
        &self,
        normalized: &Program,
        index: usize,
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
        let mut best: Option<NestPlan> = None;
        let mut best_seconds = baseline.seconds;
        if self.config.transfer_tuning && !self.database.is_empty() {
            let chain: Vec<Var> = perfect_chain(nest).iter().map(|l| l.iter.clone()).collect();
            let context = ScoreContext {
                program: normalized,
                nest_index: index,
                nest,
                node_costs: &baseline.per_nest,
                // Dependences of this nest, for the same semantic gate the
                // seeding search applies (a recipe tuned on a structurally
                // similar but differently-constrained nest must not smuggle
                // in an illegal parallelization).
                graph: &nest_scoped_graph(normalized, nest),
            };
            let mut tried: HashSet<u64> = HashSet::new();
            let mut consider = |entry: &DatabaseEntry, exact: bool| {
                let Some(recipe) = TuningDatabase::retarget(entry, &chain) else {
                    return;
                };
                let Some(replacement) = context.rewrite(&recipe) else {
                    return;
                };
                if !tried.insert(structural_hash_nodes(&replacement)) {
                    return;
                }
                let seconds = context.score_rewrite(&replacement, model);
                if seconds < best_seconds {
                    let source = if exact {
                        format!("{} [exact]", entry.source)
                    } else {
                        entry.source.clone()
                    };
                    best_seconds = seconds;
                    best = Some(NestPlan::Recipe {
                        recipe,
                        source,
                        replacement,
                    });
                }
            };
            let key = nest_key(normalized, &normalized.body[index]);
            if let Some(entry) = self.database.lookup(key) {
                telemetry::counter("daisy.plan.exact_hits", 1);
                consider(entry, true);
            }
            // The exact match is a candidate, not a short-circuit: a
            // neighbour's recipe can still beat the recipe seeded on
            // this very nest (the seeding search is heuristic), so the
            // k-NN scan always runs. The `tried` set keeps a neighbour
            // whose retargeted recipe rewrites the nest identically
            // from being priced twice.
            let embedding = PerformanceEmbedding::of_nest(normalized, nest);
            for entry in self.database.nearest(&embedding, self.config.neighbors) {
                consider(entry, false);
            }
            telemetry::counter("daisy.plan.candidates_priced", tried.len() as u64);
        }
        match best {
            Some(plan) => {
                telemetry::counter("daisy.plan.recipes_applied", 1);
                plan
            }
            None => {
                telemetry::counter("daisy.plan.unoptimized", 1);
                NestPlan::Unoptimized
            }
        }
    }
}

/// What a [`DaisyScheduler::warm_start_resilient`] recovered: the store
/// health report plus how many entries made it into the database.
#[derive(Debug, Clone, PartialEq)]
pub struct WarmStart {
    /// What recovery found on disk and what it had to do about it.
    pub health: StoreHealth,
    /// Entries loaded into the database.
    pub loaded: usize,
    /// Recovered entries skipped because this build cannot represent them
    /// (e.g. a different embedding dimension).
    pub skipped: usize,
}

impl WarmStart {
    /// True when the store was fully intact and nothing was skipped.
    pub fn is_clean(&self) -> bool {
        self.health.is_clean() && self.skipped == 0
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
        replacement: Vec<Node>,
    },
    /// No database candidate beat the baseline.
    Unoptimized,
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
    fn resilient_warm_start_matches_strict_and_survives_crash_mid_seeding() {
        use tunestore::{FaultStorage, Storage};

        let storage = Arc::new(FaultStorage::default());
        let path = Path::new("dir/warm.tunedb");
        let config = DaisyConfig {
            idiom_detection: false,
            ..DaisyConfig::default()
        };
        let a = gemm_a(128);

        let mut seeder = DaisyScheduler::new(config.clone());
        let mut store = seeder
            .open_store_with(Arc::clone(&storage) as Arc<dyn Storage>, path)
            .unwrap();
        let accepted = seeder
            .seed_into_store(std::slice::from_ref(&a), &mut store)
            .unwrap();
        assert!(accepted > 0);
        assert_eq!(accepted, seeder.database().len());
        drop(store);

        // No compact ran: everything lives in the journal. Power-cut the
        // storage; every acknowledged insert must still warm-start.
        storage.crash();
        let mut warm = DaisyScheduler::new(config.clone());
        let report = warm
            .warm_start_resilient_with(Arc::clone(&storage) as Arc<dyn Storage>, path)
            .unwrap();
        assert!(report.is_clean(), "clean store: {}", report.health);
        assert_eq!(report.loaded, seeder.database().len());
        assert_eq!(report.skipped, 0);
        assert_eq!(warm.database().entries(), seeder.database().entries());
        assert_eq!(
            warm.schedule(&a),
            seeder.schedule(&a),
            "resilient warm start must stay bit-identical"
        );
    }

    #[test]
    fn resilient_warm_start_quarantines_damage_and_degrades_to_cold() {
        use tunestore::{FaultStorage, SourceState, Storage};

        let storage = Arc::new(FaultStorage::default());
        let path = Path::new("dir/warm.tunedb");
        let config = DaisyConfig {
            idiom_detection: false,
            ..DaisyConfig::default()
        };
        let mut seeder = DaisyScheduler::new(config.clone());
        let mut store = seeder
            .open_store_with(Arc::clone(&storage) as Arc<dyn Storage>, path)
            .unwrap();
        seeder.seed_into_store(&[gemm_a(128)], &mut store).unwrap();
        store.compact().unwrap();
        drop(store);

        // Flip a bit in the snapshot: where strict warm_start would error,
        // the resilient one quarantines and proceeds empty (the journal
        // was just reset by the compact).
        storage.corrupt_byte(path, 40, 0x08);
        let mut hurt = DaisyScheduler::new(config);
        let report = hurt
            .warm_start_resilient_with(Arc::clone(&storage) as Arc<dyn Storage>, path)
            .unwrap();
        assert!(matches!(
            report.health.snapshot,
            SourceState::Quarantined { .. }
        ));
        assert_eq!(report.loaded, 0);
        assert!(hurt.database().is_empty(), "degraded to cold seeding");
        assert!(storage.exists(Path::new("dir/warm.tunedb.corrupt")));
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
